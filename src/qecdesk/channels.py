"""Noise channels as environment-labeled operator sums.

Each channel is a finite list of (label, Kraus operator) pairs satisfying the
completeness relation; the labels name orthogonal environment outcomes, which
is what makes coarse per-label error bounds and branch sampling meaningful.

The operators are stored in read-only stacked blocks of shape (c, d, d), each
of at most _CHUNK_BYTES (1 MiB), or one operator when a single operator is
larger; `ops` is the sequence of (label, view) pairs over them.
Consumers with a small per-operator body contract a whole block at a time: a
pure input goes through as branch vectors A_k psi, one GEMV per block.

A product of independent noise keeps its flat factor channels as `factors`
and builds its blocks (batched Kronecker products of factor operators) only
when they are first read: through `blocks`, `branch_blocks`, or iterating or
indexing `ops`.  Until then apply_pure and apply_matrix use one d_i^2 x d_i^2
superoperator sum_k A_k (x) conj(A_k) per factor, on that factor's (row,
column) axis pair, and its caps and labels are checked as for its flat form.
Every channel counts, names and finds its operators from one label list per
flat factor (see _Operators).  Trace preservation is checked once, against
sum A^dag A, by one rule: explicit operators are stacked and their sum taken
as F^dag F per block (_gram), and a built channel brings its sum from
its structure and builds its blocks on first read.  A product folds its
factors' kept sums, since sum (A (x) B)^dag (A (x) B) = (sum A^dag A) (x)
(sum B^dag B); a synthesized recovery folds its syndrome blocks and code basis
(analysis.synthesize_decoder).  A flat channel keeps its sum, so that it can
be a product factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .gf2_symplectic import PauliProduct
from .hilbert import (
    _CHUNK_BYTES,
    ATOL_ALGEBRA,
    MAX_KRAUS_OPS,  # noqa: F401  (read as qecdesk.channels.MAX_KRAUS_OPS)
    DensityOperator,
    LinearOperator,
    StateVector,
    _check_dims,
    admit,
    exp_hermitian,
    pauli,
    tensor,
)

_SIGMA = {u: pauli(u).matrix for u in "IXYZ"}


def _block_len(d: int) -> int:
    """How many d x d complex matrices fit in one block (at least one)."""
    return max(1, _CHUNK_BYTES // (16 * d * d))


def _gram(blocks, d: int) -> np.ndarray:
    """sum of A^dag A over every operator in the (c, d, d) blocks: F^dag F
    of each block's (c*d, d) stack of rows F."""
    return sum(f.conj().T @ f for f in (blk.reshape(-1, d) for blk in blocks))


def _known_labels(bad_labels, ops: _Operators) -> frozenset[str]:
    """bad_labels as a frozenset, refused if one is not a label of ops."""
    bad = frozenset(map(str, bad_labels))
    unknown = sorted(bad.difference(ops.labels)) if bad else ()
    if unknown:
        raise ValueError(f"bad_labels names {unknown[0]!r}, which is not a label of the channel")
    return bad


class _Operators(Sequence):
    """A channel's (label, operator) pairs, named from one label list per flat
    factor; a flat channel is the one-factor case.

    Label j joins with sep the factors' labels at j's indices unraveled
    row-major (the joined list is built on first read); sep is "" when every
    factor label is one character, else ",".  Unless sep is "," and some
    factor label holds ",", find() splits a label instead of searching, and a
    product's labels are distinct without a check (`unique`).  The blocks
    come from make(start, stop), once per block and in order, on the first
    read of `blocks` or of a pair, and are kept.
    """

    def __init__(self, names: list[list[str]], d: int, make):
        self._names, self._d, self._make = names, d, make
        self._len = math.prod(map(len, names))
        self._sep = "" if set(map(len, itertools.chain(*names))) == {1} else ","
        self._split = not self._sep or "," not in "".join(itertools.chain(*names))
        self.unique = self._split and len(names) > 1
        if len(names) == 1:  # a flat channel's list is its own
            self.labels = names[0]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._pairs[i]

    def __iter__(self):
        return iter(self._pairs)

    @functools.cached_property
    def labels(self) -> list[str]:
        return [self._sep.join(combo) for combo in itertools.product(*self._names)]

    def find(self, label: str) -> tuple[int, ...]:
        """Each factor's index of label's operator; KeyError if it is not one."""
        try:
            if not self._split:
                return np.unravel_index(self.labels.index(label), tuple(map(len, self._names)))
            if not isinstance(label, str):
                raise ValueError
            parts = label.split(",") if self._sep else list(label)
            if len(parts) != len(self._names):
                raise ValueError
            return tuple(ls.index(part) for ls, part in zip(self._names, parts))
        except ValueError:
            raise KeyError(label) from None

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        d, n = self._d, len(self)
        step = _block_len(d)
        blocks = []
        for start in range(0, n, step):
            stop = min(start + step, n)
            blk = self._make(start, stop)
            if blk.shape != (stop - start, d, d) or blk.dtype != complex:
                raise ValueError(f"operators {start}:{stop} came as {blk.dtype} {blk.shape}, "
                                 f"want complex {(stop - start, d, d)}")
            blk.setflags(write=False)
            blocks.append(blk)
        self._make = None
        return tuple(blocks)

    @functools.cached_property
    def _pairs(self) -> tuple[tuple[str, np.ndarray], ...]:
        return tuple(zip(self.labels, itertools.chain(*self.blocks)))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving operator sum on a fixed tensor-product space.

    `blocks` holds the operators in order, _block_len(d) to a block (the last
    may be shorter); `ops` pairs each label with its view into them.
    `factors` holds a product's flat factor channels (empty for a flat
    channel, its own one factor), from which its blocks are built on first
    read.  A flat channel keeps its sum A^dag A as `_completeness`.
    """

    dims: tuple[int, ...]
    ops: Sequence[tuple[str, np.ndarray]]
    bad_labels: frozenset[str] = frozenset()
    factors: tuple[KrausChannel, ...] = field(default=(), init=False, repr=False)
    _completeness: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pairs = tuple(self.ops)
        object.__setattr__(self, "dims", _check_dims(self.dims))
        d = self.dim

        def stack(start, stop):
            blk = np.empty((stop - start, d, d), dtype=complex)
            for j, (label, a) in enumerate(pairs[start:stop]):
                a = np.asarray(a)
                if a.shape != (d, d):
                    raise ValueError(f"operator {label!r} has shape {a.shape}, want {(d, d)}")
                blk[j] = a
            return blk

        self._seal(_Operators([[str(label) for label, _ in pairs]], d, stack))

    @classmethod
    def _new(cls, dims, bad_labels, factors: tuple[KrausChannel, ...] = ()) -> KrausChannel:
        """An unsealed channel on checked dims; _seal gives it its operators."""
        ch = object.__new__(cls)
        object.__setattr__(ch, "dims", _check_dims(dims))
        object.__setattr__(ch, "bad_labels", bad_labels)
        object.__setattr__(ch, "factors", factors)
        return ch

    @classmethod
    def _build(cls, dims, labels: list[str], make, bad_labels: frozenset[str],
               completeness: np.ndarray) -> KrausChannel:
        """Flat channel whose operators start:stop come stacked from
        make(start, stop), with completeness = sum A^dag A computed by the
        caller from the operators' structure.

        Only completeness is checked here.  make runs on the first read of
        `blocks`, `ops` or `branch_blocks`, once per block and in order, so
        a caller that computes operators in batches writes them straight
        into their blocks, and a channel that is never read builds none.
        """
        ch = cls._new(dims, bad_labels)
        ch._seal(_Operators([labels], ch.dim, make), completeness)
        return ch

    def _seal(self, ops: _Operators, completeness: np.ndarray | None = None) -> None:
        """The one validation behind every way in; freezes the operators.

        Trace preservation compares sum A^dag A with the identity: the sum a
        built channel brings from its structure (a product's is folded from
        its factors' kept sums), or else _gram over the blocks, built here.
        A flat channel keeps the sum as `_completeness`.
        """
        if not len(ops):
            raise ValueError("channel needs at least one operator")
        admit("channel", ops=len(ops))
        if not ops.unique and len(set(ops.labels)) != len(ops):
            seen = set()
            dup = next(l for l in ops.labels if l in seen or seen.add(l))
            raise ValueError(f"duplicate label {dup!r}")
        bad = _known_labels(self.bad_labels, ops)
        if completeness is None:
            completeness = _gram(ops.blocks, self.dim)
        eye = np.eye(self.dim)
        if not (completeness.shape == eye.shape
                and np.abs(completeness - eye).max() <= ATOL_ALGEBRA):
            raise ValueError("operator sum is not trace preserving")
        if not self.factors:
            object.__setattr__(self, "_completeness", completeness)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "bad_labels", bad)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self.ops.blocks

    def labels(self) -> list[str]:
        return list(self.ops.labels)

    def operator(self, label: str) -> np.ndarray:
        """A read-only copy of one label's operator, formed as its block
        forms it: a product's is the Kronecker product of its factors'."""
        factors = self.factors or (self,)
        a = _kron_stack([_gather(f, [i]) for f, i in zip(factors, self.ops.find(label))])[0]
        a.setflags(write=False)
        return a

    def branch_blocks(self, psi: np.ndarray):
        """Yield, block by block, the branch vectors A_k psi stacked as (c, d).

        One GEMV per block: the block's operators read as one (c*d, d) matrix.
        """
        d = self.dim
        for blk in self.blocks:
            yield (blk.reshape(-1, d) @ psi).reshape(len(blk), d)

    def apply_pure(self, psi: np.ndarray) -> np.ndarray:
        """The channel applied to |psi><psi|: sum_k (A_k psi)(A_k psi)^dag.

        Costs 2 m d^2 against apply_matrix's 2 m d^3 on the outer product; a
        product goes through apply_matrix's factor path instead.
        """
        if self.factors:
            return self.apply_matrix(np.outer(psi, psi.conj()))
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for y in self.branch_blocks(psi):
            out += y.T @ y.conj()
        return out

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """sum_k A_k m A_k^dag: a loop over the operators of a flat channel;
        a product applies each factor's superoperator on its axis pair."""
        if not self.factors:
            out = np.zeros_like(m, dtype=complex)
            for _, a in self.ops:
                out += a @ m @ a.conj().T
            return out
        ds = tuple(f.dim for f in self.factors)
        n = len(ds)
        t = np.asarray(m, dtype=complex).reshape(ds + ds)
        for q, f in enumerate(self.factors):
            t = np.tensordot(f._superoperator, t, axes=((2, 3), (q, n + q)))
            t = np.moveaxis(t, (0, 1), (q, n + q))
        return t.reshape(self.dim, self.dim)

    @functools.cached_property
    def _superoperator(self) -> np.ndarray:
        """S[a, b, c, e] = sum_k A_k[a, c] conj(A_k[b, e]), so that
        sum_k A_k m A_k^dag = sum_(c, e) S[:, :, c, e] m[c, e]; its d^4
        entries are admitted first."""
        admit(f"superoperator of a {self.dim}-dimensional factor", nbytes=16 * self.dim ** 4)
        return sum(np.einsum("kac,kbe->abce", blk, blk.conj()) for blk in self.blocks)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.dims != self.dims:
            raise ValueError(f"state dims {rho.dims} != channel dims {self.dims}")
        return DensityOperator(self.dims, self.apply_matrix(rho.matrix))


def _philox_blocks(seed: int, trials: int, block: int):
    """Yield (generator, count) for consecutive blocks of at most `block` trials.

    Block i draws from the seed's Philox stream at counter i * 2**64, so a
    seeded run is reproducible and does not depend on block scheduling.
    """
    for index, start in enumerate(range(0, trials, block)):
        bitgen = np.random.Philox(key=seed, counter=index * 2 ** 64)
        yield np.random.Generator(bitgen), min(block, trials - start)


def identity_channel(dims: tuple[int, ...]) -> KrausChannel:
    d = math.prod(dims)
    return KrausChannel(tuple(dims), (("0", np.eye(d, dtype=complex)),))


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing noise in the five-operator labeled form.

    With probability 1-p nothing happens; with probability p the state is
    replaced by the maximally mixed one, realized as uniform I/X/Y/Z kicks
    of weight p/4 each.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    ops = [("0", math.sqrt(1.0 - p) * _SIGMA["I"])]
    for u in "IXYZ":
        ops.append((u.lower() if u != "I" else "1", math.sqrt(p) / 2.0 * _SIGMA[u]))
    return KrausChannel((2,), tuple(ops))


def bit_flip(p: float) -> KrausChannel:
    """Single-qubit X kick with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return KrausChannel(
        (2,),
        (
            ("0", math.sqrt(1.0 - p) * _SIGMA["I"]),
            ("x", math.sqrt(p) * _SIGMA["X"]),
        ),
    )


def cyclic_shift(dim: int, k: int) -> np.ndarray:
    """Permutation matrix |l> -> |l+k mod dim>."""
    m = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        m[(l + k) % dim, l] = 1.0
    return m


def gaussian_shift(dim: int = 7, K: int = 20) -> KrausChannel:
    """Cyclic shifts s_k applied with Gaussian weights e^(-k^2), renormalized.

    The truncation keeps |k| <= K; weights beyond k=4 are already below 1e-7,
    so the default K=20 is numerically exact at double precision.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if K < 2:
        raise ValueError("K must be at least 2")
    admit(f"gaussian shift K={K}", ops=2 * K + 1)
    ops = tuple(
        (str(k), math.sqrt(p) * cyclic_shift(dim, k))
        for k, p in gaussian_shift_probabilities(K).items()
    )
    return KrausChannel((dim,), ops)


def gaussian_shift_probabilities(K: int = 20) -> dict[int, float]:
    """Shift-size distribution of gaussian_shift, keyed by k."""
    ks = list(range(-K, K + 1))
    weights = [math.exp(-float(k * k)) for k in ks]
    z = math.fsum(weights)
    return {k: w / z for k, w in zip(ks, weights)}


@functools.cache
def collective_spin(u: str, n: int = 3) -> LinearOperator:
    """J_u = (1/2) sum of sigma_u over all n spins; built once per (u, n)."""
    terms = []
    for i in range(n):
        factors = [pauli(u) if j == i else pauli("I") for j in range(n)]
        terms.append(tensor(*factors).matrix)
    return LinearOperator((2,) * n, (2,) * n, 0.5 * sum(terms))


def collective_rotations(vs, n: int = 3) -> np.ndarray:
    """exp(-i v.J) for each row v of an (R, 3) array, as an (R, 2^n, 2^n)
    stack: H = v_x J_x + v_y J_y + v_z J_z per row, one stacked eigh."""
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 2 or vs.shape[1] != 3:
        raise ValueError(f"rotation vectors need shape (R, 3), got {vs.shape}")
    jx, jy, jz = (collective_spin(u, n).matrix for u in "XYZ")
    h = vs[:, 0, None, None] * jx + vs[:, 1, None, None] * jy + vs[:, 2, None, None] * jz
    return exp_hermitian(h)


def collective_rotation(v: tuple[float, float, float], n: int = 3) -> KrausChannel:
    """Unitary exp(-i v.J), the same rotation applied to every spin at once:
    the one-row case of collective_rotations, as a one-operator channel."""
    return KrausChannel((2,) * n, (("rot", collective_rotations([v], n)[0]),))


def channel_from_unitary(
    u: LinearOperator,
    env_init: StateVector,
    env_basis: list[StateVector],
) -> KrausChannel:
    """Trace out an explicit environment: A_e = <e| U |env_init>.

    U must act on environment (x) system with the environment factor first;
    env_basis must be a complete orthonormal basis of the environment, which
    is what guarantees the operator sum is trace preserving.
    """
    if not u.is_unitary():
        raise ValueError("U is not unitary")
    de = env_init.dim
    d = math.prod(u.dims_in)
    if d % de != 0:
        raise ValueError("environment dimension does not divide U")
    ds = d // de
    if len(env_basis) != de:
        raise ValueError(f"need a complete basis of {de} environment vectors")
    vecs = np.column_stack([b.amplitudes for b in env_basis])
    if np.abs(vecs.conj().T @ vecs - np.eye(de)).max() > ATOL_ALGEBRA:
        raise ValueError("environment basis is not orthonormal")
    if abs(env_init.norm() - 1.0) > ATOL_ALGEBRA:
        raise ValueError("environment start state is not normalized")
    u4 = u.matrix.reshape(de, ds, de, ds)
    sys_dims = u.dims_in[1:] if u.dims_in[0] == de and len(u.dims_in) > 1 else (ds,)
    ops = []
    for i in range(de):
        a = np.einsum("e,esfd,f->sd", vecs[:, i].conj(), u4, env_init.amplitudes)
        ops.append((str(i), a))
    return KrausChannel(tuple(sys_dims), tuple(ops))


def tensor_channels(*channels: KrausChannel) -> KrausChannel:
    """Independent noise on disjoint factors; one operator per label tuple.

    A product operand contributes its own flat factors, so every bracketing
    of the same factors is the same channel, labels included.  Factor labels
    concatenate directly when every factor uses single-character labels, and
    are comma-joined otherwise.  The result builds no operator here: its
    caps, labels and trace preservation are checked now, the last against
    the Kronecker product of the factors' kept sums A^dag A.  Its blocks,
    when read, hold the operators in label-tuple order (last factor
    fastest), a block at a time (see _kron_rows).
    """
    if not channels:
        raise ValueError("tensor of no channels")
    if len(channels) == 1:
        return channels[0]
    # a product's operator index unravels row-major over its own factors, so
    # nested products flatten without reordering a single operator
    factors = tuple(f for ch in channels for f in (ch.factors or (ch,)))
    dims = sum((f.dims for f in factors), ())
    d = math.prod(dims)
    ops = _Operators([f.ops.labels for f in factors], d, functools.partial(_kron_rows, factors))
    count = len(ops)
    admit(f"{count} operators of dimension {d}", ops=count, dim=d, nbytes=count * d * d * 16)
    bad = frozenset()
    if any(f.bad_labels for f in factors):
        flagged = np.zeros([len(f.ops) for f in factors], dtype=bool)
        for axis, f in enumerate(factors):
            flags = np.array([l in f.bad_labels for l in f.ops.labels])
            flagged |= flags.reshape((-1,) + (1,) * (len(factors) - axis - 1))
        bad = frozenset(itertools.compress(ops.labels, flagged.reshape(-1)))
    product = KrausChannel._new(dims, bad, factors)
    product._seal(ops, _kron_stack([f._completeness[None] for f in factors])[0])
    return product


def _kron_rows(factors: tuple[KrausChannel, ...], start: int, stop: int) -> np.ndarray:
    """Operators start:stop of the product of flat factors, as one stack: the
    operator indices unraveled into factor indices, and the gathered factor
    operators folded with batched Kronecker products."""
    idx = np.unravel_index(np.arange(start, stop), tuple(len(f.ops) for f in factors))
    return _kron_stack([_gather(f, i) for f, i in zip(factors, idx)])


def _gather(ch: KrausChannel, idx: np.ndarray) -> np.ndarray:
    """Operators idx of ch as one (len(idx), d, d) stack, read block by block."""
    if len(ch.blocks) == 1:
        return np.take(ch.blocks[0], idx, axis=0)
    which, at = np.divmod(idx, _block_len(ch.dim))
    out = np.empty((len(idx), ch.dim, ch.dim), dtype=complex)
    for b in np.unique(which):
        sel = which == b
        out[sel] = np.take(ch.blocks[b], at[sel], axis=0)
    return out


def _kron_stack(stacks: list[np.ndarray]) -> np.ndarray:
    """out[j] = stacks[0][j] (x) stacks[1][j] (x) ..., folded from the right.

    Each step broadcasts (c, a, 1, a, 1) against (c, 1, b, 1, b) into a new
    (c, ab, ab) stack, so the contiguous inner axis is the long one.
    """
    acc = stacks[-1]
    for f in reversed(stacks[:-1]):
        c, a, b = len(f), f.shape[1], acc.shape[1]
        out = np.empty((c, a * b, a * b), dtype=complex)
        np.multiply(f[:, :, None, :, None], acc[:, None, :, None, :],
                    out=out.reshape(c, a, b, a, b))
        acc = out
    return acc


def tensor_independent(ch: KrausChannel, n: int) -> KrausChannel:
    """The same channel acting independently on each of n copies."""
    if n < 1:
        raise ValueError("n must be positive")
    # k**n and d**n are admitted before [ch] * n exists
    admit(f"independent n={n}", ops=(len(ch.ops), n), dim=(ch.dim, n))
    return tensor_channels(*([ch] * n))


def remix_labels(ch: KrausChannel, u: np.ndarray) -> KrausChannel:
    """Recombine operators by a unitary on the label space: A'_f = sum_e u_fe A_e.

    This changes nothing observable; it exists to exercise exactly that fact.
    """
    m = len(ch.ops)
    u = np.asarray(u, dtype=complex)
    if u.shape != (m, m) or np.abs(u.conj().T @ u - np.eye(m)).max() > ATOL_ALGEBRA:
        raise ValueError("label remix must be unitary on the operator list")
    mats = [a for _, a in ch.ops]
    ops = tuple(
        (f"m{f}", sum(u[f, e] * mats[e] for e in range(m))) for f in range(m)
    )
    return KrausChannel(ch.dims, ops)


@dataclass(frozen=True, eq=False)
class PauliChannel:
    """Random Pauli kicks: phase-free words applied with given probabilities."""

    n: int
    probs: dict

    def __post_init__(self):
        probs = {}
        for word, p in self.probs.items():
            if isinstance(word, str):
                word = PauliProduct.from_string(word)
            if word.n != self.n:
                raise ValueError(f"{word} does not act on {self.n} qubits")
            if not p >= -ATOL_ALGEBRA:  # NaN fails too
                raise ValueError(f"probability {p} for {word} is negative or NaN")
            if word.phase_free() in probs:
                raise ValueError(f"word {word.phase_free()} is given twice, up to phase")
            probs[word.phase_free()] = float(max(p, 0.0))
        if abs(math.fsum(probs.values()) - 1.0) > ATOL_ALGEBRA:
            raise ValueError("probabilities do not sum to 1")
        object.__setattr__(self, "probs", probs)

    def probability(self, word) -> float:
        if isinstance(word, str):
            word = PauliProduct.from_string(word)
        return self.probs.get(word.phase_free(), 0.0)


def twirl(ch: KrausChannel) -> PauliChannel:
    """Project a single-qubit channel onto its random-Pauli shadow.

    Expanding each operator in the Pauli basis, A_e = sum_v alpha_ev sigma_v,
    the twirled channel applies sigma_v with probability sum_e |alpha_ev|^2.
    """
    if ch.dims != (2,):
        raise ValueError("twirl is defined for single-qubit channels")
    probs = {}
    for u in "IXYZ":
        word = PauliProduct.from_string(u)
        total = 0.0
        for _, a in ch.ops:
            alpha = np.trace(_SIGMA[u] @ a) / 2.0
            total += abs(alpha) ** 2
        probs[word] = total
    return PauliChannel(1, probs)


# keys of each channel kind, in grammar order; K and n take whole numbers,
# the rest finite reals, and only gaussian7's K may be left out
_SPEC_KEYS = {"depolarizing": ("p",), "bitflip": ("p",), "gaussian7": ("K",),
              "collective": ("vx", "vy", "vz"), "independent": ("n",)}
_SPEC_COUNTS = frozenset({"K", "n"})


def _spec_grammar(head: str) -> str:
    keys = " ".join(f"{k}=<{'count' if k in _SPEC_COUNTS else 'value'}>"
                    for k in _SPEC_KEYS[head])
    return f"{head} {keys}" + (" <inner spec>" if head == "independent" else "")


def _spec_values(head: str, tokens: list[str]) -> dict:
    """The key=value tokens of one channel kind, each key checked and converted."""
    if head not in _SPEC_KEYS:
        raise ValueError(f"unknown channel kind {head!r} (kinds: {', '.join(_SPEC_KEYS)})")
    grammar = _spec_grammar(head)
    out = {}
    for t in tokens:
        if "=" not in t:
            raise ValueError(f"expected key=value, got {t!r} (grammar: {grammar})")
        k, v = t.split("=", 1)
        if k not in _SPEC_KEYS[head]:
            raise ValueError(f"{head} takes no key {k}= (grammar: {grammar})")
        if k in out:
            raise ValueError(f"{head} got {k}= twice (grammar: {grammar})")
        if k in _SPEC_COUNTS:
            try:
                out[k] = int(v)
            except ValueError:
                raise ValueError(f"{head} needs a whole number for {k}=, got {v!r} "
                                 f"(grammar: {grammar})") from None
            continue
        try:
            value = float(v)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{head} needs a finite number for {k}=, got {v!r}")
        out[k] = value
    if head == "gaussian7":
        out.setdefault("K", 20)
    missing = [k for k in _SPEC_KEYS[head] if k not in out]
    if missing:
        raise ValueError(f"{head} needs {missing[0]}=<value> (grammar: {grammar})")
    return out


def parse_channel_spec(text: str) -> KrausChannel:
    """Build a channel from a one-line spec.

    Grammar:
        depolarizing p=0.1
        bitflip p=0.25
        gaussian7 K=20
        collective vx=0.1 vy=0.2 vz=0.3
        independent n=3 <inner spec>

    A missing, unknown or repeated key, or a value of the wrong kind, is
    refused with a ValueError naming the key and the grammar.
    """
    tokens = text.split()
    counts = []  # n of each leading "independent n=<count>", outermost first
    while tokens[:1] == ["independent"]:
        if not tokens[1:2] or not tokens[1].startswith("n="):
            raise ValueError(f"independent needs n=<count> then an inner spec "
                             f"(grammar: {_spec_grammar('independent')})")
        counts.append(_spec_values("independent", tokens[1:2])["n"])
        tokens = tokens[2:]
    if not tokens:
        raise ValueError("empty channel spec")
    head = tokens[0]
    kw = _spec_values(head, tokens[1:])
    if head == "gaussian7":
        ch = gaussian_shift(7, kw["K"])
    elif head == "collective":
        ch = collective_rotation((kw["vx"], kw["vy"], kw["vz"]))
    elif head == "depolarizing":
        ch = depolarizing(kw["p"])
    else:
        ch = bit_flip(kw["p"])
    for n in reversed(counts):
        ch = tensor_independent(ch, n)
    return ch
