"""Noise channels as environment-labeled operator sums.

Each channel is a finite list of (label, Kraus operator) pairs satisfying the
completeness relation; the labels name orthogonal environment outcomes, which
is what makes coarse per-label error bounds and branch sampling meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf2_symplectic import PauliProduct
from .hilbert import (
    ATOL_ALGEBRA,
    DensityOperator,
    LinearOperator,
    StateVector,
    exp_hermitian,
    pauli,
    tensor,
)

MAX_KRAUS_OPS = 4096

_SIGMA = {u: pauli(u).matrix for u in "IXYZ"}


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving operator sum on a fixed tensor-product space."""

    dims: tuple[int, ...]
    ops: tuple[tuple[str, np.ndarray], ...]
    bad_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        d = math.prod(dims)
        if not self.ops:
            raise ValueError("channel needs at least one operator")
        if len(self.ops) > MAX_KRAUS_OPS:
            raise ValueError(f"{len(self.ops)} operators exceed cap {MAX_KRAUS_OPS}")
        ops = []
        total = np.zeros((d, d), dtype=complex)
        seen = set()
        for label, a in self.ops:
            a = np.asarray(a, dtype=complex)
            if a.shape != (d, d):
                raise ValueError(f"operator {label!r} has shape {a.shape}, want {(d, d)}")
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen.add(label)
            a.setflags(write=False)
            ops.append((str(label), a))
            total += a.conj().T @ a
        if np.abs(total - np.eye(d)).max() > ATOL_ALGEBRA:
            raise ValueError("operator sum is not trace preserving")
        if not set(self.bad_labels) <= seen:
            raise ValueError("bad_labels mentions unknown labels")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "bad_labels", frozenset(self.bad_labels))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def labels(self) -> list[str]:
        return [label for label, _ in self.ops]

    def operator(self, label: str) -> np.ndarray:
        for lab, a in self.ops:
            if lab == label:
                return a
        raise KeyError(label)

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        out = np.zeros_like(m, dtype=complex)
        for _, a in self.ops:
            out += a @ m @ a.conj().T
        return out

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


def collective_rotation(v: tuple[float, float, float], n: int = 3) -> KrausChannel:
    """Unitary exp(-i v.J), the same rotation applied to every spin at once."""
    vx, vy, vz = v
    h = (
        vx * collective_spin("X", n).matrix
        + vy * collective_spin("Y", n).matrix
        + vz * collective_spin("Z", n).matrix
    )
    u = exp_hermitian(LinearOperator((2,) * n, (2,) * n, h), 1.0)
    return KrausChannel((2,) * n, (("rot", u.matrix),))


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

    Component labels concatenate directly when every factor uses
    single-character labels, and are comma-joined otherwise.
    """
    if not channels:
        raise ValueError("tensor of no channels")
    if len(channels) == 1:
        return channels[0]
    count = math.prod(len(ch.ops) for ch in channels)
    if count > MAX_KRAUS_OPS:
        raise ValueError(f"{count} operators exceed cap {MAX_KRAUS_OPS}")
    sep = "" if all(
        len(l) == 1 for ch in channels for l in ch.labels()
    ) else ","
    ops = []
    bad = set()
    for combo in itertools.product(*(ch.ops for ch in channels)):
        label = sep.join(l for l, _ in combo)
        mat = combo[0][1]
        for _, m in combo[1:]:
            mat = np.kron(mat, m)
        ops.append((label, mat))
        if any(l in ch.bad_labels for ch, (l, _) in zip(channels, combo)):
            bad.add(label)
    dims = sum((ch.dims for ch in channels), ())
    return KrausChannel(dims, tuple(ops), frozenset(bad))


def tensor_independent(ch: KrausChannel, n: int) -> KrausChannel:
    """The same channel acting independently on each of n copies."""
    if n < 1:
        raise ValueError("n must be positive")
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
            if p < -ATOL_ALGEBRA:
                raise ValueError(f"negative probability {p} for {word}")
            probs[word.phase_free()] = float(max(p, 0.0))
        if abs(math.fsum(probs.values()) - 1.0) > ATOL_ALGEBRA:
            raise ValueError("probabilities do not sum to 1")
        object.__setattr__(self, "probs", probs)

    def probability(self, word) -> float:
        if isinstance(word, str):
            word = PauliProduct.from_string(word)
        return self.probs.get(word.phase_free(), 0.0)

    def as_kraus(self) -> KrausChannel:
        ops = []
        for word, p in self.probs.items():
            if p == 0.0:
                continue
            ops.append((str(word), math.sqrt(p) * word.dense()))
        return KrausChannel((2,) * self.n, tuple(ops))


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


def _canonical_phase(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-6))
    z = flat[idx]
    return m * (z.conjugate() / abs(z))


@functools.cache
def rotation_group() -> list[np.ndarray]:
    """The 24 single-qubit rotations generated by 90-degree x/y/z turns."""
    # quarter turns exp(-i sigma_u pi/4) around each axis generate all 24
    gens = [
        exp_hermitian(pauli(u), math.pi / 4.0).matrix for u in "XYZ"
    ]
    def key(m):
        c = _canonical_phase(m)
        return tuple(np.round(c.reshape(-1), 9).view(float))
    seen = {key(np.eye(2, dtype=complex)): np.eye(2, dtype=complex)}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = g @ m
                k = key(p)
                if k not in seen:
                    seen[k] = _canonical_phase(p)
                    nxt.append(p)
        frontier = nxt
    group = list(seen.values())
    if len(group) != 24:
        raise RuntimeError(f"rotation group closure found {len(group)} elements")
    return group


def clifford_twirl(pch: PauliChannel) -> KrausChannel:
    """Average a Pauli channel over the 24-element rotation group.

    The average equalizes the three non-identity probabilities, so the result
    is depolarizing with p = (4/3)(p_X + p_Y + p_Z).
    """
    if pch.n != 1:
        raise ValueError("clifford_twirl is defined for single-qubit channels")
    p_in = {u: pch.probability(u) for u in "IXYZ"}
    acc = {u: 0.0 for u in "XYZ"}
    group = rotation_group()
    for r in group:
        for v in "XYZ":
            conj = r @ _SIGMA[v] @ r.conj().T
            for u in "XYZ":
                c = np.trace(_SIGMA[u] @ conj) / 2.0
                if abs(abs(c) - 1.0) < 1e-9:
                    acc[u] += p_in[v] / len(group)
                    break
            else:
                raise RuntimeError("rotation did not permute the Pauli axes")
    s = math.fsum(acc.values())
    spread = max(acc.values()) - min(acc.values())
    if spread > 1e-12:
        raise RuntimeError(f"group average left spread {spread}")
    p = 4.0 * s / 3.0
    if p <= 1.0:
        return depolarizing(p)
    # heavier-than-uniform noise has no sqrt(1-p) branch; fall back to kicks
    return PauliChannel(
        1, {"I": 1.0 - s, "X": s / 3.0, "Y": s / 3.0, "Z": s / 3.0}
    ).as_kraus()


# required keys of each channel kind, in grammar order
_SPEC_KEYS = {"depolarizing": ("p",), "bitflip": ("p",),
              "collective": ("vx", "vy", "vz")}


def parse_channel_spec(text: str) -> KrausChannel:
    """Build a channel from a one-line spec.

    Grammar:
        depolarizing p=0.1
        bitflip p=0.25
        gaussian7 K=20
        collective vx=0.1 vy=0.2 vz=0.3
        independent n=3 <inner spec>
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty channel spec")
    head, rest = tokens[0], tokens[1:]

    def kwargs(toks):
        out = {}
        for t in toks:
            if "=" not in t:
                raise ValueError(f"expected key=value, got {t!r}")
            k, v = t.split("=", 1)
            out[k] = v
        return out

    def need(kw, key):
        if key not in kw:
            grammar = " ".join(f"{k}=<value>" for k in _SPEC_KEYS[head])
            raise ValueError(f"{head} needs {key}=<value> (grammar: {head} {grammar})")
        try:
            value = float(kw[key])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{head} needs a finite number for {key}=, got {kw[key]!r}")
        return value

    if head == "depolarizing":
        return depolarizing(need(kwargs(rest), "p"))
    if head == "bitflip":
        return bit_flip(need(kwargs(rest), "p"))
    if head == "gaussian7":
        kw = kwargs(rest)
        return gaussian_shift(7, int(kw.get("K", 20)))
    if head == "collective":
        kw = kwargs(rest)
        return collective_rotation(tuple(need(kw, k) for k in _SPEC_KEYS[head]))
    if head == "independent":
        if not rest or not rest[0].startswith("n="):
            raise ValueError("independent needs n=<count> then an inner spec")
        n = int(rest[0].split("=", 1)[1])
        return tensor_independent(parse_channel_spec(" ".join(rest[1:])), n)
    raise ValueError(f"unknown channel kind {head!r}")
