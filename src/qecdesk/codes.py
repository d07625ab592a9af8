"""Code constructions: subspaces, subsystem identifications, and classical tables.

A subsystem identification is an isometry W from syndrome (x) logical onto a
subspace of the physical space.  Encoding places the syndrome in a fixed base
state; decoding reads both factors back out.  Identifications may be partial:
physical support outside the range of W is detection ("fail") mass.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .gf2_symplectic import StabilizerGeneratorSet, _index_maps
from .hilbert import (
    ATOL_ALGEBRA,
    LinearOperator,
    StateVector,
    _check_dims,
    from_json_array,
)


@dataclass(frozen=True, eq=False)
class CodeSubspace:
    """A code: an isometry C from C^k onto a subspace of the physical space,
    its columns an orthonormal basis of the code."""

    isometry: LinearOperator

    def __post_init__(self):
        c = self.isometry
        if len(c.dims_in) != 1:
            raise ValueError(f"code isometry input dims {c.dims_in} must be one factor (k,)")
        if not c.is_isometry():
            raise ValueError("code basis is not orthonormal")

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return self.isometry.dims_out

    @property
    def dim(self) -> int:
        return self.isometry.dims_in[0]

    @property
    def physical_dim(self) -> int:
        return self.isometry.matrix.shape[0]

    def basis_matrix(self) -> np.ndarray:
        """C, read-only, one column per basis vector."""
        return self.isometry.matrix


@dataclass(frozen=True, eq=False)
class SubsystemIdentification:
    """Isometry W : |syndrome> (x) |logical> -> physical, column-major in
    syndrome; the dimensions are W's."""

    isometry: LinearOperator
    syndrome_base: int = 0
    syndrome_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = self.isometry
        if len(w.dims_in) != 2:
            raise ValueError(f"isometry input dims {w.dims_in} must be a (syndrome, logical) pair")
        if not w.is_isometry():
            raise ValueError("W is not an isometry")
        if not 0 <= self.syndrome_base < self.syndrome_dim:
            raise ValueError("syndrome_base out of range")
        if self.syndrome_labels is not None and len(self.syndrome_labels) != self.syndrome_dim:
            raise ValueError("need one label per syndrome value")

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return self.isometry.dims_out

    @property
    def syndrome_dim(self) -> int:
        return self.isometry.dims_in[0]

    @property
    def logical_dim(self) -> int:
        return self.isometry.dims_in[1]

    @property
    def physical_dim(self) -> int:
        return self.isometry.matrix.shape[0]

    def is_complete(self) -> bool:
        return self.syndrome_dim * self.logical_dim == self.physical_dim

    def syndrome_label(self, s: int) -> str:
        if self.syndrome_labels is not None:
            return self.syndrome_labels[s]
        return str(s)

    @functools.cached_property
    def code_subspace(self) -> CodeSubspace:
        """The code C: W's columns with the syndrome in its base value,
        built once per identification."""
        b, dl = self.syndrome_base, self.logical_dim
        return CodeSubspace(LinearOperator(
            (dl,), self.physical_dims, self.isometry.matrix[:, b * dl:(b + 1) * dl]))

    def encode(self, logical: StateVector) -> StateVector:
        """C psi: a logical state with the syndrome in its base value."""
        if logical.dims != (self.logical_dim,):
            raise ValueError(f"logical state must have dim {self.logical_dim}")
        return self.code_subspace.isometry.apply(logical)

    def subsystem_matrix(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """(W^dag rho W, leakage mass); the first factor is syndrome-major."""
        w = self.isometry.matrix
        sigma = w.conj().T @ rho @ w
        leak = float(np.trace(rho).real - np.trace(sigma).real)
        return sigma, max(leak, 0.0)


# --- classical codes ---------------------------------------------------------


@dataclass(frozen=True)
class ClassicalCode:
    """Code words over the alphabet {0, ..., alphabet-1}, fixed length."""

    alphabet: int
    length: int
    words: tuple[str, ...]

    def __post_init__(self):
        for w in self.words:
            if len(w) != self.length or any(int(c) >= self.alphabet for c in w):
                raise ValueError(f"word {w!r} is not over the declared alphabet")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate code words")

    def all_states(self) -> list[str]:
        digits = "0123456789"[: self.alphabet]
        return ["".join(t) for t in itertools.product(digits, repeat=self.length)]


def _majority(word: str) -> str:
    return "1" if word.count("1") > len(word) // 2 else "0"


def _rep_syndrome(word: str) -> str:
    a, b, c = (int(x) for x in word)
    return f"{a ^ c}{b ^ c}"


@dataclass(frozen=True)
class ClassicalRepetition:
    code: ClassicalCode
    decode: dict
    identification: dict


def repetition_classical() -> ClassicalRepetition:
    """Three-bit repetition with majority decoding.

    The identification splits each word into a two-bit syndrome (pairwise
    parities against the last bit) and the majority bit; flipping at most one
    bit moves only the syndrome.
    """
    code = ClassicalCode(2, 3, ("000", "111"))
    decode = {}
    ident = {}
    for w in code.all_states():
        decode[w] = _majority(w)
        ident[w] = (_rep_syndrome(w), _majority(w))
    return ClassicalRepetition(code, decode, ident)


def repetition_failure_probability(p):
    """Probability that independent flips at rate p defeat majority decoding.

    Exact for Fraction input; enumerates all flip patterns.
    """
    rep = repetition_classical()
    one = p / p if p else 1  # unit of the same arithmetic type
    total = 0 * p
    for flips in itertools.product((0, 1), repeat=3):
        prob = one
        for f in flips:
            prob = prob * (p if f else (one - p))
        sent = "000"
        received = "".join(str(int(c) ^ f) for c, f in zip(sent, flips))
        if rep.decode[received] != rep.decode[sent]:
            total = total + prob
    return total


def parity_identification() -> dict:
    """Two bits split as (first bit, parity); parity survives flip-both errors."""
    out = {}
    for w in ("00", "01", "10", "11"):
        f = w[0]
        par = str(int(w[0]) ^ int(w[1]))
        out[w] = (f, par)
    return out


# --- quantum constructions ---------------------------------------------------


def repetition_quantum() -> SubsystemIdentification:
    """Three qubits as (two syndrome qubits) (x) (one logical qubit).

    Basis states map exactly as in the classical table, so single bit flips
    act on the syndrome factor alone and majority decoding is reading out the
    logical factor.
    """
    rep = repetition_classical()
    w = np.zeros((8, 8), dtype=complex)
    for word, (syn, log) in rep.identification.items():
        phys = int(word, 2)
        col = int(syn, 2) * 2 + int(log)
        w[phys, col] = 1.0
    return SubsystemIdentification(LinearOperator((4, 2), (2, 2, 2), w),
                                   syndrome_labels=("00", "01", "10", "11"))


def cyclic7() -> SubsystemIdentification:
    """Seven cyclic levels as (shift syndrome -1/0/+1) (x) (one logical bit).

    Only levels 0..5 are identified; level 6 is the detection state, so the
    identification is partial and leakage onto |6> reads as "fail".
    """
    w = np.zeros((7, 6), dtype=complex)
    for k in range(6):
        w[k, (k % 3) * 2 + k // 3] = 1.0
    return SubsystemIdentification(LinearOperator((3, 2), (7,), w), syndrome_base=1,
                                   syndrome_labels=("-1", "0", "1"))


def trivial_two_qubit() -> SubsystemIdentification:
    """Two qubits with qubit 1 as syndrome and qubit 2 as logical, W = identity."""
    return SubsystemIdentification(LinearOperator((2, 2), (2, 2), np.eye(4, dtype=complex)),
                                   syndrome_labels=("0", "1"))


def three_spin_noiseless() -> SubsystemIdentification:
    """The spin-1/2 pair of the three-spin decomposition, written explicitly.

    The syndrome factor is the collective spin-1/2 label (up/down along z)
    and the logical factor is untouched by every collective rotation.
    Amplitude pattern: equal weights 1/sqrt(3) with third-root-of-unity
    phases on the weight-one (or weight-two) basis states.
    """
    omega = np.exp(2j * np.pi / 3.0)
    s3 = 1.0 / math.sqrt(3.0)
    w = np.zeros((8, 4), dtype=complex)
    # columns ordered (up,0), (up,1), (down,0), (down,1); bit 0 = first spin
    w[4, 0], w[2, 0], w[1, 0] = s3, s3 * omega.conjugate(), s3 * omega
    w[4, 1], w[2, 1], w[1, 1] = s3, s3 * omega, s3 * omega.conjugate()
    w[3, 2], w[5, 2], w[6, 2] = -s3, -s3 * omega.conjugate(), -s3 * omega
    w[3, 3], w[5, 3], w[6, 3] = -s3, -s3 * omega, -s3 * omega.conjugate()
    return SubsystemIdentification(LinearOperator((2, 2), (2, 2, 2), w),
                                   syndrome_labels=("up", "down"))


FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def stabilizer_codespace(stab: StabilizerGeneratorSet) -> CodeSubspace:
    """Joint +1 eigenspace of the generators, P the product of the (1+A)/2,
    from its k = 2^(n-rank) pivot columns; no d x d array is formed.

    diag(P) needs only the Z-type group elements, the products of generators
    whose X parts cancel, which the set reads off its echelon (`z_type`):
    P_jj is a power of two where each of their signs is +1, else 0, and its
    sum is the trace.  Each pivot is the first j of largest residual diagonal
    P_jj - sum_i |b_i[j]|^2; P e_j comes from c <- (c + A c)/2, each A c a
    signed row gather, then loses the earlier b_i in order and is normalized.
    The (src, coef) of every generator and Z-type element come from one
    batched _index_maps call.  P's entries are exact dyadic numbers, so this
    is the pivoted Gram-Schmidt basis of P's columns bit for bit.  A rank
    mismatch raises; the set itself refuses inconsistent generators.
    """
    n = stab.n
    _check_dims((2,) * n, f"{n}-qubit codespace")
    d = 2 ** n
    r = len(stab.generators)
    x, z, k = np.array([(w.x_bits, w.z_bits, w.phase_k)
                        for w in stab.generators + stab.z_type]).T
    src, coef = _index_maps(n, x, z, k)
    keep = (coef[r:].real > 0).all(axis=0)
    diag = keep * 2.0 ** (len(stab.z_type) - r)
    expected = 2 ** (n - stab.rank())
    basis = []
    for _ in range(expected):
        j = int(np.argmax(diag))
        c = np.zeros(d, dtype=complex)
        c[j] = 1.0
        for s, cf in zip(src[:r], coef[:r]):
            c += np.take(c, s) * cf
            c /= 2.0
        for b in basis:
            c -= b * (b.conj() @ c)
        norm = np.linalg.norm(c)
        if norm <= 1e-9:
            raise ValueError("projector rank fell short of expected dimension")
        basis.append(c / norm)
        diag -= np.abs(basis[-1]) ** 2
    if diag.sum() > 1e-7:
        raise ValueError("projector rank exceeds expected dimension")
    return CodeSubspace(LinearOperator((expected,), (2,) * n, np.column_stack(basis)))


def five_qubit() -> tuple[StabilizerGeneratorSet, CodeSubspace]:
    """The five-qubit code: four cyclic XZZXI-type generators, 2-dim codespace."""
    stab = StabilizerGeneratorSet.from_strings(list(FIVE_QUBIT_GENERATORS))
    return stab, stabilizer_codespace(stab)


# --- code definitions for the command line -----------------------------------


@dataclass(frozen=True, eq=False)
class CodeDefinition:
    """A code as its source gives it: stabilizer generators, an
    identification or an explicit basis (columns), or more than one of them."""

    name: str
    stabilizers: StabilizerGeneratorSet | None = None
    identification: SubsystemIdentification | None = None
    basis: LinearOperator | None = None

    @functools.cached_property
    def subspace(self) -> CodeSubspace:
        """The codespace, built once on first read: from the basis, else the
        identification's own code, else the generators' joint +1 eigenspace."""
        if self.basis is not None:
            return CodeSubspace(self.basis)
        if self.identification is not None:
            return self.identification.code_subspace
        return stabilizer_codespace(self.stabilizers)


def _infer_dims(length: int) -> tuple[int, ...]:
    k = length.bit_length() - 1
    if 2 ** k == length:
        return (2,) * k
    return (length,)


def _code_sections(text: str) -> tuple[str, list[str]]:
    """Split a code file into its kind ("stabilizer" or "basis") and body lines.

    '#' starts a comment.  A leading 'stabilizer:' or 'basis:' line names the
    kind; without one the lines are stabilizer generators.
    """
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    lines = [l for l in lines if l]
    if not lines:
        raise ValueError("empty code definition")
    head = lines[0].lower()
    if head in ("stabilizer:", "basis:"):
        return head[:-1], lines[1:]
    if head.endswith(":"):
        raise ValueError(f"unknown section {lines[0]!r}; expected 'stabilizer:' or 'basis:'")
    return "stabilizer", lines


def parse_code_text(text: str, name: str = "inline") -> CodeDefinition:
    """Parse a code definition: Pauli words one per line, optionally under a
    'stabilizer:' header, or 'basis:' plus one JSON amplitude array (pairs
    [re, im]) per line.  The codespace is built on first read of `subspace`."""
    kind, body = _code_sections(text)
    if kind == "stabilizer":
        return CodeDefinition(name, stabilizers=StabilizerGeneratorSet.from_strings(body))
    if not body:
        raise ValueError("'basis:' block has no vectors")
    vecs = []
    for i, line in enumerate(body, 1):
        try:
            vec = from_json_array(json.loads(line))
            if vec.ndim != 1 or len(vec) < 2 or (vecs and len(vec) != len(vecs[0])):
                raise ValueError("expected one list of at least two [re, im] pairs "
                                 "per vector, all of the same length")
            if np.abs(vec).max() > 1.0 + ATOL_ALGEBRA:
                raise ValueError("an amplitude of a unit vector has modulus at most 1")
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"basis vector {i} ({line[:40]!r}): {exc}") from None
        vecs.append(vec)
    return CodeDefinition(name, basis=LinearOperator(
        (len(vecs),), _infer_dims(len(vecs[0])), np.column_stack(vecs)))


def builtin_code(name: str) -> CodeDefinition:
    """Named codes usable from the command line."""
    if name == "repetition3":
        stab = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
        return CodeDefinition(name, stab, repetition_quantum())
    if name == "fivequbit":
        return CodeDefinition(name, StabilizerGeneratorSet.from_strings(
            list(FIVE_QUBIT_GENERATORS)))
    named = {"cyclic7": cyclic7, "threespin": three_spin_noiseless, "trivial2": trivial_two_qubit}
    if name in named:
        return CodeDefinition(name, identification=named[name]())
    raise ValueError(f"unknown code {name!r}")
