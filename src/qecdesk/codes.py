"""Code constructions: subspaces, subsystem identifications, and classical tables.

A subsystem identification is an isometry W from syndrome (x) logical onto a
subspace of the physical space.  Encoding places the syndrome in a fixed base
state; decoding reads both factors back out.  Identifications may be partial:
physical support outside the range of W is detection ("fail") mass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .gf2_symplectic import StabilizerGeneratorSet
from .hilbert import (
    ATOL_ALGEBRA,
    MAX_TOTAL_DIM,
    DensityOperator,
    LinearOperator,
    StateVector,
)


class LeakageDetected(Exception):
    """State mass found outside the range of a partial identification."""

    def __init__(self, mass: float):
        super().__init__(f"leakage mass {mass} outside the identified subspace")
        self.mass = mass


@dataclass(frozen=True, eq=False)
class CodeSubspace:
    """A subspace given by an orthonormal basis of physical states."""

    physical_dims: tuple[int, ...]
    basis: tuple[StateVector, ...]

    def __post_init__(self):
        dims = tuple(self.physical_dims)
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("code subspace needs at least one basis vector")
        v = np.column_stack([b.amplitudes for b in basis])
        if any(b.dims != dims for b in basis):
            raise ValueError("basis vectors disagree on physical dims")
        if np.abs(v.conj().T @ v - np.eye(len(basis))).max() > ATOL_ALGEBRA:
            raise ValueError("code basis is not orthonormal")
        object.__setattr__(self, "physical_dims", dims)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def physical_dim(self) -> int:
        return math.prod(self.physical_dims)

    def basis_matrix(self) -> np.ndarray:
        return np.column_stack([b.amplitudes for b in self.basis])


@dataclass(frozen=True, eq=False)
class SubsystemIdentification:
    """Isometry W : |syndrome> (x) |logical> -> physical, column-major in syndrome."""

    physical_dims: tuple[int, ...]
    syndrome_dim: int
    logical_dim: int
    isometry: LinearOperator
    syndrome_base: int = 0
    syndrome_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = self.isometry
        if w.dims_in != (self.syndrome_dim, self.logical_dim):
            raise ValueError("isometry input dims must be (syndrome, logical)")
        if w.dims_out != tuple(self.physical_dims):
            raise ValueError("isometry output dims must match physical dims")
        if not w.is_isometry():
            raise ValueError("W is not an isometry")
        if not 0 <= self.syndrome_base < self.syndrome_dim:
            raise ValueError("syndrome_base out of range")
        if self.syndrome_labels is not None and len(self.syndrome_labels) != self.syndrome_dim:
            raise ValueError("need one label per syndrome value")

    @property
    def physical_dim(self) -> int:
        return math.prod(self.physical_dims)

    def is_complete(self) -> bool:
        return self.syndrome_dim * self.logical_dim == self.physical_dim

    def syndrome_label(self, s: int) -> str:
        if self.syndrome_labels is not None:
            return self.syndrome_labels[s]
        return str(s)

    def encode(self, logical: StateVector) -> StateVector:
        """Embed a logical state with the syndrome in its base value."""
        if logical.dims != (self.logical_dim,):
            raise ValueError(f"logical state must have dim {self.logical_dim}")
        col = np.zeros(self.syndrome_dim * self.logical_dim, dtype=complex)
        col[
            self.syndrome_base * self.logical_dim:
            (self.syndrome_base + 1) * self.logical_dim
        ] = logical.amplitudes
        return StateVector(self.physical_dims, self.isometry.matrix @ col)

    def subsystem_matrix(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """(W^dag rho W, leakage mass); the first factor is syndrome-major."""
        w = self.isometry.matrix
        sigma = w.conj().T @ rho @ w
        leak = float(np.trace(rho).real - np.trace(sigma).real)
        return sigma, max(leak, 0.0)

    def logical_matrix(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """Trace the syndrome factor out of W^dag rho W."""
        sigma, leak = self.subsystem_matrix(rho)
        t = sigma.reshape(self.syndrome_dim, self.logical_dim,
                          self.syndrome_dim, self.logical_dim)
        return np.einsum("sasb->ab", t), leak

    def code_subspace(self) -> CodeSubspace:
        w = self.isometry.matrix
        basis = []
        for l in range(self.logical_dim):
            col = w[:, self.syndrome_base * self.logical_dim + l]
            basis.append(StateVector(self.physical_dims, col))
        return CodeSubspace(self.physical_dims, tuple(basis))


def syndrome_reset(ident: SubsystemIdentification, rho: DensityOperator,
                   atol: float = ATOL_ALGEBRA) -> DensityOperator:
    """Discard the syndrome and re-prepare it in the base value.

    The logical factor is untouched.  Raises LeakageDetected if the state has
    weight outside the identified subspace.
    """
    if rho.dims != tuple(ident.physical_dims):
        raise ValueError("state dims do not match the identification")
    rho_l, leak = ident.logical_matrix(rho.matrix)
    if leak > atol:
        raise LeakageDetected(leak)
    b, dl = ident.syndrome_base, ident.logical_dim
    fresh = np.zeros((ident.syndrome_dim * dl,) * 2, dtype=complex)
    fresh[b * dl:(b + 1) * dl, b * dl:(b + 1) * dl] = rho_l
    w = ident.isometry.matrix
    return DensityOperator(ident.physical_dims, w @ fresh @ w.conj().T)


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
    iso = LinearOperator((4, 2), (2, 2, 2), w)
    return SubsystemIdentification(
        (2, 2, 2), 4, 2, iso, syndrome_base=0,
        syndrome_labels=("00", "01", "10", "11"),
    )


def cyclic7() -> SubsystemIdentification:
    """Seven cyclic levels as (shift syndrome -1/0/+1) (x) (one logical bit).

    Only levels 0..5 are identified; level 6 is the detection state, so the
    identification is partial and leakage onto |6> reads as "fail".
    """
    w = np.zeros((7, 6), dtype=complex)
    for k in range(6):
        w[k, (k % 3) * 2 + k // 3] = 1.0
    iso = LinearOperator((3, 2), (7,), w)
    return SubsystemIdentification(
        (7,), 3, 2, iso, syndrome_base=1, syndrome_labels=("-1", "0", "1")
    )


def trivial_two_qubit() -> SubsystemIdentification:
    """Two qubits with qubit 1 as syndrome and qubit 2 as logical, W = identity."""
    iso = LinearOperator((2, 2), (2, 2), np.eye(4, dtype=complex))
    return SubsystemIdentification((2, 2), 2, 2, iso, syndrome_base=0,
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
    iso = LinearOperator((2, 2), (2, 2, 2), w)
    return SubsystemIdentification((2, 2, 2), 2, 2, iso, syndrome_base=0,
                                   syndrome_labels=("up", "down"))


FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def stabilizer_codespace(stab: StabilizerGeneratorSet) -> CodeSubspace:
    """Joint +1 eigenspace of the generators, via the product of (1+A)/2.

    The basis comes from pivoted Gram-Schmidt on the projector columns, so it
    is deterministic.  Inconsistent generators (projector of trace zero) and
    rank mismatches raise.
    """
    n = stab.n
    d = 2 ** n
    if d > MAX_TOTAL_DIM:
        raise ValueError(f"{n}-qubit codespace: dimension {d} exceeds cap {MAX_TOTAL_DIM}")
    p = np.eye(d, dtype=complex)
    for g in stab.generators:
        p = p @ (np.eye(d, dtype=complex) + g.dense()) / 2.0
    expected = 2 ** (n - stab.rank())
    tr = float(np.trace(p).real)
    if tr < 0.5:
        raise ValueError("generators are inconsistent: projector has trace 0")
    if abs(tr - expected) > 1e-6:
        raise ValueError(f"projector trace {tr} != expected dimension {expected}")
    res = p.copy()
    basis = []
    for _ in range(expected):
        norms = np.linalg.norm(res, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= 1e-9:
            raise ValueError("projector rank fell short of expected dimension")
        v = res[:, j] / norms[j]
        basis.append(StateVector((2,) * n, v))
        res -= np.outer(v, v.conj() @ res)
    if np.linalg.norm(res) > 1e-7:
        raise ValueError("projector rank exceeds expected dimension")
    return CodeSubspace((2,) * n, tuple(basis))


def five_qubit() -> tuple[StabilizerGeneratorSet, CodeSubspace]:
    """The five-qubit code: four cyclic XZZXI-type generators, 2-dim codespace."""
    stab = StabilizerGeneratorSet.from_strings(list(FIVE_QUBIT_GENERATORS))
    return stab, stabilizer_codespace(stab)


# --- code definitions for the command line -----------------------------------


@dataclass(frozen=True, eq=False)
class CodeDefinition:
    name: str
    subspace: CodeSubspace
    stabilizers: StabilizerGeneratorSet | None = None
    identification: SubsystemIdentification | None = None


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


def parse_stabilizer_text(text: str) -> StabilizerGeneratorSet:
    """The generators of a stabilizer code file, without building its codespace."""
    kind, body = _code_sections(text)
    if kind != "stabilizer":
        raise ValueError("code definition gives a basis, not stabilizer generators")
    return StabilizerGeneratorSet.from_strings(body)


def parse_code_text(text: str, name: str = "inline") -> CodeDefinition:
    """Parse a code definition: Pauli words one per line, optionally under a
    'stabilizer:' header, or 'basis:' plus one JSON amplitude array (pairs
    [re, im]) per line."""
    kind, body = _code_sections(text)
    if kind == "stabilizer":
        stab = StabilizerGeneratorSet.from_strings(body)
        return CodeDefinition(name, stabilizer_codespace(stab), stabilizers=stab)
    if not body:
        raise ValueError("'basis:' block has no vectors")
    vecs = []
    for line in body:
        amps = np.asarray(json.loads(line), dtype=float)
        vecs.append(amps[:, 0] + 1j * amps[:, 1])
    dims = _infer_dims(len(vecs[0]))
    basis = tuple(StateVector(dims, v) for v in vecs)
    return CodeDefinition(name, CodeSubspace(dims, basis))


def builtin_code(name: str) -> CodeDefinition:
    """Named codes usable from the command line."""
    if name == "repetition3":
        ident = repetition_quantum()
        stab = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
        return CodeDefinition(name, ident.code_subspace(), stab, ident)
    if name == "cyclic7":
        ident = cyclic7()
        return CodeDefinition(name, ident.code_subspace(), None, ident)
    if name == "threespin":
        ident = three_spin_noiseless()
        return CodeDefinition(name, ident.code_subspace(), None, ident)
    if name == "fivequbit":
        stab, space = five_qubit()
        return CodeDefinition(name, space, stab, None)
    if name == "trivial2":
        ident = trivial_two_qubit()
        return CodeDefinition(name, ident.code_subspace(), None, ident)
    raise ValueError(f"unknown code {name!r}")
