"""Dense complex linear algebra for small multi-subsystem Hilbert spaces.

Everything here is plain numpy on explicitly-shaped dense arrays.  States and
operators carry their subsystem dimension tuples so that tensor bookkeeping
(partial traces, embeddings) stays honest.  Values are treated as
immutable: operations return new objects and the backing arrays are marked
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance policy, shared package-wide:
#   ATOL_ALGEBRA  - algebraic identities: unitarity, orthonormality, traces
#   ATOL_EIG      - anything downstream of an eigensolver or decoder synthesis
#   ATOL_REPORTED - comparisons against values quoted to four decimal places
ATOL_ALGEBRA = 1e-9
ATOL_EIG = 1e-8
ATOL_REPORTED = 1e-4

# Dense-only backend: refuse tensor products past this total dimension.
MAX_TOTAL_DIM = 2**10


def _check_dims(dims: tuple[int, ...]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) > MAX_TOTAL_DIM:
        raise ValueError(
            f"total dimension {math.prod(dims)} exceeds cap {MAX_TOTAL_DIM}"
        )
    return dims


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a tensor product of finite-dimensional factors."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != math.prod(dims):
            raise ValueError(
                f"{amps.size} amplitudes do not fill dims {dims}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < ATOL_ALGEBRA:
            raise ValueError("cannot normalize a (near-)zero vector")
        return StateVector(self.dims, self.amplitudes / n)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        return DensityOperator(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


def basis_state(dims: tuple[int, ...], index: int) -> StateVector:
    """Computational basis vector |index> on the given factor dimensions."""
    d = math.prod(dims)
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return StateVector(dims, amps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state: Hermitian, unit trace.  Positivity is checked on demand."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        m = _frozen(np.asarray(self.matrix))
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        if np.abs(m - m.conj().T).max() > ATOL_ALGEBRA:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > ATOL_ALGEBRA:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check_positive(self, atol: float = ATOL_ALGEBRA) -> None:
        lo = self.min_eigenvalue()
        if lo < -atol:
            raise ValueError(f"density matrix has eigenvalue {lo} < -{atol}")


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Linear map between two tensor-product spaces, stored dense."""

    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        din = _check_dims(self.dims_in)
        dout = _check_dims(self.dims_out)
        m = _frozen(np.asarray(self.matrix))
        if m.shape != (math.prod(dout), math.prod(din)):
            raise ValueError(
                f"matrix shape {m.shape} does not match dims {dout}x{din}"
            )
        object.__setattr__(self, "dims_in", din)
        object.__setattr__(self, "dims_out", dout)
        object.__setattr__(self, "matrix", m)

    def dag(self) -> "LinearOperator":
        return LinearOperator(self.dims_out, self.dims_in, self.matrix.conj().T)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if other.dims_out != self.dims_in:
            raise ValueError("operator dimensions do not compose")
        return LinearOperator(other.dims_in, self.dims_out, self.matrix @ other.matrix)

    def apply(self, state: StateVector) -> StateVector:
        if state.dims != self.dims_in:
            raise ValueError(f"state dims {state.dims} != operator input {self.dims_in}")
        return StateVector(self.dims_out, self.matrix @ state.amplitudes)

    def conjugate(self, rho: DensityOperator) -> DensityOperator:
        """A rho A^dagger, for square trace-preserving conjugations."""
        if rho.dims != self.dims_in:
            raise ValueError("density dims do not match operator input")
        return DensityOperator(self.dims_out, self.matrix @ rho.matrix @ self.matrix.conj().T)

    def is_unitary(self, atol: float = ATOL_ALGEBRA) -> bool:
        if self.matrix.shape[0] != self.matrix.shape[1]:
            return False
        d = self.matrix.shape[0]
        return bool(
            np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max() <= atol
        )

    def is_isometry(self, atol: float = ATOL_ALGEBRA) -> bool:
        d = self.matrix.shape[1]
        return bool(
            np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max() <= atol
        )


def identity(dims: tuple[int, ...]) -> LinearOperator:
    d = math.prod(dims)
    return LinearOperator(dims, dims, np.eye(d, dtype=complex))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(u: str) -> LinearOperator:
    """Single-qubit Pauli operator, u in {I, X, Y, Z}, exact entries."""
    if u not in _PAULI:
        raise ValueError(f"unknown Pauli label {u!r}")
    return LinearOperator((2,), (2,), _PAULI[u])


def tensor(*factors):
    """Kronecker product of states or operators; first factor most significant."""
    if not factors:
        raise ValueError("tensor of nothing")
    if all(isinstance(f, StateVector) for f in factors):
        amps = factors[0].amplitudes
        dims = factors[0].dims
        for f in factors[1:]:
            amps = np.kron(amps, f.amplitudes)
            dims = dims + f.dims
        return StateVector(dims, amps)
    if all(isinstance(f, DensityOperator) for f in factors):
        m = factors[0].matrix
        dims = factors[0].dims
        for f in factors[1:]:
            m = np.kron(m, f.matrix)
            dims = dims + f.dims
        return DensityOperator(dims, m)
    if all(isinstance(f, LinearOperator) for f in factors):
        m = factors[0].matrix
        din, dout = factors[0].dims_in, factors[0].dims_out
        for f in factors[1:]:
            m = np.kron(m, f.matrix)
            din = din + f.dims_in
            dout = dout + f.dims_out
        return LinearOperator(din, dout, m)
    raise TypeError("tensor factors must all be states, densities, or operators")


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every factor not listed in `keep` (indices into rho.dims)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")
    t = rho.matrix.reshape(rho.dims + rho.dims)
    traced = 0
    for i in range(n):
        if i in keep:
            continue
        ax = i - traced
        nleft = n - traced
        t = np.trace(t, axis1=ax, axis2=ax + nleft)
        traced += 1
    kept_dims = tuple(rho.dims[k] for k in keep)
    d = math.prod(kept_dims)
    return DensityOperator(kept_dims, t.reshape(d, d))


def herm_eig(op: LinearOperator | np.ndarray):
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""
    m = op.matrix if isinstance(op, LinearOperator) else np.asarray(op, dtype=complex)
    if np.abs(m - m.conj().T).max() > ATOL_ALGEBRA:
        raise ValueError("operator is not Hermitian")
    return np.linalg.eigh(m)


def exp_hermitian(op: LinearOperator, t: float = 1.0) -> LinearOperator:
    """exp(-i H t) for Hermitian H; sign convention is the physics one."""
    w, v = herm_eig(op)
    m = (v * np.exp(-1j * w * t)) @ v.conj().T
    return LinearOperator(op.dims_in, op.dims_out, m)


def to_json_array(a: np.ndarray) -> list:
    """Nested lists with [re, im] leaves, for the report JSON format."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [to_json_array(x) for x in a]


def from_json_array(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("expected [re, im] leaves")
    return a[..., 0] + 1j * a[..., 1]
