"""Dense complex linear algebra for small multi-subsystem Hilbert spaces.

Everything here is plain numpy on explicitly-shaped dense arrays.  States and
operators carry their subsystem dimension tuples so that tensor bookkeeping
stays honest.  Values are treated as immutable: operations return new
objects and the backing arrays are marked read-only.
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

# Caps of the dense backend, each checked by admit before anything is built:
MAX_TOTAL_DIM = 2**10  # total dimension of one tensor-product space
MAX_KRAUS_OPS = 4096  # operators of one channel
# bytes of one product channel, dense error set or Knill-Laflamme working set
# (the two caps above alone admit 1,024 operators of 1,024 x 1,024: 16 GiB)
MAX_KRAUS_BYTES = 2**30
# bits of one exact concatenation level (p = 1e-3, C = 100: 18 levels, 2.5 Mbit)
MAX_CONCAT_BITS = 2**22
# bytes of one stacked operator block or one chunk of a batched temporary:
# freed arrays of several MiB make glibc raise its mmap threshold and keep the
# heap, which then stays resident long after a large product is gone
_CHUNK_BYTES = 2**20
_CAPS = {"dim": ("MAX_TOTAL_DIM", "dimension"), "ops": ("MAX_KRAUS_OPS", "operator count"),
         "nbytes": ("MAX_KRAUS_BYTES", "byte count"), "bits": ("MAX_CONCAT_BITS", "bit count")}


def admit(what: str, **need) -> None:
    """Refuse `what` with a ValueError if an amount it needs passes its cap.

    Each keyword (dim, ops, nbytes, bits) gives an int or a power (base, exp).
    base**exp >= 2**exp, so a power whose exponent alone passes the cap is
    refused unformed and printed as base**exp; any other amount is compared
    as a number.  The message names what, the amount and NAME=value of the cap.
    """
    for kind, amount in need.items():
        name, unit = _CAPS[kind]
        cap = globals()[name]
        if isinstance(amount, tuple):
            base, exp = amount
            if base > 1 and exp > cap.bit_length():
                raise ValueError(f"{what}: {unit} {base}**{exp} exceeds cap {name}={cap}")
            amount = base ** exp
        if amount > cap:
            raise ValueError(f"{what}: {unit} {amount} exceeds cap {name}={cap}")


def _check_dims(dims: tuple[int, ...], what: str = "tensor product") -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    admit(what, dim=math.prod(dims))
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
        # written so that a NaN matrix fails too
        if not np.abs(m - m.conj().T).max() <= ATOL_ALGEBRA:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(m) - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        """NaN for a matrix with a non-finite entry, where eigvalsh can return
        finite values."""
        if not np.isfinite(self.matrix).all():
            return math.nan
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check_positive(self, atol: float = ATOL_ALGEBRA) -> None:
        lo = self.min_eigenvalue()
        if not -lo <= atol:
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

    def is_unitary(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1] and self.is_isometry()

    def is_isometry(self) -> bool:
        """A^dag A = I to ATOL_ALGEBRA."""
        d = self.matrix.shape[1]
        return bool(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max() <= ATOL_ALGEBRA)


def herm_eig(m: np.ndarray):
    """Eigendecomposition, eigenvalues ascending, of each Hermitian matrix of
    an (..., d, d) stack; one bad matrix refuses them all."""
    m = np.asarray(m, dtype=complex)
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) <= ATOL_ALGEBRA:
        raise ValueError("operator is not Hermitian")
    return np.linalg.eigh(m)


def exp_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for each Hermitian H of an (..., d, d) stack, physics sign
    convention."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def to_json_array(a: np.ndarray) -> list:
    """Nested lists with [re, im] leaves, for the report JSON format."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def vector_from_json(data) -> np.ndarray:
    """A complex vector from parsed JSON: a list whose entries are all finite
    numbers (real amplitudes) or all finite [re, im] number pairs.

    Anything else (ragged lists, strings, objects, true or false, integers
    past float range, NaN or Infinity) raises ValueError.
    """
    bad = "expected a list of numbers or of [re, im] number pairs"
    if not isinstance(data, list):
        raise ValueError(bad)
    # numpy reads true and false among numbers as 1 and 0
    if any(isinstance(y, bool) for x in data for y in (x if isinstance(x, list) else [x])):
        raise ValueError(f"{bad}, not true or false")
    try:
        a = np.asarray(data)
    except ValueError:  # ragged nesting
        raise ValueError(bad) from None
    if a.dtype.kind not in "iuf" or a.ndim > 2 or a.ndim == 2 and a.shape[1] != 2:
        raise ValueError(bad)
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError("amplitudes must be finite")
    return a.astype(complex) if a.ndim == 1 else a[:, 0] + 1j * a[:, 1]
