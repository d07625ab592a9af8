"""Detectability and correctability analysis, classical and quantum.

The quantum tests run on the code basis C (projector P = C C^dag): E is
detectable exactly when C^dag E C = lambda I, i.e. PEP = lambda P, and {E_i}
is correctable exactly when C^dag E_i^dag E_j C = lambda_ij I for every pair
(Knill-Laflamme).  One Gram matrix of the blocks E_i C decides both, and its
lambda matrix factors into a syndrome decomposition and a recovery channel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .codes import ClassicalCode, CodeSubspace, SubsystemIdentification
from .gf2_symplectic import PauliProduct, _first_weight, _pauli_words
from .hilbert import (
    ATOL_ALGEBRA,
    ATOL_EIG,
    LinearOperator,
    to_json_array,
)

# --- classical ----------------------------------------------------------------


def classical_flip_map(n: int, positions) -> dict:
    """Total function on n-bit words flipping the given 1-based positions."""
    out = {}
    for bits in itertools.product("01", repeat=n):
        w = "".join(bits)
        flipped = [
            str(int(c) ^ 1) if (i + 1) in positions else c for i, c in enumerate(w)
        ]
        out[w] = "".join(flipped)
    return out


def classical_shift_map(alphabet: int, k: int) -> dict:
    """Cyclic shift by k on single-symbol words over {0..alphabet-1}."""
    return {str(x): str((x + k) % alphabet) for x in range(alphabet)}


def classical_identity_map(states) -> dict:
    return {s: s for s in states}


def invert_map(emap: dict) -> dict:
    inv = {}
    for x, y in emap.items():
        if y in inv:
            raise ValueError("error map is not invertible")
        inv[y] = x
    if set(inv) != set(emap):
        raise ValueError("error map is not a bijection on the state set")
    return inv


def compose_maps(outer: dict, inner: dict) -> dict:
    return {x: outer[inner[x]] for x in inner}


def detectable_classical(code: ClassicalCode, emap: dict) -> bool:
    """An error is detectable when it never maps one code word onto another."""
    for x in code.words:
        for y in code.words:
            if x != y and emap[x] == y:
                return False
    return True


@dataclass(frozen=True)
class ClassicalCorrection:
    correctable: bool
    decode: dict | None
    syndrome: dict | None


def correctable_classical(code: ClassicalCode, errs: list[dict]) -> ClassicalCorrection:
    """A set of errors is correctable when their images of distinct code words
    never collide; the decoder then reads the unique preimage."""
    decode = {}
    syndrome = {}
    for i, emap in enumerate(errs):
        for x in code.words:
            z = emap[x]
            if z in decode and decode[z] != x:
                return ClassicalCorrection(False, None, None)
            if z not in decode:
                decode[z] = x
                syndrome[z] = i
    return ClassicalCorrection(True, decode, syndrome)


# --- quantum ------------------------------------------------------------------


def _as_matrix(e) -> np.ndarray:
    if isinstance(e, LinearOperator):
        return e.matrix
    if isinstance(e, PauliProduct):
        return e.dense()
    return np.asarray(e, dtype=complex)


@dataclass(frozen=True, eq=False)
class DetectVerdict:
    detectable: bool
    lam: complex
    residual: float

    def to_json(self) -> dict:
        return {
            "detectable": self.detectable,
            "lambda": [float(self.lam.real), float(self.lam.imag)],
        }


@dataclass(frozen=True, eq=False)
class CorrectVerdict:
    correctable: bool
    labels: tuple[str, ...]
    lambda_matrix: np.ndarray
    rank: int
    residual: float
    blocks: np.ndarray  # [E_1 C | ... | E_m C] on the code basis C

    def to_json(self) -> dict:
        return {
            "correctable": self.correctable,
            "lambda_matrix": to_json_array(self.lambda_matrix),
            "rank": self.rank,
        }


def _kl_kernel(code: CodeSubspace, errors, against_code: bool = False):
    """Knill-Laflamme on the code basis C, a d x k isometry with P = C C^dag.

    G = B^dag B for B = [E_1 C | ... | E_m C], read as (m, k, m, k), holds
    G_ij = C^dag E_i^dag E_j C, and P E_i^dag E_j P = lambda_ij P exactly
    when G_ij = lambda_ij I_k.  With against_code the bra side is C alone
    (G_j = C^dag E_j C, detectability).  Returns (labels, B, lambda, residual)
    with lambda_ij = tr(G_ij)/k and residual = max |G_ij - lambda_ij I_k|.
    """
    labels, mats = [], []
    for item in errors:
        label, e = item if isinstance(item, tuple) else (item, item)
        labels.append(str(label))
        mats.append(_as_matrix(e))
        if mats[-1].shape != (code.physical_dim,) * 2:
            raise ValueError(f"error {labels[-1]} has shape {mats[-1].shape}, "
                             f"but the code needs {(code.physical_dim,) * 2}")
    if not mats:
        raise ValueError("empty error set")
    k = code.dim
    c = code.basis_matrix()
    blocks = np.hstack([e @ c for e in mats])
    bra = c if against_code else blocks
    g = (bra.conj().T @ blocks).reshape(bra.shape[1] // k, k, len(mats), k)
    lam = np.trace(g, axis1=1, axis2=3) / k
    residual = float(np.abs(g - lam[:, None, :, None] * np.eye(k)[:, None, :]).max())
    return tuple(labels), blocks, lam, residual


def detectable_quantum(code: CodeSubspace, error, atol: float = ATOL_ALGEBRA) -> DetectVerdict:
    """Check C^dag E C = lambda I on the code basis C, i.e. PEP = lambda P;
    the residual is max |C^dag E C - lambda I|."""
    label = str(error) if isinstance(error, PauliProduct) else "E"
    _, _, lam, residual = _kl_kernel(code, [(label, error)], against_code=True)
    return DetectVerdict(residual <= atol, complex(lam[0, 0]), residual)


def correctable_quantum(code: CodeSubspace, errors,
                        atol: float = ATOL_ALGEBRA) -> CorrectVerdict:
    """Check C^dag E_i^dag E_j C = lambda_ij I for every pair, i.e.
    P E_i^dag E_j P = lambda_ij P, from one Gram matrix of the blocks E_i C;
    the residual is the worst max |C^dag E_i^dag E_j C - lambda_ij I|."""
    labels, blocks, lam, residual = _kl_kernel(code, errors)
    ok = residual <= atol
    evals = np.linalg.eigvalsh((lam + lam.conj().T) / 2.0)
    if ok and (np.abs(lam - lam.conj().T).max() > atol or evals[0] < -atol):
        raise RuntimeError("correctable Gram matrix failed Hermitian/PSD check")
    rank = int(np.sum(evals > 1e-9 * max(evals.max(), 1e-30)))
    return CorrectVerdict(ok, labels, lam, rank, residual, blocks)


def synthesize_decoder(code: CodeSubspace, errors) -> tuple[SubsystemIdentification, KrausChannel]:
    """Turn a correctable error set into a syndrome decomposition and recovery.

    Diagonalizing the Gram matrix Lambda = V D V^dag and rescaling by
    D^(-1/2) yields operators D_k whose images of the code are orthogonal
    syndrome blocks; W maps |k>|psi_m> to D_k applied to the m-th code vector.
    Recovery measures the block and maps it back onto the code.  Error
    directions with zero eigenvalue never occur on code states and are
    dropped.
    """
    verdict = correctable_quantum(code, errors)
    if not verdict.correctable:
        raise ValueError("error set is not correctable on this code")
    lam = (verdict.lambda_matrix + verdict.lambda_matrix.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(lam)
    keep = evals > 1e-9 * max(float(evals.max()), 1e-30)
    order = np.argsort(-evals[keep])
    evals_k = evals[keep][order]
    vecs_k = vecs[:, keep][:, order]
    # fix each eigenvector's phase (largest entry real and positive).  Only the
    # phases are pinned: inside a degenerate eigenspace the basis eigh picks,
    # and so each recovery branch, can turn under a rounding-level change in
    # Lambda, while the recovery channel as a whole stays the same.
    for c in range(vecs_k.shape[1]):
        idx = int(np.argmax(np.abs(vecs_k[:, c])))
        z = vecs_k[idx, c]
        if abs(z) > 0:
            vecs_k[:, c] *= z.conjugate() / abs(z)
    a = vecs_k / np.sqrt(evals_k)
    s, dl = a.shape[1], code.dim
    w = verdict.blocks @ np.kron(a, np.eye(dl))  # column k*dl + m is D_k C e_m
    if np.abs(w.conj().T @ w - np.eye(s * dl)).max() > ATOL_EIG:
        raise RuntimeError("synthesized syndrome blocks are not orthonormal")
    iso = LinearOperator((s, dl), code.physical_dims, w)
    ident = SubsystemIdentification(code.physical_dims, s, dl, iso, syndrome_base=0,
                                    syndrome_labels=tuple(str(k) for k in range(s)))
    cmat = code.basis_matrix()
    ops = [(str(k), cmat @ w[:, k * dl:(k + 1) * dl].conj().T) for k in range(s)]
    complement = np.eye(code.physical_dim, dtype=complex) - w @ w.conj().T
    bad: frozenset[str] = frozenset()
    if np.abs(complement).max() > ATOL_EIG:
        ops.append(("fail", complement))
        bad = frozenset({"fail"})
    recovery = KrausChannel(code.physical_dims, tuple(ops), bad)
    return ident, recovery


def min_distance_quantum(code: CodeSubspace, alphabet: str = "XYZ",
                         cap: int = 5) -> int:
    """Smallest weight of a Pauli word the code cannot detect.

    Dense search over words of increasing weight; raises SearchCapExceeded
    rather than guessing when the cap is passed.
    """
    if any(d != 2 for d in code.physical_dims):
        raise ValueError("distance search expects qubit factors")
    return _first_weight(
        len(code.physical_dims), alphabet, cap,
        lambda word: not detectable_quantum(code, word).detectable,
    )


def weight_le_errors(n: int, max_weight: int = 1) -> list[tuple[str, np.ndarray]]:
    """Identity plus every Pauli word of weight up to max_weight, labeled."""
    out = [("I", np.eye(2 ** n, dtype=complex))]
    for support, letters, word in _pauli_words(n, max_weight):
        label = "".join(f"{c}{j + 1}" for j, c in zip(support, letters))
        out.append((label, word.dense()))
    return out


def commutant(ops, dim: int, atol: float = ATOL_ALGEBRA) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of everything commuting with the given ops.

    Solves the stacked commutator equations by SVD and symmetrizes the
    resulting basis; requires the input set to have a dagger-closed commutant
    (true whenever the set itself is closed under dagger).
    """
    mats = [_as_matrix(o) for o in ops]
    if not mats:
        raise ValueError("empty operator list")
    eye = np.eye(dim)
    blocks = [np.kron(e, eye) - np.kron(eye, e.T) for e in mats]
    stacked = np.vstack(blocks)
    u, svals, vh = np.linalg.svd(stacked)
    smax = svals.max() if svals.size else 0.0
    null_rows = vh[svals <= max(atol * smax, atol)] if svals.size else vh
    extra = vh[len(svals):]
    null = np.vstack([null_rows, extra]) if extra.size else null_rows
    raw = [v.reshape(dim, dim) for v in null]
    candidates = []
    for m in raw:
        candidates.append((m + m.conj().T) / 2.0)
        candidates.append((m - m.conj().T) / 2.0j)
    basis: list[np.ndarray] = []
    for c in candidates:
        v = c.copy()
        for b in basis:
            v -= np.trace(b.conj().T @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-7:
            basis.append(v / nrm)
    if len(basis) != len(raw):
        raise ValueError("commutant is not dagger-closed; symmetrization changed its dimension")
    for b in basis:
        for e in mats:
            if np.abs(b @ e - e @ b).max() > 1e-7:
                raise ValueError("commutant is not dagger-closed; symmetrized element fails to commute")
    return basis


def in_span(basis: list[np.ndarray], m: np.ndarray, atol: float = 1e-8) -> bool:
    """Membership of m in the (complex) span of the given trace-orthonormal basis."""
    resid = m.astype(complex).copy()
    for b in basis:
        resid -= np.trace(b.conj().T @ resid) * b
    return bool(np.abs(resid).max() <= atol)


def permutation_operator(src_of: tuple[int, ...]) -> np.ndarray:
    """Unitary reshuffling qubit slots: new slot i holds old slot src_of[i].

    With this convention the conjugation U^dag sigma^(a) U moves a single-spin
    operator from slot a to the slot that receives it.
    """
    n = len(src_of)
    if sorted(src_of) != list(range(n)):
        raise ValueError(f"{src_of} is not a permutation")
    d = 2 ** n
    m = np.zeros((d, d), dtype=complex)
    for idx in range(d):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        out = [bits[src_of[i]] for i in range(n)]
        jdx = sum(b << (n - 1 - i) for i, b in enumerate(out))
        m[jdx, idx] = 1.0
    return m


def symmetric_projector(n: int = 3) -> np.ndarray:
    """Projector onto the permutation-symmetric subspace of n qubits."""
    perms = list(itertools.permutations(range(n)))
    total = sum(permutation_operator(p) for p in perms)
    return total / len(perms)


def build_noiseless_qubit() -> SubsystemIdentification:
    """Derive the collective-rotation-proof qubit on three spins from scratch.

    Project the cyclic permutation onto the complement of the symmetric
    subspace, take its e^(-i 2pi/3) eigenvector with 2J_z eigenvalue +1 as
    the seed state, and generate the other three logical states by the
    primed swap and 2J_x.  The seed phase is fixed by making its largest
    amplitude real and positive.
    """
    from .channels import collective_spin

    p32 = symmetric_projector(3)
    pi1 = permutation_operator((1, 2, 0))   # three-cycle
    pi2 = permutation_operator((0, 2, 1))   # swap of the last two spins
    comp = np.eye(8, dtype=complex) - p32

    evals, evecs = np.linalg.eigh(p32)
    if not (np.allclose(evals[:4], 0.0, atol=1e-9) and np.allclose(evals[4:], 1.0, atol=1e-9)):
        raise RuntimeError("symmetric projector does not have rank 4")
    b = evecs[:, :4]

    m = b.conj().T @ pi1 @ b
    w, v = np.linalg.eig(m)
    target = np.exp(-2j * np.pi / 3.0)
    sel = np.abs(w - target) < 1e-6
    if int(sel.sum()) != 2:
        raise RuntimeError("cyclic permutation eigenspace has unexpected dimension")
    c, _ = np.linalg.qr(v[:, sel])

    jz2 = 2.0 * collective_spin("Z").matrix
    jx2 = 2.0 * collective_spin("X").matrix
    sub = b @ c
    dz = sub.conj().T @ jz2 @ sub
    zw, zv = np.linalg.eigh((dz + dz.conj().T) / 2.0)
    up = np.abs(zw - 1.0) < 1e-6
    if int(up.sum()) != 1:
        raise RuntimeError("2J_z eigenvalue +1 is not simple in the selected space")
    seed = sub @ zv[:, up].reshape(-1)

    idx = int(np.argmax(np.abs(seed)))
    seed = seed * (seed[idx].conjugate() / abs(seed[idx]))
    seed = seed / np.linalg.norm(seed)

    def primed(mat, vec):
        out = comp @ (mat @ vec)
        return out / np.linalg.norm(out)

    cols = [
        seed,
        primed(pi2, seed),
        primed(jx2, seed),
        primed(pi2, comp @ (jx2 @ seed)),
    ]
    w_iso = np.column_stack(cols)
    iso = LinearOperator((2, 2), (2, 2, 2), w_iso)
    return SubsystemIdentification((2, 2, 2), 2, 2, iso, syndrome_base=0,
                                   syndrome_labels=("up", "down"))
