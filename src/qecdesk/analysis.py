"""Detectability and correctability analysis, classical and quantum.

The quantum tests run on the code basis C (projector P = C C^dag): E is
detectable exactly when C^dag E C = lambda I, i.e. PEP = lambda P, and {E_i}
is correctable exactly when C^dag E_i^dag E_j C = lambda_ij I for every pair
(Knill-Laflamme).  One Gram matrix of the blocks E_i C decides both, and its
lambda matrix factors into a syndrome decomposition, which is the decoder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .codes import ClassicalCode, CodeSubspace, SubsystemIdentification
from .gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    _apply_words,
    _index_maps,
    _masks,
    _word_arrays,
)
from .hilbert import (
    _CHUNK_BYTES,
    ATOL_ALGEBRA,
    ATOL_EIG,
    LinearOperator,
    admit,
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


def detectable_classical(code: ClassicalCode, emap: dict) -> bool:
    """An error is detectable when it never maps one code word onto another."""
    for x in code.words:
        for y in code.words:
            if x != y and emap[x] == y:
                return False
    return True


# --- quantum ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DetectVerdict:
    detectable: bool
    lam: complex
    residual: float

    def to_json(self) -> dict:
        return {
            "detectable": self.detectable,
            "lambda": to_json_array(self.lam),
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


def admit_error_count(code: CodeSubspace, m: int) -> None:
    """Refuse a Knill-Laflamme check of m errors whose working set passes
    MAX_KRAUS_BYTES, before anything is built: the blocks E_i C (d x mk) and
    the Gram matrix with its residual temporaries (3 (mk)^2), at 16 bytes a
    complex entry."""
    mk = m * code.dim
    admit(f"Knill-Laflamme check of {m} errors on this code",
          nbytes=16 * (code.physical_dim * mk + 3 * mk * mk))


def _checked(e, d: int, label: str):
    """The error as a PauliProduct or a matrix, refused unless it is d x d.
    A word's shape comes from its qubit count, unallocated."""
    if isinstance(e, PauliProduct):
        shape = (2 ** e.n,) * 2 if e.n <= 64 else (f"2^{e.n}",) * 2
    else:
        e = np.asarray(e.matrix if isinstance(e, LinearOperator) else e, dtype=complex)
        shape = e.shape
    if shape != (d, d):
        raise ValueError(f"error {label} has shape {shape}, but the code needs {(d, d)}")
    return e


def _kl_kernel(code: CodeSubspace, errors, against_code: bool = False):
    """Knill-Laflamme on the code basis C, a d x k isometry with P = C C^dag.

    G = B^dag B for B = [E_1 C | ... | E_m C], read as (m, k, m, k), holds
    G_ij = C^dag E_i^dag E_j C, and P E_i^dag E_j P = lambda_ij P exactly
    when G_ij = lambda_ij I_k.  With against_code the bra side is C alone
    (G_j = C^dag E_j C, detectability).  The blocks E C of all the Pauli
    words are signed row gathers of C, done at once (a chunk of words at a
    time), never a dense E; a matrix error's block is E @ C.  Returns
    (labels, B, lambda, residual) as kl_residual gives the last two.
    """
    errors = list(errors)
    if not errors:
        raise ValueError("empty error set")
    admit_error_count(code, len(errors))
    k = code.dim
    c = code.basis_matrix()
    d, m = c.shape[0], len(errors)
    labels = []
    words = []
    blocks = np.empty((d, m * k), dtype=complex)
    for i, item in enumerate(errors):
        label, e = item if isinstance(item, tuple) else (item, item)
        labels.append(str(label))
        e = _checked(e, d, labels[-1])
        if isinstance(e, PauliProduct):
            words.append((i, e.x_bits, e.z_bits, e.phase_k))
        else:
            blocks[:, i * k:(i + 1) * k] = e @ c
    if words:
        at, x, z, phase = np.array(words).T
        n = d.bit_length() - 1
        step = _words_per_chunk(d, k)
        for s in range(0, len(at), step):
            part = slice(s, s + step)
            blocks.reshape(d, m, k)[:, at[part]] = _apply_words(n, x[part], z[part], phase[part], c)
    bra = c if against_code else blocks
    g = (bra.conj().T @ blocks).reshape(bra.shape[1] // k, k, m, k)
    return (tuple(labels), blocks, *kl_residual(g))


def kl_residual(g: np.ndarray) -> tuple[np.ndarray, float]:
    """(lambda, residual) of blocks G_ij read as g[i, :, j, :], each k x k:
    lambda_ij = tr(G_ij)/k and residual = max |G_ij - lambda_ij I_k|."""
    k = g.shape[1]
    lam = np.trace(g, axis1=1, axis2=3) / k
    return lam, float(np.abs(g - lam[:, None, :, None] * np.eye(k)[:, None, :]).max())


def detectable_quantum(code: CodeSubspace, error) -> DetectVerdict:
    """Check C^dag E C = lambda I on the code basis C, i.e. PEP = lambda P;
    the residual is max |C^dag E C - lambda I|."""
    label = str(error) if isinstance(error, PauliProduct) else "E"
    _, _, lam, residual = _kl_kernel(code, [(label, error)], against_code=True)
    return DetectVerdict(residual <= ATOL_ALGEBRA, complex(lam[0, 0]), residual)


def correctable_quantum(code: CodeSubspace, errors) -> CorrectVerdict:
    """Check C^dag E_i^dag E_j C = lambda_ij I for every pair, i.e.
    P E_i^dag E_j P = lambda_ij P, from one Gram matrix of the blocks E_i C;
    the residual is the worst max |C^dag E_i^dag E_j C - lambda_ij I|."""
    labels, blocks, lam, residual = _kl_kernel(code, errors)
    ok = residual <= ATOL_ALGEBRA
    evals = np.linalg.eigvalsh((lam + lam.conj().T) / 2.0)
    if ok and (np.abs(lam - lam.conj().T).max() > ATOL_ALGEBRA or evals[0] < -ATOL_ALGEBRA):
        raise RuntimeError("correctable Gram matrix failed Hermitian/PSD check")
    rank = int(np.sum(evals > 1e-9 * max(evals.max(), 1e-30)))
    return CorrectVerdict(ok, labels, lam, rank, residual, blocks)


def decoder_identification(code: CodeSubspace,
                           verdict: CorrectVerdict) -> SubsystemIdentification:
    """The syndrome decomposition of a correctable error set on this code.

    Diagonalizing the Gram matrix Lambda = V D V^dag and rescaling by
    D^(-1/2) yields operators D_k whose images of the code are orthogonal
    syndrome blocks W_k = D_k C; W maps |k>|psi_m> to D_k applied to the m-th
    code vector, from the verdict's blocks E_i C.  Error directions with zero
    eigenvalue never occur on code states and are dropped: eigh sorts the
    eigenvalues ascending, so W keeps the last verdict.rank of them, and has
    verdict.rank syndrome values by construction.
    """
    if not verdict.correctable:
        raise ValueError("error set is not correctable on this code")
    lam = (verdict.lambda_matrix + verdict.lambda_matrix.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(lam)
    keep = slice(len(evals) - verdict.rank, None)
    order = np.argsort(-evals[keep])
    evals_k = evals[keep][order]
    vecs_k = vecs[:, keep][:, order]
    # fix each eigenvector's phase (largest entry real and positive).  Only the
    # phases are pinned: inside a degenerate eigenspace the basis eigh picks,
    # and so each syndrome block, can turn under a rounding-level change in
    # Lambda, while the decoder as a whole stays the same.
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
    return SubsystemIdentification(LinearOperator((s, dl), code.physical_dims, w),
                                   syndrome_labels=tuple(str(k) for k in range(s)))


def synthesize_decoder(code: CodeSubspace, errors) -> tuple[SubsystemIdentification, KrausChannel]:
    """decoder_identification plus its dense recovery channel, the reference
    it is checked against: R_k = C W_k^dag, and R_fail = F = I - W W^dag when
    the blocks do not fill the space.

    The channel is sealed from W and C alone: its sum R^dag R is
    sum_k W_k (C^dag C) W_k^dag (+ F^dag F), two small products in place of
    a pass over the dense operators, which are built on their first read.
    """
    ident = decoder_identification(code, correctable_quantum(code, errors))
    w = ident.isometry.matrix
    s, dl, d = ident.syndrome_dim, ident.logical_dim, code.physical_dim
    cmat = code.basis_matrix()
    labels = [str(k) for k in range(s)]
    bad: frozenset[str] = frozenset()
    completeness = (w.reshape(d, s, dl) @ (cmat.conj().T @ cmat)).reshape(d, s * dl) @ w.conj().T
    if not ident.is_complete():
        labels.append("fail")
        bad = frozenset({"fail"})
        f = np.eye(d) - w @ w.conj().T
        completeness += f.conj().T @ f
    adjoints = w.reshape(d, s, dl).conj().transpose(1, 2, 0)  # [k] = W_k^dag

    def recovery_ops(start, stop):
        # R_k = C W_k^dag, computed straight into the channel's block
        out = np.empty((stop - start, d, d), dtype=complex)
        k = min(stop, s)
        np.matmul(cmat, adjoints[start:k], out=out[:k - start])
        if stop > s:
            out[-1] = np.eye(d) - w @ w.conj().T
        return out

    recovery = KrausChannel._build(code.physical_dims, labels, recovery_ops, bad, completeness)
    return ident, recovery


def min_distance_quantum(code: CodeSubspace, alphabet: str = "XYZ",
                         cap: int = 5) -> int:
    """Smallest weight of a Pauli word the code cannot detect.

    Dense search over the words of increasing weight, a chunk of
    gf2_symplectic._word_arrays at a time: the blocks E C of a chunk are one
    signed row gather of the code basis C, laid side by side, and all their
    C^dag E C one product C^dag [E_1 C | E_2 C | ...].  A word is
    undetectable when max |C^dag E C - lambda I| passes ATOL_ALGEBRA,
    detectable_quantum's rule (kl_residual).  A chunk's working set stays
    near _CHUNK_BYTES, whatever the cap.  Raises SearchCapExceeded rather
    than guessing when the cap is passed.
    """
    if any(d != 2 for d in code.physical_dims):
        raise ValueError("distance search expects qubit factors")
    n = len(code.physical_dims)
    c = code.basis_matrix()
    d, k = c.shape
    bra = np.ascontiguousarray(c.conj().T)
    for w, x, z in _word_arrays(n, cap, alphabet, _words_per_chunk(d, k)):
        g = bra @ _apply_words(n, _masks(x), _masks(z), 0, c).reshape(d, -1)
        # every word of a chunk has weight w, so the chunk's worst residual decides
        if kl_residual(g.reshape(1, k, -1, k))[1] > ATOL_ALGEBRA:
            return w
    raise SearchCapExceeded(cap)


def _words_per_chunk(d: int, k: int) -> int:
    """Words whose blocks E C (d x k complex) and index maps (d sources,
    phase powers and complex signs each, with their temporaries) fit in
    _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (8 * d * (2 * k + 4)))


def weight_le_count(n: int, max_weight: int) -> int:
    """Number of words weight_le_words yields: sum_{w <= N} C(n, w) 3^w."""
    return sum(math.comb(n, w) * 3 ** w for w in range(min(max_weight, n) + 1))


def _weight_le_arrays(n: int, max_weight: int):
    """Labels and boolean (x, z) rows of identity plus every Pauli word of
    weight up to max_weight, in gf2_symplectic._word_arrays order."""
    ident = np.zeros((1, n), dtype=bool)
    chunks = [(ident, ident)] + [(x, z) for _, x, z in _word_arrays(n, max_weight)]
    x = np.vstack([cx for cx, _ in chunks])
    z = np.vstack([cz for _, cz in chunks])
    tokens = [[f"{c}{j + 1}" for j in range(n)] for c in " XZY"]  # by x + 2z
    labels = ["".join(tokens[c][j] for j, c in enumerate(row) if c) or "I"
              for row in (x + 2 * z.astype(np.intp)).tolist()]
    return labels, x, z


def weight_le_words(n: int, max_weight: int = 1) -> list[tuple[str, PauliProduct]]:
    """Identity plus every Pauli word of weight up to max_weight, labeled."""
    labels, x, z = _weight_le_arrays(n, max_weight)
    return [(label, PauliProduct(n, xb, zb))
            for label, xb, zb in zip(labels, _masks(x).tolist(), _masks(z).tolist())]


def weight_le_errors(n: int, max_weight: int = 1) -> list[tuple[str, np.ndarray]]:
    """weight_le_words as dense matrices, refused past MAX_KRAUS_BYTES unbuilt:
    one (m, d, d) stack, each word's signed entries scattered in at once."""
    admit(f"dense weight-{max_weight} errors on {n} qubits",
          nbytes=weight_le_count(n, max_weight) * 4 ** n * 16)
    labels, x, z = _weight_le_arrays(n, max_weight)
    src, coef = _index_maps(n, _masks(x), _masks(z), 0)
    m, d = src.shape
    out = np.zeros((m, d, d), dtype=complex)
    out[np.arange(m)[:, None], np.arange(d), src] = coef
    return list(zip(labels, out))


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
    return SubsystemIdentification(LinearOperator((2, 2), (2, 2, 2), np.column_stack(cols)),
                                   syndrome_labels=("up", "down"))
