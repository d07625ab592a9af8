"""Reference constructions that the package's fast paths replaced.

Each builds the same object the straightforward way: Kronecker chains and
projector products for Pauli words and codespaces, int64 sums for the
syndromes of a generator set, the closure of a generator set under products
for its group, one validated word at a time for the Pauli word sets and both
distance searches, loops over the operators of a flat channel for the action
and entanglement fidelity of a product, per-syndrome and per-branch loops for
the pipeline outcome tables and the seeded Monte Carlo draws, one channel per
collective rotation for the noiseless-qubit check, and the syndrome reset that
re-prepares a decoded state.  Two have no counterpart in the package: the
commutant of an operator set, solved by SVD, and the Kraus form of a Pauli
channel.  Tests compare the package against them.
"""

import itertools
import math

import numpy as np

from qecdesk.analysis import kl_residual
from qecdesk.channels import KrausChannel, PauliChannel, _philox_blocks, collective_spin
from qecdesk.codes import CodeSubspace, SubsystemIdentification
from qecdesk.gf2_symplectic import SearchCapExceeded, _letters_word, identity_word
from qecdesk.hilbert import (
    ATOL_ALGEBRA,
    DensityOperator,
    LinearOperator,
    StateVector,
    exp_hermitian,
)
from qecdesk.pipelines import _MC_BLOCK, PipelineReport

PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dense_word(word) -> np.ndarray:
    """The 2^n x 2^n matrix of a PauliProduct as a Kronecker chain, qubit 0
    the most significant factor, read from the printed word alone: the phase
    token, then one of I, X, Y, Z per qubit."""
    text = str(word)
    letters = text.lstrip("+-i")
    phase = {"": 1, "+i": 1j, "-": -1, "-i": -1j}[text[:len(text) - len(letters)]]
    m = np.array([[phase]], dtype=complex)
    for c in letters:
        m = np.kron(m, PAULI_1Q["IXYZ".index(c)])
    return m


def pauli_words(n: int, max_weight: int, alphabet: str = "XYZ"):
    """Yield (support, letters, word) for every word of weight 1..max_weight.

    Order: weight ascending, then supports in combinations order, then
    letters in product order over the sorted alphabet.
    """
    letters = sorted(set(alphabet))
    if any(c not in "XYZ" for c in letters) or not letters:
        raise ValueError(f"alphabet must be a nonempty subset of XYZ, got {alphabet!r}")
    for w in range(1, min(max_weight, n) + 1):
        for support in itertools.combinations(range(n), w):
            for choice in itertools.product(letters, repeat=w):
                yield support, choice, _letters_word(n, support, choice)


def first_weight(n: int, alphabet: str, cap: int, predicate) -> int:
    """Smallest weight of a word with predicate(word) true, judged one word at
    a time in pauli_words order; SearchCapExceeded past cap."""
    for support, _, word in pauli_words(n, cap, alphabet):
        if predicate(word):
            return len(support)
    raise SearchCapExceeded(cap)


def signed_group(words) -> set:
    """Every product of commuting words with its phase, closed one word at a
    time under PauliProduct.multiply."""
    group = {identity_word(words[0].n)}
    for g in words:
        group |= {p.multiply(g) for p in group}
    return group


def syndrome_parity(rows: np.ndarray, generators) -> np.ndarray:
    """x.g_z + z.g_x mod 2 of boolean (x | z) rows against each generator g:
    the integer parity of the boolean product of the rows with [Z | X]^T,
    each row's sums taken in int64 over the rows of [Z | X]^T it picks."""
    n = generators[0].n
    text = "".join(f"{g.z_bits:0{n}b}{g.x_bits:0{n}b}" for g in generators)
    zx = (np.frombuffer(text.encode(), dtype=np.uint8) == ord("1")).reshape(-1, 2 * n).T
    zx = zx.astype(np.int64)
    return np.array([zx[row].sum(axis=0) % 2 for row in rows]).reshape(len(rows), -1)


def projector_codespace(stab) -> CodeSubspace:
    """Joint +1 eigenspace of the generators from the product of the dense
    projectors (I + g)/2, with the same pivoted Gram-Schmidt on its columns
    as codes.stabilizer_codespace."""
    n = stab.n
    d = 2 ** n
    p = np.eye(d, dtype=complex)
    for g in stab.generators:
        p = p @ (np.eye(d, dtype=complex) + dense_word(g)) / 2.0
    res = p.copy()
    basis = []
    for _ in range(2 ** (n - stab.rank())):
        norms = np.linalg.norm(res, axis=0)
        j = int(np.argmax(norms))
        basis.append(res[:, j] / norms[j])
        res -= np.outer(basis[-1], basis[-1].conj() @ res)
    return CodeSubspace(LinearOperator((len(basis),), (2,) * n, np.column_stack(basis)))


def flat_apply_matrix(channel: KrausChannel, m: np.ndarray) -> np.ndarray:
    """sum a m a^dag over the operators of KrausChannel(channel.dims, channel.ops)."""
    flat = KrausChannel(channel.dims, channel.ops)
    return sum(a @ m @ a.conj().T for _, a in flat.ops)


def flat_entanglement_fidelity(channel: KrausChannel) -> float:
    """sum |tr a|^2 / d^2 over the operators of KrausChannel(channel.dims, channel.ops)."""
    flat = KrausChannel(channel.dims, channel.ops)
    return sum(abs(np.trace(a)) ** 2 for _, a in flat.ops) / flat.dim ** 2


def pauli_kraus(pch: PauliChannel) -> KrausChannel:
    """A Pauli channel as Kraus operators: sqrt(p) times each word's matrix,
    labeled by the word, the words of probability 0 left out."""
    return KrausChannel((2,) * pch.n, tuple(
        (str(word), math.sqrt(p) * word.dense()) for word, p in pch.probs.items() if p > 0.0))


class LeakageDetected(Exception):
    """State mass found outside the range of a partial identification."""

    def __init__(self, mass: float):
        super().__init__(f"leakage mass {mass} outside the identified subspace")
        self.mass = mass


def logical_matrix(ident: SubsystemIdentification,
                   rho: np.ndarray) -> tuple[np.ndarray, float]:
    """(the syndrome factor traced out of W^dag rho W, leakage mass)."""
    sigma, leak = ident.subsystem_matrix(rho)
    t = sigma.reshape(ident.syndrome_dim, ident.logical_dim,
                      ident.syndrome_dim, ident.logical_dim)
    return np.einsum("sasb->ab", t), leak


def syndrome_reset(ident: SubsystemIdentification, rho: DensityOperator) -> DensityOperator:
    """Discard the syndrome and re-prepare it in the base value.

    The logical factor is untouched.  Raises LeakageDetected if the state has
    weight outside the identified subspace.
    """
    if rho.dims != ident.physical_dims:
        raise ValueError(f"state dims {rho.dims} do not match the identification's "
                         f"{ident.physical_dims}")
    rho_l, leak = logical_matrix(ident, rho.matrix)
    if leak > ATOL_ALGEBRA:
        raise LeakageDetected(leak)
    b, dl = ident.syndrome_base, ident.logical_dim
    fresh = np.zeros((ident.syndrome_dim * dl,) * 2, dtype=complex)
    fresh[b * dl:(b + 1) * dl, b * dl:(b + 1) * dl] = rho_l
    w = ident.isometry.matrix
    return DensityOperator(ident.physical_dims, w @ fresh @ w.conj().T)


def syndrome_loop_run(ident: SubsystemIdentification, channel: KrausChannel,
                      psi_in: StateVector, psi_enc: np.ndarray, scenario: str,
                      input_desc: str) -> PipelineReport:
    """The exact outcome table, one syndrome block of W^dag rho W at a time.

    Each syndrome gives an "ok" row (the block's overlap with the input,
    clamped to [0, p]) and an "err" row (the rest); a partial W adds one
    "fail" row, tr((I - W W^dag) rho).  logical_rho is the sum of the blocks
    normalized by their weight: the logical state given acceptance.
    """
    if channel.dims != tuple(ident.physical_dims):
        raise ValueError("channel dims do not match the code")
    sigma, fail = ident.subsystem_matrix(channel.apply_pure(psi_enc))
    psi, dl = psi_in.amplitudes, ident.logical_dim
    rows = []
    logical = np.zeros((dl, dl), dtype=complex)
    success = error = 0.0
    for s in range(ident.syndrome_dim):
        block = sigma[s * dl:(s + 1) * dl, s * dl:(s + 1) * dl]
        p = float(np.trace(block).real)
        p_ok = min(max(float(np.real(np.vdot(psi, block @ psi))), 0.0), p)
        label = ident.syndrome_label(s)
        rows += [(label, "ok", p_ok), (label, "err", p - p_ok)]
        logical += block
        success += p_ok
        error += p - p_ok
    if not ident.is_complete():
        rows.append(("fail", "", fail))
    accepted = float(np.trace(logical).real)
    if accepted > ATOL_ALGEBRA:
        logical = logical / accepted
    metrics = {"success": success, "error": error, "fail": fail}
    return PipelineReport(scenario, input_desc, tuple(rows), logical, metrics)


def branch_tables(ident: SubsystemIdentification, channel: KrausChannel,
                  psi_enc: np.ndarray, psi_in: np.ndarray):
    """Per channel branch: (branch probability, outcome distribution).

    Outcomes are indexed into a shared row list [(syndrome, logical), ...,
    ("fail", "")]; per-branch distributions are conditional on the branch.
    """
    dl = ident.logical_dim
    w = ident.isometry.matrix
    rows = []
    for s in range(ident.syndrome_dim):
        rows.append((ident.syndrome_label(s), "ok"))
        rows.append((ident.syndrome_label(s), "err"))
    rows.append(("fail", ""))
    qs = []
    dists = []
    for v in itertools.chain.from_iterable(channel.branch_blocks(psi_enc)):
        q = float(np.vdot(v, v).real)
        qs.append(q)
        if q <= 1e-30:
            dists.append(np.zeros(len(rows)))
            continue
        v = v / math.sqrt(q)
        sub = w.conj().T @ v
        dist = np.zeros(len(rows))
        for s in range(ident.syndrome_dim):
            block = sub[s * dl:(s + 1) * dl]
            p_s = float(np.vdot(block, block).real)
            p_ok = abs(np.vdot(psi_in, block)) ** 2
            dist[2 * s] = min(p_ok, p_s)
            dist[2 * s + 1] = p_s - dist[2 * s]
        dist[-1] = max(1.0 - dist.sum(), 0.0)
        dists.append(dist)
    return rows, np.array(qs), np.vstack(dists)


def sampled_counts(ident: SubsystemIdentification, channel: KrausChannel,
                   psi_enc: np.ndarray, psi_in: np.ndarray, trials: int, seed: int):
    """(rows, counts) of a seeded Monte Carlo run, one trial at a time.

    Each trial takes (u0, u1) from the seed's Philox block stream, as
    pipelines.run_monte_carlo does.  Its branch is the first whose cumulative
    mass exceeds u0 (the last if none does), and its outcome is the number of
    that branch's cumulative outcome probabilities below u1, capped at the
    fail row.  Rows and tables come from branch_tables.
    """
    rows, qs, dists = branch_tables(ident, channel, psi_enc, psi_in)
    cum_q = np.cumsum(qs)
    counts = np.zeros(len(rows), dtype=np.int64)
    for g, count in _philox_blocks(seed, trials, _MC_BLOCK):
        for u0, u1 in g.random((count, 2)):
            above = np.flatnonzero(cum_q > u0)
            branch = above[0] if above.size else len(qs) - 1
            thresholds = np.cumsum(dists[branch])
            counts[min(int((thresholds < u1).sum()), len(rows) - 1)] += 1
    return rows, counts


def commutant(ops, dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of everything commuting with the given ops.

    Solves the stacked commutator equations by SVD and symmetrizes the
    resulting basis; requires the input set to have a dagger-closed commutant
    (true whenever the set itself is closed under dagger).
    """
    mats = [np.asarray(o, dtype=complex) for o in ops]
    if not mats:
        raise ValueError("empty operator list")
    eye = np.eye(dim)
    blocks = [np.kron(e, eye) - np.kron(eye, e.T) for e in mats]
    stacked = np.vstack(blocks)
    u, svals, vh = np.linalg.svd(stacked)
    smax = svals.max() if svals.size else 0.0
    null_rows = vh[svals <= max(ATOL_ALGEBRA * smax, ATOL_ALGEBRA)] if svals.size else vh
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


def collective_rotation(v: tuple[float, float, float], n: int = 3) -> KrausChannel:
    """Unitary exp(-i v.J) as a one-operator channel, from one exp_hermitian
    of H = v_x J_x + v_y J_y + v_z J_z."""
    vx, vy, vz = v
    h = (
        vx * collective_spin("X", n).matrix
        + vy * collective_spin("Y", n).matrix
        + vz * collective_spin("Z", n).matrix
    )
    return KrausChannel((2,) * n, (("rot", exp_hermitian(h)),))


def rotation_loop(wb: np.ndarray, rotations: int, seed: int) -> tuple[float, float]:
    """(max_rotation_leakage, max_logical_block_deviation) of `qecdesk
    noiseless` on the isometry wb, one seeded rotation channel at a time."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    max_leak = 0.0
    max_block_dev = 0.0
    for _ in range(rotations):
        v = tuple(rng.normal(scale=2.0, size=3))
        u = collective_rotation(v).operator("rot")
        sub = wb.conj().T @ u @ wb
        leak = float(np.abs(u @ wb - wb @ sub).max())
        # each (syndrome, syndrome') block must be lambda I on the logical qubit
        max_block_dev = max(max_block_dev, kl_residual(sub.reshape(2, 2, 2, 2))[1])
        max_leak = max(max_leak, leak)
    return max_leak, max_block_dev
