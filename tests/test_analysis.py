"""Detectability, correctability, decoder synthesis, commutants."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import rand_state, rand_unitary
from oracles import commutant, dense_word
from qecdesk.analysis import (
    _kl_kernel,
    build_noiseless_qubit,
    classical_flip_map,
    correctable_quantum,
    detectable_classical,
    detectable_quantum,
    min_distance_quantum,
    permutation_operator,
    symmetric_projector,
    synthesize_decoder,
    weight_le_count,
    weight_le_errors,
    weight_le_words,
)
from qecdesk.channels import (
    KrausChannel,
    _gram,
    bit_flip,
    collective_rotation,
    collective_spin,
    depolarizing,
    identity_channel,
    tensor_channels,
)
from qecdesk.codes import (
    FIVE_QUBIT_GENERATORS,
    ClassicalCode,
    builtin_code,
    five_qubit,
    repetition_classical,
    stabilizer_codespace,
    three_spin_noiseless,
)
from qecdesk.gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    StabilizerGeneratorSet,
    single_qubit_word,
)
from qecdesk.hilbert import ATOL_ALGEBRA, LinearOperator, StateVector
from qecdesk.pipelines import run_corrected

STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]
SHOR = ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
        "XXXXXXIII", "IIIXXXXXX"]

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def embed(u, slot, n=3):
    factors = [u if i == slot else np.eye(2) for i in range(n)]
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


# --- classical ----------------------------------------------------------------


def shift(k):
    """Cyclic shift by k on the seven one-symbol words."""
    return {str(x): str((x + k) % 7) for x in range(7)}


def test_flip_map():
    f = classical_flip_map(3, {1, 3})
    assert f["000"] == "101"
    assert f["110"] == "011"


def test_classical_detectability_on_repetition():
    code = repetition_classical().code
    assert detectable_classical(code, classical_flip_map(3, {1}))
    assert detectable_classical(code, classical_flip_map(3, {1, 2}))
    # flipping every bit exchanges the two code words: undetectable
    assert not detectable_classical(code, classical_flip_map(3, {1, 2, 3}))


def test_invertible_errors_correctable_iff_relative_errors_detectable():
    code = ClassicalCode(7, 1, ("1", "4"))
    shifts = {k: shift(k) for k in (-1, 0, 1, 2)}

    def correctable(errs):
        # no word is the image of two distinct code words
        source = {}
        return all(source.setdefault(e[x], x) == x for e in errs for x in code.words)

    def relative_ok(errs):
        for ei in errs:
            inverse = {y: x for x, y in ei.items()}
            assert len(inverse) == len(ei)  # a shift is invertible
            for ej in errs:
                rel = {x: inverse[y] for x, y in ej.items()}  # ei^-1 after ej
                if not detectable_classical(code, rel):
                    return False
        return True

    good = [shifts[k] for k in (-1, 0, 1)]
    assert correctable(good) and relative_ok(good)
    bad = [shifts[k] for k in (-1, 0, 1, 2)]
    assert not correctable(bad) and not relative_ok(bad)


# --- quantum detect/correct -----------------------------------------------------


def test_detectable_quantum_on_repetition():
    space = builtin_code("repetition3").subspace
    z1 = detectable_quantum(space, embed(SIGMA["Z"], 0))
    assert not z1.detectable
    assert z1.lam == pytest.approx(0.0, abs=1e-12)
    x1 = detectable_quantum(space, embed(SIGMA["X"], 0))
    assert x1.detectable
    assert x1.lam == pytest.approx(0.0, abs=1e-12)
    ident = detectable_quantum(space, np.eye(8))
    assert ident.detectable
    assert ident.lam == pytest.approx(1.0)


def test_detectable_means_constant_on_code_states():
    # whenever PEP = lambda P, every normalized code state sees the same
    # expectation; the Z1 failure shows up as state-dependent expectations
    space = builtin_code("repetition3").subspace
    c = space.basis_matrix()
    z1 = embed(SIGMA["Z"], 0)
    e00 = c[:, 0].conj() @ z1 @ c[:, 0]
    e11 = c[:, 1].conj() @ z1 @ c[:, 1]
    assert abs(e00 - e11) > 1.9  # +1 vs -1
    x1 = embed(SIGMA["X"], 0)
    rng = np.random.default_rng(30)
    for _ in range(5):
        a = rand_state(rng, 2)
        psi = c @ a
        assert abs(psi.conj() @ x1 @ psi) < 1e-12


def test_five_qubit_weight_one_gram_matrix_is_identity():
    _, space = five_qubit()
    errs = weight_le_errors(5, 1)
    assert len(errs) == 16
    verdict = correctable_quantum(space, errs)
    assert verdict.correctable
    assert verdict.rank == 16
    # exact: the code amplitudes are 0 or +-1/4, so no rounding enters
    assert np.array_equal(verdict.lambda_matrix, np.eye(16))


def test_repetition_flips_correctable_until_z_joins():
    space = builtin_code("repetition3").subspace
    errs = [("I", np.eye(8))] + [
        (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)
    ]
    verdict = correctable_quantum(space, errs)
    assert verdict.correctable
    assert np.abs(verdict.lambda_matrix - np.eye(4)).max() < 1e-12
    spoiled = errs + [("Z1", embed(SIGMA["Z"], 0))]
    assert not correctable_quantum(space, spoiled).correctable


def test_gram_matrix_transforms_by_congruence_under_remix():
    space = builtin_code("repetition3").subspace
    errs = [np.eye(8)] + [embed(SIGMA["X"], i) for i in range(3)]
    rng = np.random.default_rng(31)
    u = rand_unitary(rng, 4)
    remixed = [sum(u[f, e] * errs[e] for e in range(4)) for f in range(4)]
    lam = correctable_quantum(space, errs).lambda_matrix
    lam2 = correctable_quantum(space, remixed).lambda_matrix
    assert np.allclose(lam2, u.conj() @ lam @ u.T, atol=1e-10)


def _dense_kl_oracle(space, mats):
    """Knill-Laflamme in projector form, P E_i^dag E_j P = lambda_ij P with
    P = C C^dag, built densely pair by pair."""
    c = space.basis_matrix()
    p = c @ c.conj().T
    m = len(mats)
    lam = np.zeros((m, m), dtype=complex)
    worst = 0.0
    for i in range(m):
        for j in range(m):
            pep = p @ mats[i].conj().T @ mats[j] @ p
            lam[i, j] = np.trace(pep) / space.dim
            worst = max(worst, float(np.abs(pep - lam[i, j] * p).max()))
    evals = np.linalg.eigvalsh((lam + lam.conj().T) / 2.0)
    rank = int(np.sum(evals > 1e-9 * max(evals.max(), 1e-30)))
    return lam, worst, rank


def _oracle_case(name):
    rep = builtin_code("repetition3").subspace
    flips = [("I", np.eye(8))] + [
        (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)
    ]
    if name == "repetition3-flips":
        return rep, flips
    if name == "repetition3-flips-z1":
        return rep, flips + [("Z1", embed(SIGMA["Z"], 0))]
    if name == "repetition3-remix":
        u = rand_unitary(np.random.default_rng(36), 4)
        return rep, [(f"U{f}", sum(u[f, e] * flips[e][1] for e in range(4)))
                     for f in range(4)]
    if name.startswith("fivequbit-w"):
        return five_qubit()[1], weight_le_errors(5, int(name[-1]))
    if name == "steane7-w1-subset":
        # I and every weight-1 word on qubits 1-3
        space = stabilizer_codespace(StabilizerGeneratorSet.from_strings(STEANE))
        return space, weight_le_errors(7, 1)[:10]
    if name == "threespin-w1":
        return builtin_code("threespin").subspace, weight_le_errors(3, 1)
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "repetition3-flips", "repetition3-flips-z1", "fivequbit-w1", "fivequbit-w2",
    "steane7-w1-subset", "threespin-w1", "repetition3-remix",
])
def test_code_basis_kernel_matches_dense_projector_oracle(name):
    space, errs = _oracle_case(name)
    mats = [m for _, m in errs]
    lam, worst, rank = _dense_kl_oracle(space, mats)
    verdict = correctable_quantum(space, errs)
    assert verdict.correctable == (worst <= ATOL_ALGEBRA)
    assert verdict.rank == rank
    assert np.abs(verdict.lambda_matrix - lam).max() <= 1e-12
    c = space.basis_matrix()
    p = c @ c.conj().T
    for e in mats:
        pep = p @ e @ p
        lam_e = np.trace(pep) / space.dim
        single = detectable_quantum(space, e)
        assert single.detectable == (np.abs(pep - lam_e * p).max() <= ATOL_ALGEBRA)
        assert abs(single.lam - lam_e) <= 1e-12


def test_residual_is_measured_on_the_code_basis():
    # max |C^dag E_i^dag E_j C - lambda_ij I| rather than the projector form
    # max |P E_i^dag E_j P - lambda_ij P|; on five-qubit weight <= 2 these are
    # 1.0 and 0.0625, both far above ATOL_ALGEBRA, so the verdict agrees
    space, errs = _oracle_case("fivequbit-w2")
    verdict = correctable_quantum(space, errs)
    assert not verdict.correctable
    assert verdict.residual == pytest.approx(1.0, abs=1e-12)
    _, worst, _ = _dense_kl_oracle(space, [m for _, m in errs])
    assert worst == pytest.approx(0.0625, abs=1e-12)
    z1 = detectable_quantum(builtin_code("repetition3").subspace, embed(SIGMA["Z"], 0))
    assert z1.residual == pytest.approx(1.0, abs=1e-12)


def test_kernel_rejects_errors_of_the_wrong_shape():
    space = builtin_code("repetition3").subspace
    with pytest.raises(ValueError, match=r"error X1 has shape \(2, 2\).*\(8, 8\)"):
        correctable_quantum(space, [("I", np.eye(8)), ("X1", SIGMA["X"])])
    with pytest.raises(ValueError, match=r"\(4, 4\).*\(8, 8\)"):
        detectable_quantum(space, np.eye(4))
    with pytest.raises(ValueError, match=r"error XX has shape \(4, 4\)"):
        detectable_quantum(space, PauliProduct.from_string("XX"))


def test_synthesize_decoder_repetition():
    space = builtin_code("repetition3").subspace
    errs = [("I", np.eye(8))] + [
        (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)
    ]
    ident, recovery = synthesize_decoder(space, errs)
    assert ident.syndrome_dim == 4 and ident.logical_dim == 2
    assert ident.is_complete()
    assert recovery.labels() == ["0", "1", "2", "3"]
    assert recovery.bad_labels == frozenset()
    # the Gram matrix is the identity, so block k is exactly E_k applied to
    # the code basis
    w = ident.isometry.matrix
    c = space.basis_matrix()
    mats = [m for _, m in errs]
    for k in range(4):
        assert np.allclose(w[:, 2 * k:2 * k + 2], mats[k] @ c, atol=1e-9)


def test_synthesized_recovery_corrects_each_error():
    rng = np.random.default_rng(32)
    steane = stabilizer_codespace(StabilizerGeneratorSet.from_strings(STEANE))
    cases = (
        (builtin_code("repetition3").subspace, [("I", np.eye(8))] + [
            (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)
        ]),
        (builtin_code("fivequbit").subspace, weight_le_errors(5, 1)),
        # Lambda = I is degenerate: the individual syndrome blocks depend on
        # the eigenbasis eigh picks, the recovery channel does not
        (steane, weight_le_errors(7, 1)),
    )
    for space, errs in cases:
        _, recovery = synthesize_decoder(space, errs)
        c = space.basis_matrix()
        for _, e in errs:
            for _ in range(3):
                psi = c @ rand_state(rng, space.dim)
                corrupted = np.outer(e @ psi, (e @ psi).conj())
                fixed = recovery.apply_matrix(corrupted)
                fid = (psi.conj() @ fixed @ psi).real
                assert fid > 1 - 1e-8


def test_recovery_corrects_linear_combinations():
    # correctability is a property of the span: recovery built from the four
    # flip errors also reverses any complex combination of them
    space = builtin_code("repetition3").subspace
    errs = [("I", np.eye(8))] + [
        (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)
    ]
    _, recovery = synthesize_decoder(space, errs)
    c = space.basis_matrix()
    rng = np.random.default_rng(33)
    mats = [m for _, m in errs]
    for _ in range(20):
        coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
        e = sum(a * m for a, m in zip(coeff, mats))
        psi = c @ rand_state(rng, 2)
        corrupted = np.outer(e @ psi, (e @ psi).conj())
        fixed = recovery.apply_matrix(corrupted)
        fixed /= np.trace(fixed).real
        fid = (psi.conj() @ fixed @ psi).real
        assert fid > 1 - 1e-8


def test_synthesize_decoder_drops_null_directions():
    # a repeated error adds a zero eigenvalue but no new syndrome block
    space = builtin_code("repetition3").subspace
    x1 = embed(SIGMA["X"], 0)
    errs = [("I", np.eye(8)), ("a", x1), ("b", x1)]
    verdict = correctable_quantum(space, errs)
    assert verdict.correctable and verdict.rank == 2
    ident, recovery = synthesize_decoder(space, errs)
    assert ident.syndrome_dim == 2
    assert not ident.is_complete()
    assert "fail" in recovery.labels()
    assert recovery.bad_labels == frozenset({"fail"})
    # the overlapping direction is still corrected
    rng = np.random.default_rng(34)
    c = space.basis_matrix()
    mix = (np.eye(8) + x1) / math.sqrt(2)
    psi = c @ rand_state(rng, 2)
    corrupted = np.outer(mix @ psi, (mix @ psi).conj())
    fixed = recovery.apply_matrix(corrupted)
    fixed /= np.trace(fixed).real
    assert (psi.conj() @ fixed @ psi).real > 1 - 1e-8


def test_synthesized_recovery_is_sealed_from_w_and_c():
    """The recovery's kept sum R^dag R, folded from W and C, matches the dense
    oracle over its operators, which wait for their first read and then
    equal an eagerly stored copy, read as a decoder or a product factor."""
    rep3 = builtin_code("repetition3").subspace
    x1 = embed(SIGMA["X"], 0)
    cases = {
        "repetition3": (rep3, [("I", np.eye(8))] + [
            (f"X{i+1}", embed(SIGMA["X"], i)) for i in range(3)]),
        "fivequbit w<=1": (builtin_code("fivequbit").subspace, weight_le_errors(5, 1)),
        "steane w<=1": (stabilizer_codespace(StabilizerGeneratorSet.from_strings(STEANE)),
                        weight_le_errors(7, 1)),
        "null direction": (rep3, [("I", np.eye(8)), ("a", x1), ("b", x1)]),
    }
    rng = np.random.default_rng(35)
    for name, (space, errs) in cases.items():
        _, recovery = synthesize_decoder(space, errs)
        assert "blocks" not in recovery.ops.__dict__, name
        assert tensor_channels(recovery, bit_flip(0.1)).dims == space.physical_dims + (2,)
        n = len(space.physical_dims)
        noise = tensor_channels(depolarizing(0.2), identity_channel((2,) * (n - 1)))
        psi = StateVector((2,), rand_state(rng, 2))
        lazy = run_corrected(space, recovery, noise, psi)
        eager = KrausChannel(recovery.dims, tuple(recovery.ops), recovery.bad_labels)
        assert np.array_equal(np.concatenate(recovery.blocks), np.concatenate(eager.blocks)), name
        oracle = _gram(recovery.blocks, recovery.dim)
        assert np.abs(recovery._completeness - oracle).max() <= 1e-13, name
        assert run_corrected(space, eager, noise, psi).outcomes == lazy.outcomes, name


def test_synthesized_recovery_builds_no_operators_until_read():
    # Steane's 23 dense 128 x 128 recovery operators would take 5.9 MB
    steane = stabilizer_codespace(StabilizerGeneratorSet.from_strings(STEANE))
    errs = weight_le_errors(7, 1)
    tracemalloc.start()
    try:
        _, recovery = synthesize_decoder(steane, errs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "blocks" not in recovery.ops.__dict__
    assert kept <= 2 ** 20 and peak <= 2 * 2 ** 20, (kept, peak)


def test_synthesize_decoder_rejects_uncorrectable_sets():
    space = builtin_code("repetition3").subspace
    errs = [("I", np.eye(8)), ("Z1", embed(SIGMA["Z"], 0))]
    with pytest.raises(ValueError):
        synthesize_decoder(space, errs)


def test_min_distance_quantum_values():
    assert min_distance_quantum(builtin_code("repetition3").subspace) == 1
    assert min_distance_quantum(builtin_code("repetition3").subspace,
                                alphabet="X") == 3
    _, space = five_qubit()
    assert min_distance_quantum(space) == 3
    with pytest.raises(SearchCapExceeded):
        min_distance_quantum(space, alphabet="X", cap=4)


def test_min_distance_agrees_with_symplectic_search():
    cases = [
        (builtin_code("repetition3"), "XYZ"),
        (builtin_code("repetition3"), "X"),
        (builtin_code("fivequbit"), "XYZ"),
    ]
    for code, alphabet in cases:
        assert (min_distance_quantum(code.subspace, alphabet=alphabet)
                == code.stabilizers.min_distance(alphabet=alphabet))


def test_weight_le_errors_enumeration():
    errs = weight_le_errors(3, 1)
    assert [l for l, _ in errs] == ["I", "X1", "Y1", "Z1", "X2", "Y2", "Z2",
                                    "X3", "Y3", "Z3"]
    assert np.array_equal(dict(errs)["Y2"],
                          single_qubit_word(3, 1, "Y").dense())
    assert len(weight_le_errors(3, 2)) == 1 + 9 + 27


def test_weight_le_errors_order_matches_nested_loop():
    # oracle: the weight / support / letter loop with a multiply chain
    n = 3
    want = [("I", np.eye(2 ** n, dtype=complex))]
    for wgt in range(1, 3):
        for support in itertools.combinations(range(n), wgt):
            for choice in itertools.product("XYZ", repeat=wgt):
                word = None
                label = ""
                for j, c in zip(support, choice):
                    q = single_qubit_word(n, j, c)
                    word = q if word is None else word.multiply(q)
                    label += f"{c}{j + 1}"
                want.append((label, word.dense()))
    got = weight_le_errors(n, 2)
    assert [l for l, _ in got] == [l for l, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["five-w2", "steane-w2", "shor-w1"])
def test_kernel_from_words_matches_dense_errors(case):
    # the blocks E C from row gathers, and so lambda and the residual, are the
    # dense products bit for bit; dense_word is the Kronecker-chain oracle
    name, weight = case.split("-w")
    stab = StabilizerGeneratorSet.from_strings(
        {"five": list(FIVE_QUBIT_GENERATORS), "steane": STEANE, "shor": SHOR}[name])
    space = stabilizer_codespace(stab)
    words = weight_le_words(stab.n, int(weight))
    dense = [(label, dense_word(w)) for label, w in words]
    for against_code in (False, True):
        got = _kl_kernel(space, words, against_code)
        want = _kl_kernel(space, dense, against_code)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)


def test_weight_le_words_match_the_dense_errors():
    words = weight_le_words(4, 2)
    assert len(words) == weight_le_count(4, 2) == 1 + 12 + 54
    assert weight_le_count(5, 10 ** 30) == 4 ** 5  # weights past n stop at n
    for (label, word), (dlabel, e) in zip(words, weight_le_errors(4, 2)):
        assert label == dlabel and np.array_equal(dense_word(word), e)


def test_linear_operator_errors_are_checked_as_their_matrices():
    five = five_qubit()[1]
    errors = weight_le_errors(5, 1)
    ops = [(label, LinearOperator((2,) * 5, (2,) * 5, e)) for label, e in errors]
    for (_, e), (_, op) in zip(errors, ops):
        a, b = detectable_quantum(five, e), detectable_quantum(five, op)
        assert (a.detectable, a.lam, a.residual) == (b.detectable, b.lam, b.residual)
    a, b = correctable_quantum(five, errors), correctable_quantum(five, ops)
    assert (a.labels, a.rank, a.residual) == (b.labels, b.rank, b.residual)
    assert np.array_equal(a.lambda_matrix, b.lambda_matrix)
    with pytest.raises(ValueError, match=r"error E has shape \(4, 4\)"):
        detectable_quantum(five, LinearOperator((4,), (4,), np.eye(4)))


def test_error_counts_are_refused_before_the_kernel_allocates():
    five = five_qubit()[1]
    # 5,000 copies of I: the Gram matrix alone would be 1.6 GB
    with pytest.raises(ValueError, match="5000 errors on this code.*MAX_KRAUS_BYTES"):
        correctable_quantum(five, [("I", PauliProduct.from_string("IIIII"))] * 5000)
    # 436 dense 1024 x 1024 matrices would be 7 GiB
    with pytest.raises(ValueError, match="MAX_KRAUS_BYTES"):
        weight_le_errors(10, 2)


def test_dense_and_symplectic_distances_agree_on_steane():
    stab = StabilizerGeneratorSet.from_strings(STEANE)
    space = stabilizer_codespace(stab)
    for alphabet, d in (("X", 3), ("Z", 3), ("XYZ", 3)):
        assert min_distance_quantum(space, alphabet=alphabet) == d
        assert stab.min_distance(alphabet=alphabet) == d


# --- commutants and permutations ------------------------------------------------


def in_span(basis, m, atol=1e-8):
    """m lies in the span of a trace-orthonormal basis: nothing is left after
    subtracting its projections."""
    resid = m.astype(complex)
    for b in basis:
        resid = resid - np.trace(b.conj().T @ resid) * b
    return bool(np.abs(resid).max() <= atol)


def test_commutant_of_single_factor_paulis():
    ops = [embed(SIGMA[u], 0, n=2) for u in "XYZ"]
    basis = commutant(ops, 4)
    assert len(basis) == 4
    for u in "IXYZ":
        assert in_span(basis, embed(SIGMA[u], 1, n=2))
    for b in basis:
        assert np.abs(b - b.conj().T).max() < 1e-9
        for e in ops:
            assert np.abs(b @ e - e @ b).max() < 1e-8
    # trace-orthonormal
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert np.trace(a.conj().T @ b) == pytest.approx(float(i == j), abs=1e-9)


def test_commutant_of_collective_spins():
    """Under collective rotations n spins split as the sum over j of
    H_j (x) C^(m_j), m_j = C(n, n/2 - j) - C(n, n/2 - j - 1), so the commutant
    has dimension sum_j m_j^2: 5 at n = 3 and 14 at n = 4.  (n = 5 gives 42
    but takes seconds.)"""
    bases = {}
    for n, dim in ((3, 5), (4, 14)):
        mult = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
        bases[n] = commutant([collective_spin(u, n).matrix for u in "XYZ"], 2 ** n)
        assert len(bases[n]) == sum(m * m for m in mult) == dim
    # the interaction algebra of every collective rotation on 3 spins lives in here
    basis = bases[3]
    assert in_span(basis, symmetric_projector(3))
    w = three_spin_noiseless().isometry.matrix
    logical_x = w @ np.kron(np.eye(2), SIGMA["X"]) @ w.conj().T
    assert in_span(basis, logical_x)


def test_commutant_of_identity_is_everything():
    basis = commutant([np.eye(3)], 3)
    assert len(basis) == 9


def test_permutation_operator_convention():
    u = permutation_operator((1, 2, 0))
    # |abc> -> |bca>: the state with a=1 lands with the 1 in the last slot
    psi = np.zeros(8)
    psi[4] = 1.0  # |100>
    assert np.argmax(u @ psi) == 1  # |001>
    # conjugation moves single-spin operators from slot 0 to slot 2
    z0 = embed(SIGMA["Z"], 0)
    z2 = embed(SIGMA["Z"], 2)
    assert np.allclose(u @ z0 @ u.conj().T, z2, atol=1e-12)
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1))


def test_symmetric_projector_rank_and_action():
    p = symmetric_projector(3)
    assert np.trace(p).real == pytest.approx(4.0)
    assert np.allclose(p @ p, p, atol=1e-12)
    ghz = np.zeros(8)
    ghz[0] = 1.0
    assert np.allclose(p @ ghz, ghz)
    wstate = np.zeros(8)
    wstate[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(p @ wstate, wstate, atol=1e-12)
    # the identified spin-1/2 pair lives entirely in the complement
    w = three_spin_noiseless().isometry.matrix
    assert np.abs(p @ w).max() < 1e-12


def test_built_noiseless_qubit_matches_printed_states():
    built = build_noiseless_qubit().isometry.matrix
    printed = three_spin_noiseless().isometry.matrix
    for k in range(4):
        overlap = abs(printed[:, k].conj() @ built[:, k])
        assert overlap > 1 - 1e-12


def test_noiseless_qubit_ignores_collective_rotations():
    ident = three_spin_noiseless()
    w = ident.isometry.matrix
    rng = np.random.default_rng(35)
    for _ in range(20):
        v = tuple(rng.normal(size=3) * 2.0)
        (_, u), = collective_rotation(v).ops
        # no leakage out of the identified subspace
        leak = np.abs(u @ w - w @ (w.conj().T @ u @ w)).max()
        assert leak < 1e-9
        # the compressed action factorizes as (syndrome block) x (identity)
        sigma = (w.conj().T @ u @ w).reshape(2, 2, 2, 2)
        block = sigma[:, 0, :, 0]
        dev = np.abs(sigma - np.einsum("st,ab->satb", block, np.eye(2))).max()
        assert dev < 1e-9


def test_noiseless_qubit_syndrome_reads_spin_operators():
    ident = three_spin_noiseless()
    w = ident.isometry.matrix
    jz2 = 2.0 * collective_spin("Z").matrix
    jx2 = 2.0 * collective_spin("X").matrix
    assert np.allclose(w.conj().T @ jz2 @ w,
                       np.kron(SIGMA["Z"], np.eye(2)), atol=1e-12)
    assert np.allclose(w.conj().T @ jx2 @ w,
                       np.kron(SIGMA["X"], np.eye(2)), atol=1e-12)


def test_three_cycle_acts_as_logical_rotation():
    # the cyclic permutation leaves the syndrome alone and rotates the
    # logical qubit by 240 degrees about z
    w = three_spin_noiseless().isometry.matrix
    pi1 = permutation_operator((1, 2, 0))
    omega = np.exp(-2j * np.pi / 3.0)
    want = np.kron(np.eye(2), np.diag([omega, omega.conjugate()]))
    assert np.allclose(w.conj().T @ pi1 @ w, want, atol=1e-12)
    # the last-two swap acts as a logical bit flip
    pi2 = permutation_operator((0, 2, 1))
    assert np.allclose(w.conj().T @ pi2 @ w,
                       np.kron(np.eye(2), SIGMA["X"]), atol=1e-12)
