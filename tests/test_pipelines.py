"""End-to-end scenarios, Monte Carlo agreement, concatenation arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_state, rand_unitary
from oracles import (
    branch_tables,
    logical_matrix,
    sampled_counts,
    syndrome_loop_run,
    syndrome_reset,
)
from qecdesk.analysis import (
    correctable_quantum,
    decoder_identification,
    synthesize_decoder,
    weight_le_errors,
    weight_le_words,
)
from qecdesk.channels import (
    KrausChannel,
    bit_flip,
    collective_rotation,
    collective_spin,
    depolarizing,
    gaussian_shift,
    gaussian_shift_probabilities,
    identity_channel,
    tensor_channels,
    tensor_independent,
)
from qecdesk.cli import _round
from qecdesk.codes import (
    CodeSubspace,
    builtin_code,
    cyclic7,
    five_qubit,
    parse_code_text,
    repetition_quantum,
    stabilizer_codespace,
    three_spin_noiseless,
    trivial_two_qubit,
)
from qecdesk.gf2_symplectic import PauliProduct, StabilizerGeneratorSet, identity_word
from qecdesk.hilbert import DensityOperator, LinearOperator, StateVector, basis_state
from qecdesk.pipelines import (
    REPORTED_THRESHOLDS,
    _branches,
    _code_decoder,
    concat_recursion,
    run_corrected,
    run_cyclic,
    run_exact,
    run_monte_carlo,
)

PLUS = StateVector((2,), np.array([1.0, 1.0]) / math.sqrt(2))

# flip-pattern probabilities for three independent flips at p = 1/4
REP_QUARTER_ROWS = {
    ("00", "ok"): 27 / 64,
    ("01", "ok"): 9 / 64,
    ("10", "ok"): 9 / 64,
    ("11", "ok"): 9 / 64,
    ("00", "err"): 1 / 64,
    ("01", "err"): 3 / 64,
    ("10", "err"): 3 / 64,
    ("11", "err"): 3 / 64,
}


def test_run_exact_repetition_table():
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    report = run_exact(rep, ch, basis_state((2,), 0))
    for (s, l), want in REP_QUARTER_ROWS.items():
        assert report.outcome_probability(s, l) == pytest.approx(want, abs=1e-12)
    assert report.metrics["error"] == pytest.approx(0.15625, abs=1e-12)
    assert report.metrics["success"] == pytest.approx(1 - 0.15625, abs=1e-12)
    assert report.metrics["fail"] == pytest.approx(0.0, abs=1e-12)
    # conditioned logical state: mostly |0>, the rest flipped
    assert report.logical_rho[0, 0].real == pytest.approx(1 - 0.15625, abs=1e-12)


def test_run_exact_probabilities_sum_to_one():
    rep = repetition_quantum()
    ch = tensor_independent(depolarizing(0.37), 3)
    report = run_exact(rep, ch, PLUS)
    assert math.fsum(p for _, _, p in report.outcomes) == pytest.approx(1.0, abs=1e-9)


def test_run_exact_superposition_protected():
    # every flip pattern acts on the logical factor as identity or a logical
    # flip, and |+> survives both
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    report = run_exact(rep, ch, PLUS)
    assert report.metrics["error"] <= 1e-9
    assert report.metrics["success"] == pytest.approx(1.0, abs=1e-9)


def test_run_exact_guards():
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    with pytest.raises(ValueError):
        run_exact(rep, ch, basis_state((4,), 0))
    with pytest.raises(ValueError):
        run_exact(rep, ch, StateVector((2,), np.array([1.0, 1.0])))
    with pytest.raises(ValueError):
        run_exact(rep, bit_flip(0.25), basis_state((2,), 0))


def test_run_exact_invariant_under_branch_remix():
    from conftest import rand_unitary
    from qecdesk.channels import remix_labels

    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.3), 3)
    rng = np.random.default_rng(50)
    mixed = remix_labels(ch, rand_unitary(rng, len(ch.ops)))
    a = run_exact(rep, ch, PLUS)
    b = run_exact(rep, mixed, PLUS)
    for s, l, p in a.outcomes:
        assert b.outcome_probability(s, l) == pytest.approx(p, abs=1e-9)


def cyclic_rows_oracle(K=20):
    """Independent scalar enumeration of the seven-level shift scenario."""
    probs = gaussian_shift_probabilities(K)
    labels = ("-1", "0", "1")
    place = {k: (k % 3, k // 3) for k in range(6)}  # level -> (syndrome, logical)
    rows = {}
    fail = 0.0
    for k, q in probs.items():
        amp = {(1 + k) % 7: math.sqrt(q) / math.sqrt(2),
               (4 + k) % 7: math.sqrt(q) / math.sqrt(2)}
        fail += abs(amp.get(6, 0.0)) ** 2
        for s in range(3):
            block = np.zeros(2, dtype=complex)
            for level, a in amp.items():
                if level != 6 and place[level][0] == s:
                    block[place[level][1]] += a
            p_s = float(np.vdot(block, block).real)
            p_ok = abs((block[0] + block[1]) / math.sqrt(2)) ** 2
            rows[(labels[s], "ok")] = rows.get((labels[s], "ok"), 0.0) + min(p_ok, p_s)
            rows[(labels[s], "err")] = rows.get((labels[s], "err"), 0.0) + p_s - min(p_ok, p_s)
    rows[("fail", "")] = fail
    return rows


def test_run_cyclic_matches_independent_enumeration():
    report = run_cyclic()
    oracle = cyclic_rows_oracle()
    for (s, l), want in oracle.items():
        assert report.outcome_probability(s, l) == pytest.approx(want, abs=1e-12), (s, l)
    assert report.metrics["fail"] == pytest.approx(oracle[("fail", "")], abs=1e-12)


def test_run_cyclic_reported_metrics():
    report = run_cyclic()
    m = report.metrics
    probs = gaussian_shift_probabilities(20)
    assert m["shift0_p"] == pytest.approx(0.5641, abs=1e-4)
    assert m["shift1_p"] == pytest.approx(0.2075, abs=1e-4)
    assert m["shift_le1_mass"] == pytest.approx(0.9792, abs=1e-4)
    assert m["success"] >= 0.9792 - 1e-4
    # a shift by two forks evenly: half detected, half accepted at the wrong
    # syndrome, where the |+> reference halves it again
    assert m["fail"] == pytest.approx(probs[2], abs=1e-9)
    assert report.outcome_probability("-1", "err") == pytest.approx(
        probs[2] / 4 + probs[3] / 4 + probs[4] / 4, abs=1e-10)


def test_run_corrected_weight_one_noise_is_perfect():
    code = builtin_code("fivequbit").subspace
    _, recovery = synthesize_decoder(code, weight_le_errors(5, 1))
    # noise confined to one qubit stays within the corrected span
    one = identity_channel((2,))
    ch = tensor_channels(one, bit_flip(0.4), one, one, one)
    rng = np.random.default_rng(51)
    report = run_corrected(code, recovery, ch,
                           StateVector((2,), rand_state(rng, 2)))
    assert report.metrics["success"] == pytest.approx(1.0, abs=1e-9)
    assert report.metrics["error"] == pytest.approx(0.0, abs=1e-9)
    assert report.metrics["fail"] == pytest.approx(0.0, abs=1e-12)


def test_run_corrected_against_coset_oracle():
    """Success under product depolarizing equals the coset enumeration.

    Every five-qubit Pauli word w fires with a known probability; the decoder
    applies the inverse of the unique weight<=1 representative of w's
    syndrome, so the surviving logical action is leader*w, and the ok mass is
    the squared overlap it leaves on the encoded input.
    """
    stab = builtin_code("fivequbit").stabilizers
    code = builtin_code("fivequbit").subspace
    _, recovery = synthesize_decoder(code, weight_le_errors(5, 1))

    leaders = {}
    err_list = weight_le_errors(5, 1)
    words = [identity_word(5)]
    for label, _ in err_list[1:]:
        letter, pos = label[0], int(label[1:]) - 1
        from qecdesk.gf2_symplectic import single_qubit_word
        words.append(single_qubit_word(5, pos, letter))
    for w in words:
        syndrome = tuple(int(not w.commutes(g)) for g in stab.generators)
        assert syndrome not in leaders
        leaders[syndrome] = w

    p = 0.14
    rng = np.random.default_rng(52)
    psi_in = StateVector((2,), rand_state(rng, 2))
    psi_enc = code.basis_matrix() @ psi_in.amplitudes

    expected = 0.0
    for a in range(32):
        for b in range(32):
            w = PauliProduct(5, a, b, 0)
            prob = (1 - 3 * p / 4) ** (5 - w.weight()) * (p / 4) ** w.weight()
            residue = leaders[tuple(int(not w.commutes(g))
                                    for g in stab.generators)].multiply(w)
            amp = psi_enc.conj() @ residue.dense() @ psi_enc
            expected += prob * abs(amp) ** 2

    report = run_corrected(code, recovery, tensor_independent(depolarizing(p), 5),
                           psi_in)
    assert report.metrics["success"] == pytest.approx(expected, abs=1e-9)
    assert report.metrics["fail"] == pytest.approx(0.0, abs=1e-12)
    assert math.fsum(p_ for _, _, p_ in report.outcomes) == pytest.approx(1.0, abs=1e-9)


def dense_corrected_oracle(code, recovery, channel, psi):
    """The dense recovery path: rho through every noise operator, then
    r rho r^dag for each recovery operator r and C^dag (.) C on the good
    branches; the bad branches' mass is the fail row."""
    cmat = code.basis_matrix()
    enc = cmat @ psi
    rho = channel.apply_matrix(np.outer(enc, enc.conj()))
    rows = {}
    logical = np.zeros((code.dim, code.dim), dtype=complex)
    fail = 0.0
    for label, r in recovery.ops:
        branch = r @ rho @ r.conj().T
        p = float(np.trace(branch).real)
        if label in recovery.bad_labels:
            fail += p
            continue
        block = cmat.conj().T @ branch @ cmat
        p_ok = min(max(float(np.vdot(psi, block @ psi).real), 0.0), p)
        rows[(label, "ok")] = p_ok
        rows[(label, "err")] = p - p_ok
        logical += block
    if recovery.bad_labels:
        rows[("fail", "")] = fail
    return rows, logical / np.trace(logical).real


STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]


def oracle_case(name):
    """(code, errors, noise, syndromes, complete) for each cross-checked case.

    On a real code with Pauli errors, R_k^T C spans the same syndrome blocks
    as R_k^dag C, so the bit-flip five-qubit case turns the code and its
    errors by a Haar-random unitary V (C -> V C, E -> V E V^dag).
    """
    five = five_qubit()[1]
    if name == "five/depolarizing^5":
        return five, weight_le_errors(5, 1), tensor_independent(depolarizing(0.1), 5), 16, True
    if name == "five/bitflip^5":
        return five, weight_le_errors(5, 1), tensor_independent(bit_flip(0.2), 5), 16, True
    if name == "five-turned/bitflip^5":
        v = rand_unitary(np.random.default_rng(54), 32)
        turned = CodeSubspace(LinearOperator((2,), five.physical_dims, v @ five.basis_matrix()))
        errors = [(label, v @ e @ v.conj().T) for label, e in weight_le_errors(5, 1)]
        return turned, errors, tensor_independent(bit_flip(0.2), 5), 16, True
    if name == "steane/bitflip^7":
        steane = stabilizer_codespace(StabilizerGeneratorSet.from_strings(STEANE))
        return steane, weight_le_errors(7, 1), tensor_independent(bit_flip(0.1), 7), 22, False
    spins = [("I", np.eye(8))] + [(f"2J{u}", 2 * collective_spin(u).matrix) for u in "XYZ"]
    rot = collective_rotation((0.3, -0.7, 1.1)).operator("rot")
    kick = np.kron(np.array([[0, 1], [1, 0]]), np.eye(4))
    noise = KrausChannel((2, 2, 2), (("rot", math.sqrt(0.8) * rot), ("x1", math.sqrt(0.2) * kick)))
    return three_spin_noiseless().code_subspace, spins, noise, 2, False


@pytest.mark.parametrize("name", ["five/depolarizing^5", "five/bitflip^5",
                                  "five-turned/bitflip^5",
                                  "steane/bitflip^7", "threespin/spins"])
def test_run_corrected_matches_dense_recovery_oracle(name):
    """The isometry path, given the decoder or its recovery channel, agrees
    row by row with r rho r^dag over the recovery operators."""
    code, errors, noise, syndromes, complete = oracle_case(name)
    ident, recovery = synthesize_decoder(code, errors)
    assert ident.syndrome_dim == syndromes and ident.is_complete() == complete
    assert recovery.bad_labels == (frozenset() if complete else frozenset({"fail"}))
    rng = np.random.default_rng(53)
    for _ in range(2):
        psi = rand_state(rng, 2)
        rows, logical = dense_corrected_oracle(code, recovery, noise, psi)
        assert len(rows) == 2 * syndromes + (not complete)
        for decoder in (ident, recovery):
            report = run_corrected(code, decoder, noise, StateVector((2,), psi))
            assert [(s, l) for s, l, _ in report.outcomes] == list(rows)
            for s, l, p in report.outcomes:
                assert abs(p - rows[(s, l)]) <= 1e-12, (name, s, l)
            assert np.abs(report.logical_rho - logical).max() <= 1e-12
            assert report.metrics["fail"] == pytest.approx(rows.get(("fail", ""), 0.0),
                                                           abs=1e-12)


def table_case(name):
    """(identification, noise, code) for each case checked against the loop
    oracles; code is None where run_exact encodes by the identification, and
    otherwise the subspace that run_corrected encodes into."""
    rep = repetition_quantum()
    if name == "repetition3/bitflip^3":
        return rep, tensor_independent(bit_flip(0.25), 3), None
    if name == "repetition3/depolarizing^3":
        return rep, tensor_independent(depolarizing(0.2), 3), None
    if name == "repetition3/zero-mass-branches":
        return rep, tensor_channels(bit_flip(0.0), depolarizing(0.2), bit_flip(0.3)), None
    if name == "cyclic7/gaussian7":
        return cyclic7(), gaussian_shift(7, 20), None
    if name == "threespin/rotation":
        return three_spin_noiseless(), collective_rotation((0.3, -0.7, 1.1)), None
    if name == "threespin/bitflip^3":
        return three_spin_noiseless(), tensor_independent(bit_flip(0.1), 3), None
    if name == "trivial2/depolarizing^2":
        return trivial_two_qubit(), tensor_independent(depolarizing(0.3), 2), None
    code = builtin_code("fivequbit").subspace
    noise = tensor_independent(depolarizing(0.1), 5)
    if name == "five/identification":
        verdict = correctable_quantum(code, weight_le_words(5, 1))
        return decoder_identification(code, verdict), noise, code
    _, recovery = synthesize_decoder(code, weight_le_errors(5, 1))
    return _code_decoder(code, recovery), noise, code


TABLE_CASES = ["repetition3/bitflip^3", "repetition3/depolarizing^3",
               "repetition3/zero-mass-branches", "cyclic7/gaussian7",
               "threespin/rotation", "threespin/bitflip^3", "trivial2/depolarizing^2",
               "five/identification", "five/recovery"]


def table_inputs(ident, code, seed):
    """Two Haar inputs as (state, encoded amplitudes)."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        psi = StateVector((ident.logical_dim,), rand_state(rng, ident.logical_dim))
        enc = ident.encode(psi).amplitudes if code is None else code.basis_matrix() @ psi.amplitudes
        yield psi, enc


@pytest.mark.parametrize("name", TABLE_CASES)
def test_exact_tables_match_the_syndrome_loop_oracle(name):
    ident, noise, code = table_case(name)
    for psi, enc in table_inputs(ident, code, 55):
        if code is None:
            report = run_exact(ident, noise, psi)
        else:
            report = run_corrected(code, ident, noise, psi)
        oracle = syndrome_loop_run(ident, noise, psi, enc, "", "")
        assert [(s, l) for s, l, _ in report.outcomes] == \
            [(s, l) for s, l, _ in oracle.outcomes]
        for (_, _, got), (_, _, want) in zip(report.outcomes, oracle.outcomes):
            assert abs(got - want) <= 1e-15, name
        assert np.abs(report.logical_rho - oracle.logical_rho).max() <= 1e-15
        assert report.metrics.keys() == oracle.metrics.keys()
        for k, want in oracle.metrics.items():
            assert abs(report.metrics[k] - want) <= 1e-15, (name, k)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_branch_tables_match_the_per_branch_oracle(name):
    """Branch masses and per-branch outcome tables against the per-branch,
    per-syndrome loop; a Monte Carlo run lists the oracle's rows, with the
    fail row only for a partial W."""
    ident, noise, code = table_case(name)
    for psi, enc in table_inputs(ident, code, 56):
        rows, qs_want, tables_want = branch_tables(ident, noise, enc, psi.amplitudes)
        qs, tables = _branches(ident, noise, psi.amplitudes, enc)
        assert qs.shape == qs_want.shape and tables.shape == tables_want.shape
        assert np.abs(qs - qs_want).max() <= 1e-15
        assert np.abs(tables - tables_want).max() <= 1e-15
        if name == "repetition3/zero-mass-branches":
            assert (qs_want <= 1e-30).sum() == len(qs) // 2  # the bit_flip(0.0) "x" half
        mc = run_monte_carlo(ident, noise, psi, trials=100, seed=1, code=code)
        listed = rows if not ident.is_complete() else rows[:-1]
        assert [(s, l) for s, l, _ in mc.outcomes] == listed


@pytest.mark.parametrize("name", ["cyclic7/gaussian7", "five/identification"])
def test_monte_carlo_draws_match_the_per_trial_oracle(name):
    """Seeded counts against one trial at a time on the per-branch tables:
    41 and 3,125 branches, 9,000 trials across two Philox blocks."""
    ident, noise, code = table_case(name)
    for psi, enc in table_inputs(ident, code, 59):
        rows, counts = sampled_counts(ident, noise, enc, psi.amplitudes, 9000, 4)
        mc = run_monte_carlo(ident, noise, psi, trials=9000, seed=4, code=code)
        want = {(s, l): c / 9000.0 for (s, l), c in zip(rows, counts)}
        assert [(s, l, p) for s, l, p in mc.outcomes] == \
            [(s, l, want[s, l]) for s, l, _ in mc.outcomes]
        assert mc.metrics["fail"] == want["fail", ""]


@pytest.mark.parametrize("name", ["repetition3/bitflip^3", "cyclic7/gaussian7",
                                  "threespin/bitflip^3"])
def test_monte_carlo_encodes_alike_with_and_without_the_code(name):
    """An identification encodes into its own code exactly as C psi does, so
    a seeded run draws the same outcomes either way."""
    ident, noise, _ = table_case(name)
    for psi, _ in table_inputs(ident, None, 57):
        bare = run_monte_carlo(ident, noise, psi, trials=20000, seed=9)
        coded = run_monte_carlo(ident, noise, psi, trials=20000, seed=9,
                                code=ident.code_subspace)
        assert coded.outcomes == bare.outcomes and coded.metrics == bare.metrics


@pytest.mark.parametrize("name", ["repetition3/depolarizing^3", "cyclic7/gaussian7",
                                  "threespin/bitflip^3", "trivial2/depolarizing^2"])
def test_run_exact_is_run_corrected_on_the_identifications_own_code(name):
    ident, noise, _ = table_case(name)
    for psi, _ in table_inputs(ident, None, 58):
        exact = run_exact(ident, noise, psi)
        coded = run_corrected(ident.code_subspace, ident, noise, psi)
        assert exact.outcomes == coded.outcomes and exact.metrics == coded.metrics
        assert np.array_equal(exact.logical_rho, coded.logical_rho)


def test_an_identification_builds_its_code_once(monkeypatch):
    built = []
    post_init = CodeSubspace.__post_init__
    monkeypatch.setattr(CodeSubspace, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    ident, noise = cyclic7(), gaussian_shift(7, 20)
    for _ in range(3):
        run_exact(ident, noise, PLUS)
        run_monte_carlo(ident, noise, PLUS, trials=10)
        ident.encode(PLUS)
    assert len(built) == 1


def test_run_corrected_refuses_decoders_that_do_not_fit_the_code():
    code = five_qubit()[1]
    half = math.sqrt(0.5) * np.eye(32, dtype=complex)
    split = KrausChannel((2,) * 5, (("a", half), ("b", half)))
    noise = tensor_independent(bit_flip(0.1), 5)
    with pytest.raises(ValueError, match="not an isometry"):
        run_corrected(code, split, noise, PLUS)
    three = three_spin_noiseless()
    with pytest.raises(ValueError, match="decoder does not match the code"):
        run_corrected(code, three, noise, PLUS)


def test_run_refusals_name_the_values():
    rep = repetition_quantum()
    noise = tensor_independent(bit_flip(0.1), 3)
    with pytest.raises(ValueError, match=r"^input state is not normalized: norm 2\.0$"):
        run_exact(rep, noise, StateVector((2,), np.array([2.0, 0.0])))
    with pytest.raises(ValueError, match=r"^channel dims \(2,\) do not match the code's \(2, 2, 2\)$"):
        run_exact(rep, bit_flip(0.1), PLUS)


def test_run_refuses_a_nan_input_state():
    noise = tensor_independent(bit_flip(0.1), 3)
    with pytest.raises(ValueError, match=r"^input state is not normalized: norm nan$"):
        run_exact(repetition_quantum(), noise, StateVector((2,), np.array([np.nan, 0.0])))


def test_reset_between_rounds_beats_no_reset():
    rep = repetition_quantum()
    p = 0.2
    ch = tensor_independent(bit_flip(p), 3)
    enc = rep.encode(basis_state((2,), 0))
    rho0 = np.outer(enc.amplitudes, enc.amplitudes.conj())

    # two rounds with a syndrome reset in between
    mid = syndrome_reset(rep, DensityOperator((2, 2, 2), ch.apply_matrix(rho0)))
    two_reset = ch.apply_matrix(mid.matrix)
    rho_l, _ = logical_matrix(rep, two_reset)
    err_reset = 1.0 - rho_l[0, 0].real

    # two rounds back to back
    rho_l2, _ = logical_matrix(rep, ch.apply_matrix(ch.apply_matrix(rho0)))
    err_plain = 1.0 - rho_l2[0, 0].real

    eps = 3 * p**2 - 2 * p**3
    assert err_reset == pytest.approx(2 * eps * (1 - eps), abs=1e-12)
    q = 2 * p * (1 - p)
    assert err_plain == pytest.approx(3 * q**2 - 2 * q**3, abs=1e-12)
    assert err_reset < err_plain


def test_run_monte_carlo_agrees_with_exact():
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    exact = run_exact(rep, ch, basis_state((2,), 0))
    mc = run_monte_carlo(rep, ch, basis_state((2,), 0), trials=100_000, seed=5)
    band = 4 * mc.metrics["error_std"] + 1e-12
    assert abs(mc.metrics["error"] - exact.metrics["error"]) < band
    for s, l, p in exact.outcomes:
        sample = mc.outcome_probability(s, l)
        sigma = math.sqrt(max(p * (1 - p), 1e-30) / mc.trials)
        assert abs(sample - p) < 4 * sigma + 1e-12, (s, l)


def sampled_case(name):
    """(code, weight-1 decoder, noise, input) for the Monte Carlo runs on a code."""
    if name == "five/depolarizing^5":
        code, n, noise, psi = builtin_code("fivequbit").subspace, 5, depolarizing(0.1), PLUS
    else:
        code = parse_code_text("\n".join(STEANE), name="steane.txt").subspace
        n, noise, psi = 7, bit_flip(0.1), basis_state((2,), 0)
    decoder = decoder_identification(code, correctable_quantum(code, weight_le_words(n, 1)))
    return code, decoder, tensor_independent(noise, n), psi


@pytest.mark.parametrize("name", ["five/depolarizing^5", "steane/bitflip^7"])
def test_run_monte_carlo_on_a_code_agrees_with_run_corrected(name):
    code, decoder, noise, psi = sampled_case(name)
    exact = run_corrected(code, decoder, noise, psi)
    mc = run_monte_carlo(decoder, noise, psi, 100_000, 3, code=code)
    if name == "steane/bitflip^7":
        assert exact.metrics["error"] == pytest.approx(0.1306432, abs=1e-7)
        assert exact.outcomes[-1][0] == "fail"
    assert [(s, l) for s, l, _ in mc.outcomes] == [(s, l) for s, l, _ in exact.outcomes]
    for s, l, p in exact.outcomes:
        sigma = math.sqrt(max(p * (1 - p), 1e-30) / mc.trials)
        assert abs(mc.outcome_probability(s, l) - p) < 5 * sigma + 1e-12, (name, s, l)


def test_run_monte_carlo_cyclic_fail_rate():
    exact = run_cyclic()
    ident = cyclic7()
    from qecdesk.channels import gaussian_shift

    mc = run_monte_carlo(ident, gaussian_shift(7, 20), PLUS,
                         trials=100_000, seed=6)
    want = exact.metrics["fail"]
    sigma = math.sqrt(want * (1 - want) / mc.trials)
    assert abs(mc.metrics["fail"] - want) < 4 * sigma + 1e-12


def test_run_monte_carlo_seeded_outcomes_are_pinned():
    # 20000 trials span three blocks of 8192; a changed block size or stream
    # layout moves these counts
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    mc = run_monte_carlo(rep, ch, StateVector((2,), np.array([0.6, 0.8])),
                         trials=20000, seed=9)
    assert mc.outcomes == (
        ("00", "ok", 0.4401), ("00", "err", 0.00155),
        ("01", "ok", 0.1834), ("01", "err", 0.004),
        ("10", "ok", 0.1819), ("10", "err", 0.0035),
        ("11", "ok", 0.18225), ("11", "err", 0.0033),
    )
    assert mc.metrics["error"] == pytest.approx(0.01235, abs=1e-15)


def test_run_monte_carlo_is_deterministic():
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    a = run_monte_carlo(rep, ch, PLUS, trials=3000, seed=9)
    b = run_monte_carlo(rep, ch, PLUS, trials=3000, seed=9)
    assert a.outcomes == b.outcomes
    assert a.seed == 9 and a.trials == 3000
    with pytest.raises(ValueError):
        run_monte_carlo(rep, ch, PLUS, trials=0)


def test_report_json_layout():
    rep = repetition_quantum()
    ch = tensor_independent(bit_flip(0.25), 3)
    report = run_exact(rep, ch, basis_state((2,), 0), input_desc="|0>")
    data = _round(report.to_json(), 4)
    assert list(data.keys()) == ["scenario", "input", "outcomes", "logical_rho",
                                 "metrics"]
    assert data["outcomes"][0] == {"syndrome": "00", "logical": "ok", "p": 0.4219}
    assert data["logical_rho"][0][0] == [0.8438, 0.0]
    mc = run_monte_carlo(rep, ch, PLUS, trials=100, seed=1)
    assert list(mc.to_json().keys())[-2:] == ["seed", "trials"]


def test_concat_iterated_equals_closed_form():
    for p, c in ((Fraction(1, 1000), Fraction(100)), (Fraction(3, 17), Fraction(7, 2))):
        res = concat_recursion(p, c, levels=10)
        closed = tuple(c ** (2 ** (j - 1) - 1) * p ** (2 ** (j - 1)) for j in range(1, 11))
        assert res.levels_exact == closed
        assert res.levels_exact[0] == p
        for j in range(9):
            assert res.levels_exact[j + 1] == c * res.levels_exact[j] ** 2


def test_concat_hundredfold_example():
    res = concat_recursion(1e-3, 100, levels=4)
    assert res.levels == pytest.approx((1e-3, 1e-4, 1e-6, 1e-10), rel=1e-12)
    assert res.resources == (1, 3, 9, 27)
    assert res.improving


def test_concat_improvement_boundary():
    at = concat_recursion(Fraction(1, 100), 100, levels=5)
    assert not at.improving
    assert len(set(at.levels_exact)) == 1  # fixed point of the recursion
    below = concat_recursion(Fraction(1, 100) - Fraction(1, 10**9), 100, levels=5)
    assert below.improving
    assert all(a > b for a, b in zip(below.levels_exact, below.levels_exact[1:]))
    above = concat_recursion(Fraction(2, 100), 100, levels=4)
    assert not above.improving
    assert all(a < b for a, b in zip(above.levels_exact, above.levels_exact[1:]))


def test_concat_resources_follow_block_size():
    res = concat_recursion(Fraction(1, 10), 2, levels=3, block=7)
    assert res.resources == (1, 7, 49)
    assert res.to_json()["block"] == 7


def test_concat_guards():
    with pytest.raises(ValueError):
        concat_recursion(0.5, 10, levels=0)
    with pytest.raises(ValueError):
        concat_recursion(0.5, 10, levels=3, block=1)
    with pytest.raises(ValueError):
        concat_recursion(1.5, 10, levels=3)
    with pytest.raises(ValueError):
        concat_recursion(0.5, 0, levels=3)


def test_concat_levels_are_refused_by_their_bit_count():
    # p = 1/1000, C = 100: 18 levels need 2,490,360 bits, 19 levels 4,980,728;
    # from 25 levels on 2^(L-1) alone passes the cap and is refused unformed
    for levels, bits in ((19, "4980728"), (20, "9961464"), (30, r"2\*\*29"),
                         (65, r"2\*\*64"), (10**9, r"2\*\*999999999")):
        with pytest.raises(ValueError, match=f"bit count {bits} exceeds cap MAX_CONCAT_BITS"):
            concat_recursion(Fraction(1, 1000), 100, levels=levels)
    # the bound covers the exact rationals it admits
    for p, c in ((Fraction(1, 1000), Fraction(100)), (Fraction(2, 31), Fraction(5, 4)),
                 (Fraction(3, 17), Fraction(7, 2))):
        last = concat_recursion(p, c, levels=10).levels_exact[-1]
        bits = last.numerator.bit_length() + last.denominator.bit_length()
        assert bits <= 2 ** 9 * (p.numerator.bit_length() + p.denominator.bit_length()) \
            + (2 ** 9 - 1) * (c.numerator.bit_length() + c.denominator.bit_length())


def test_reported_thresholds_present():
    assert REPORTED_THRESHOLDS["depolarizing_believed"] == 1e-4
    assert REPORTED_THRESHOLDS["local_gates_conservative"] == 1e-6
    assert REPORTED_THRESHOLDS["erasure"] == 1e-2
    assert REPORTED_THRESHOLDS["known_basis_measurement"] == 1.0
