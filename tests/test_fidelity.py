"""Entanglement fidelity, Monte Carlo averages, branch bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import rand_state, rand_unitary
import qecdesk.channels as channels_module
from qecdesk.channels import (
    KrausChannel,
    bit_flip,
    channel_from_unitary,
    cyclic_shift,
    depolarizing,
    remix_labels,
    tensor_channels,
    tensor_independent,
)
from qecdesk.fidelity import (
    average_error_from_entanglement,
    average_error_monte_carlo,
    bad_branch_error_bound,
    bad_branch_probability,
    entanglement_fidelity,
)
from qecdesk.hilbert import LinearOperator, StateVector, basis_state

def rand_channel(rng, d, env=3):
    u = LinearOperator((env, d), (env, d), rand_unitary(rng, env * d))
    init = StateVector((env,), np.eye(env)[0].astype(complex))
    basis = [StateVector((env,), np.eye(env)[i].astype(complex)) for i in range(env)]
    return channel_from_unitary(u, init, basis)


def test_entanglement_fidelity_depolarizing():
    for p in (0.0, 0.2, 0.6, 1.0):
        assert entanglement_fidelity(depolarizing(p)) == pytest.approx(
            1 - 3 * p / 4, abs=1e-12)


def test_entanglement_fidelity_bit_flip():
    for p in (0.0, 0.3, 1.0):
        assert entanglement_fidelity(bit_flip(p)) == pytest.approx(1 - p, abs=1e-12)


def bell_overlap_fidelity(ch, ref_unitary=None):
    """F_e built explicitly: a maximally entangled pair, noise on one half."""
    d = ch.dim
    bell = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    if ref_unitary is not None:
        bell = np.kron(ref_unitary, np.eye(d)) @ bell
    return sum(abs(np.vdot(bell, np.kron(np.eye(d), a) @ bell)) ** 2
               for _, a in ch.ops)


def test_entanglement_fidelity_closed_form_oracle():
    # oracle: the Bell-state overlap, with the plain and a Fourier-rotated
    # reference; both must agree with the closed form sum_e |tr A_e|^2 / d^2
    rng = np.random.default_rng(40)
    channels = [rand_channel(rng, d) for d in (2, 3, 4) for _ in range(3)]
    channels.append(tensor_channels(depolarizing(0.3), bit_flip(0.2), depolarizing(0.1)))
    for ch in channels:
        d = ch.dim
        k = np.arange(d)
        fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
        got = entanglement_fidelity(ch)
        assert got == pytest.approx(bell_overlap_fidelity(ch), abs=1e-12)
        assert got == pytest.approx(bell_overlap_fidelity(ch, fourier), abs=1e-12)


def test_entanglement_fidelity_invariant_under_remix():
    rng = np.random.default_rng(41)
    ch = rand_channel(rng, 2)
    u = rand_unitary(rng, len(ch.ops))
    assert entanglement_fidelity(remix_labels(ch, u)) == pytest.approx(
        entanglement_fidelity(ch), abs=1e-10)


def test_entanglement_fidelity_multiplies_over_factors():
    a, b = bit_flip(0.2), depolarizing(0.3)
    combo = tensor_channels(a, b)
    assert entanglement_fidelity(combo) == pytest.approx(
        entanglement_fidelity(a) * entanglement_fidelity(b), abs=1e-10)


def test_average_error_scaling():
    assert average_error_from_entanglement(0.3, 1) == pytest.approx(0.2)
    assert average_error_from_entanglement(0.5, 2) == pytest.approx(0.4)


def test_monte_carlo_depolarizing_has_no_variance():
    # pure-state error under depolarizing is p/2 for every input, so the
    # estimate is exact and its spread is zero
    est = average_error_monte_carlo(depolarizing(0.4), trials=500, seed=7)
    assert est.mean == pytest.approx(0.2, abs=1e-12)
    assert est.std_error < 1e-12
    assert est.trials == 500


def test_monte_carlo_seeded_value_is_pinned():
    # 2500 trials span three blocks of 1024; a changed block size or stream
    # layout moves these digits
    est = average_error_monte_carlo(tensor_channels(bit_flip(0.3), bit_flip(0.3)),
                                    trials=2500, seed=3)
    assert est.mean == pytest.approx(0.40635340650625323, abs=1e-12)
    assert est.std_error == pytest.approx(0.0015000896893653103, abs=1e-12)


def test_monte_carlo_matches_one_draw_per_block_oracle():
    # on 16 x 16 operators the estimator draws 256 trials at a time and
    # contracts whole operator blocks; the oracle draws each 1024-trial block
    # of the stream at once and sums |<psi|A|psi>|^2 one operator at a time
    ch = tensor_independent(bit_flip(0.2), 4)
    trials, seed = 1500, 11
    errs = []
    for index, start in enumerate(range(0, trials, 1024)):
        g = np.random.Generator(np.random.Philox(key=seed, counter=index * 2 ** 64))
        z = g.standard_normal((min(1024, trials - start), 16, 2))
        psi = z[..., 0] + 1j * z[..., 1]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        fid = sum(np.abs(np.einsum("nd,de,ne->n", psi.conj(), a, psi)) ** 2 for _, a in ch.ops)
        errs.append(1.0 - fid)
    errs = np.concatenate(errs)
    est = average_error_monte_carlo(ch, trials, seed=seed)
    assert est.mean == pytest.approx(errs.mean(), abs=1e-14)
    assert est.std_error == pytest.approx(errs.std(ddof=1) / math.sqrt(trials), abs=1e-14)


def test_monte_carlo_keeps_temporaries_small():
    # trials are chunked by both the operator size and the operators per
    # block: depolarizing^3 has 125 operators of 8 x 8, and 4096 operators of
    # 2 x 2 would make a 4096 x 1024 GEMM result (64 MiB) if only d set the chunk
    many = KrausChannel((2,), tuple((str(i), np.eye(2) / 64.0) for i in range(4096)))
    for ch in (tensor_independent(depolarizing(0.1), 3), many):
        tracemalloc.start()
        try:
            average_error_monte_carlo(ch, trials=2048, seed=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 3 * 2 ** 20


def test_monte_carlo_is_deterministic():
    ch = bit_flip(0.3)
    a = average_error_monte_carlo(ch, trials=2500, seed=3)
    b = average_error_monte_carlo(ch, trials=2500, seed=3)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = average_error_monte_carlo(ch, trials=2500, seed=4)
    assert c.mean != a.mean
    with pytest.raises(ValueError):
        average_error_monte_carlo(ch, trials=0)


def test_monte_carlo_matches_closed_form():
    # Haar average error = (d/(d+1)) * (1 - f_e)
    ch = bit_flip(0.3)
    want = average_error_from_entanglement(1 - entanglement_fidelity(ch), 1)
    est = average_error_monte_carlo(ch, trials=20000, seed=1)
    assert abs(est.mean - want) < 4 * est.std_error + 1e-12


def test_monte_carlo_two_qubit_channel():
    ch = tensor_channels(bit_flip(0.2), depolarizing(0.3))
    want = average_error_from_entanglement(1 - entanglement_fidelity(ch), 2)
    est = average_error_monte_carlo(ch, trials=20000, seed=2)
    assert abs(est.mean - want) < 4 * est.std_error + 1e-12


def test_bad_branch_probability_exact():
    # shift channel where the +1 branch is flagged
    ops = (
        ("0", math.sqrt(0.9) * np.eye(3)),
        ("1", math.sqrt(0.1) * cyclic_shift(3, 1)),
    )
    ch = KrausChannel((3,), ops, bad_labels=frozenset({"1"}))
    psi = basis_state((3,), 0)
    assert bad_branch_probability(ch, psi) == pytest.approx(0.1, abs=1e-12)
    assert bad_branch_probability(ch, psi, bad_labels={"0"}) == pytest.approx(0.9)
    assert bad_branch_probability(ch, psi, bad_labels=set()) == 0.0


def test_bad_branch_bound_dominates_exact():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        ch = rand_channel(rng, d, env=int(rng.integers(2, 4)))
        labels = ch.labels()
        take = max(1, int(rng.integers(1, len(labels) + 1)) - 1)
        bad = set(labels[:take])
        bound = bad_branch_error_bound(ch, bad)
        psi = StateVector((d,), rand_state(rng, d))
        assert bad_branch_probability(ch, psi, bad) <= bound + 1e-12


def test_bad_branch_bound_tight_for_unitary_branch():
    ops = (
        ("keep", math.sqrt(0.93) * np.eye(3)),
        ("slip", math.sqrt(0.07) * cyclic_shift(3, 2)),
    )
    ch = KrausChannel((3,), ops, bad_labels=frozenset({"slip"}))
    bound = bad_branch_error_bound(ch)
    assert bound == pytest.approx(0.07, abs=1e-12)
    rng = np.random.default_rng(43)
    psi = StateVector((3,), rand_state(rng, 3))
    assert bad_branch_probability(ch, psi) == pytest.approx(bound, abs=1e-12)


def test_bad_labels_the_channel_lacks_are_refused(monkeypatch):
    ch = tensor_independent(bit_flip(0.1), 3)
    psi = basis_state((2, 2, 2), 0)
    refusal = "bad_labels names 'xxq', which is not a label of the channel"

    def no_build(stacks):
        raise AssertionError("the label check built operators")

    with monkeypatch.context() as m:
        m.setattr(channels_module, "_kron_stack", no_build)
        with pytest.raises(ValueError, match=refusal):
            bad_branch_probability(ch, psi, {"xxq"})
        with pytest.raises(ValueError, match=refusal):
            bad_branch_error_bound(ch, {"xx0", "xxq"})
    # bad labels are read as strings, as operator labels are
    a = math.sqrt(0.5) * np.eye(2)
    one = KrausChannel((2,), ((0, a), (1, a)))
    zero = basis_state((2,), 0)
    assert bad_branch_probability(one, zero, {1}) == pytest.approx(0.5, abs=1e-15)
    assert bad_branch_error_bound(one, {1}) == pytest.approx(0.5, abs=1e-15)
    for mixed in (lambda: bad_branch_probability(one, zero, {"q", 1}),
                  lambda: bad_branch_error_bound(one, {"q", 1})):
        with pytest.raises(ValueError, match="^bad_labels names 'q', which is not a label"):
            mixed()
    # known labels still count: one flip on the third qubit
    assert bad_branch_probability(ch, psi, {"00x"}) == pytest.approx(0.1 * 0.9 ** 2, abs=1e-15)
    assert bad_branch_error_bound(ch, {"00x"}) == pytest.approx(0.1 * 0.9 ** 2, abs=1e-15)
