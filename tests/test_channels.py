"""Kraus channels: construction guards, named noise models, twirling."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import rand_density, rand_state, rand_unitary
import oracles
from oracles import flat_apply_matrix, flat_entanglement_fidelity, pauli_kraus
import qecdesk.channels as channels_module
from qecdesk.analysis import (
    correctable_quantum,
    decoder_identification,
    synthesize_decoder,
    weight_le_errors,
    weight_le_words,
)
from qecdesk.channels import (
    KrausChannel,
    MAX_KRAUS_OPS,
    PauliChannel,
    _gram,
    bit_flip,
    channel_from_unitary,
    collective_rotation,
    collective_rotations,
    collective_spin,
    cyclic_shift,
    depolarizing,
    gaussian_shift,
    gaussian_shift_probabilities,
    identity_channel,
    parse_channel_spec,
    remix_labels,
    tensor_channels,
    tensor_independent,
    twirl,
)
from qecdesk.codes import builtin_code
from qecdesk.fidelity import bad_branch_error_bound, bad_branch_probability, entanglement_fidelity
from qecdesk.hilbert import DensityOperator, LinearOperator, StateVector, basis_state
from qecdesk.pipelines import PLUS, run_corrected, run_monte_carlo

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rand_channel(rng, d, env=3):
    """Random channel by tracing a random environment out of a random unitary."""
    u = LinearOperator((env, d), (env, d), rand_unitary(rng, env * d))
    init = StateVector((env,), np.eye(env)[0].astype(complex))
    basis = [StateVector((env,), np.eye(env)[i].astype(complex)) for i in range(env)]
    return channel_from_unitary(u, init, basis)


def test_channel_rejects_incomplete_operator_sum():
    with pytest.raises(ValueError):
        KrausChannel((2,), (("0", 0.5 * np.eye(2)),))
    with pytest.raises(ValueError):
        KrausChannel((2,), (("0", np.eye(2)), ("1", 0.1 * SIGMA["X"])))


def test_channel_rejects_duplicate_labels_and_bad_shapes():
    a = math.sqrt(0.5) * np.eye(2)
    with pytest.raises(ValueError):
        KrausChannel((2,), (("0", a), ("0", a)))
    with pytest.raises(ValueError):
        KrausChannel((2,), (("0", np.eye(3)),))
    with pytest.raises(ValueError):
        KrausChannel((2,), (("0", np.eye(2)),), bad_labels=frozenset({"zz"}))
    # bad labels are read as strings, as operator labels are
    assert KrausChannel((2,), ((0, a), (1, a)), bad_labels={1}).bad_labels == {"1"}
    with pytest.raises(ValueError, match="^bad_labels names 'q', which is not a label"):
        KrausChannel((2,), ((0, a), (1, a)), bad_labels={"q", 1})


def test_channel_operator_lookup():
    ch = bit_flip(0.25)
    assert ch.labels() == ["0", "x"]
    assert np.allclose(ch.operator("x"), 0.5 * SIGMA["X"])
    with pytest.raises(KeyError):
        ch.operator("q")


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(10)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        ch = rand_channel(rng, d)
        rho = DensityOperator((d,), rand_density(rng, d))
        out = ch.apply(rho)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10
        out.check_positive()


def test_depolarizing_action_formula():
    rng = np.random.default_rng(11)
    for p in (0.0, 0.1, 0.5, 1.0):
        ch = depolarizing(p)
        rho = rand_density(rng, 2)
        kick = sum(SIGMA[u] @ rho @ SIGMA[u] for u in "XYZ")
        want = (1 - 3 * p / 4) * rho + (p / 4) * kick
        assert np.allclose(ch.apply_matrix(rho), want, atol=1e-12)


def test_depolarizing_half_on_ground_state():
    out = depolarizing(0.5).apply(DensityOperator((2,), np.diag([1.0, 0.0])))
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_depolarizing_labels_and_guards():
    assert depolarizing(0.3).labels() == ["0", "1", "x", "y", "z"]
    with pytest.raises(ValueError):
        depolarizing(1.5)
    with pytest.raises(ValueError):
        bit_flip(-0.1)


def test_cyclic_shift_matrix():
    s = cyclic_shift(7, 2)
    v = np.zeros(7)
    v[6] = 1.0
    assert np.allclose(s @ v, np.eye(7)[1])  # 6+2 wraps to 1
    assert np.allclose(s.conj().T @ s, np.eye(7))


def test_gaussian_shift_probabilities_against_direct_sum():
    # independent oracle: renormalized e^(-k^2) weights
    K = 20
    z = math.fsum(math.exp(-k * k) for k in range(-K, K + 1))
    probs = gaussian_shift_probabilities(K)
    assert abs(math.fsum(probs.values()) - 1.0) < 1e-14
    for k in range(-K, K + 1):
        assert probs[k] == pytest.approx(math.exp(-k * k) / z, abs=1e-15)
        assert probs[k] == probs[-k]
    # reported four-digit values
    assert abs(probs[0] - 0.5641) < 1e-4
    assert abs(probs[1] - 0.2075) < 1e-4
    assert abs(probs[2] - 0.0103) < 1e-4
    # and the frozen ten-digit ones
    assert probs[0] == pytest.approx(0.5641312262, abs=1e-10)
    assert probs[1] == pytest.approx(0.2075322802, abs=1e-10)
    assert probs[2] == pytest.approx(0.0103324238, abs=1e-10)


def test_gaussian_shift_channel_matches_probabilities():
    ch = gaussian_shift(7, 20)
    probs = gaussian_shift_probabilities(20)
    assert len(ch.ops) == 41
    for k in (-2, -1, 0, 1, 2):
        a = ch.operator(str(k))
        assert np.allclose(a, math.sqrt(probs[k]) * cyclic_shift(7, k), atol=1e-15)
    # truncation point barely matters: K=5 already reproduces the four digits
    short = gaussian_shift_probabilities(5)
    assert abs(short[0] - 0.5641) < 1e-4


def test_collective_spin_eigenvalues():
    jz = collective_spin("Z", 3)
    w = np.linalg.eigvalsh(jz.matrix)
    assert np.allclose(sorted(w), [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5])


def test_word_built_paulis_match_the_kronecker_chain():
    """_SIGMA and every J_u come from Pauli words' dense(); they equal the
    Kronecker chains of the 2 x 2 Paulis byte for byte, which the three-spin
    golden relies on."""
    for u, sigma in zip("IXYZ", oracles.PAULI_1Q):
        assert channels_module._SIGMA[u].tobytes() == sigma.tobytes(), u
    for k, u in enumerate("XYZ", 1):
        for n in range(1, 7):
            terms = [functools.reduce(np.kron, [oracles.PAULI_1Q[k if j == i else 0]
                                                for j in range(n)]) for i in range(n)]
            want = 0.5 * sum(terms)
            got = collective_spin(u, n).matrix
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (u, n)
    with pytest.raises(ValueError, match="unknown Pauli label 'Q'"):
        collective_spin("Q", 2)


def test_collective_rotation_is_unitary_and_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = tuple(rng.normal(size=3))
        (label, u), = collective_rotation(v).ops
        assert label == "rot"
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-10)
        # commutes with the total-spin operators' Casimir
        j2 = sum(collective_spin(a).matrix @ collective_spin(a).matrix for a in "XYZ")
        assert np.allclose(u @ j2, j2 @ u, atol=1e-9)


def test_collective_rotations_match_one_exponential_per_row():
    """The stack is the per-row exp_hermitian of sum_a v_a J_a, bit for bit,
    and collective_rotation is its one-row case."""
    vs = np.random.default_rng(14).normal(scale=2.0, size=(200, 3))
    stack = collective_rotations(vs)
    assert stack.shape == (200, 8, 8)
    for v, u in zip(vs, stack):
        (_, want), = oracles.collective_rotation(tuple(v)).ops
        assert np.array_equal(u, want)
        assert np.array_equal(collective_rotation(tuple(v)).operator("rot"), want)
    assert collective_rotations(np.empty((0, 3))).shape == (0, 8, 8)


def test_collective_rotations_refuse_nan_and_bad_shapes():
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        collective_rotations([[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0]])
    for bad in ([0.1, 0.2, 0.3], [[0.1, 0.2]], [[0.1, 0.2, 0.3, 0.4]]):
        with pytest.raises(ValueError, match=r"need shape \(R, 3\)"):
            collective_rotations(bad)


def test_channel_from_unitary_completeness():
    rng = np.random.default_rng(13)
    ch = rand_channel(rng, 4, env=4)
    total = sum(a.conj().T @ a for _, a in ch.ops)
    assert np.allclose(total, np.eye(4), atol=1e-10)
    assert ch.labels() == ["0", "1", "2", "3"]


def test_channel_from_unitary_cnot_dephases():
    # copying the system bit into the environment kills the off-diagonals
    cnot = np.eye(4)[[0, 1, 3, 2]]  # control = system (second factor)
    u = LinearOperator((2, 2), (2, 2), cnot[[0, 2, 1, 3]][:, [0, 2, 1, 3]])
    init = basis_state((2,), 0)
    basis = [basis_state((2,), i) for i in range(2)]
    ch = channel_from_unitary(u, init, basis)
    plus = 0.5 * np.ones((2, 2))
    assert np.allclose(ch.apply_matrix(plus), np.diag([0.5, 0.5]), atol=1e-12)


def test_tensor_channels_labels_and_action():
    rep = tensor_independent(bit_flip(0.5), 3)
    assert len(rep.ops) == 8
    assert set(rep.labels()) == {
        "000", "00x", "0x0", "0xx", "x00", "x0x", "xx0", "xxx"
    }
    a = rep.operator("x0x")
    assert np.allclose(a, (0.5 ** 1.5) * np.kron(np.kron(SIGMA["X"], SIGMA["I"]), SIGMA["X"]))


def test_tensor_channels_multichar_labels_use_commas():
    two = tensor_channels(gaussian_shift(3, 2), bit_flip(0.5))
    assert "0,x" in two.labels()
    assert "-1,0" in two.labels()


def test_tensor_bad_labels_propagate():
    marked = KrausChannel((2,), bit_flip(0.5).ops, bad_labels=frozenset({"x"}))
    pair = tensor_channels(marked, bit_flip(0.5))
    assert pair.bad_labels == {"x0", "xx"}


def kron_chain(*channels):
    """The product channel the slow way: one np.kron chain per label tuple
    of the flat factors, a product argument giving its own."""
    channels = [f for ch in channels for f in (ch.factors or (ch,))]
    sep = "" if all(len(l) == 1 for ch in channels for l in ch.labels()) else ","
    ops, bad = [], set()
    for combo in itertools.product(*(ch.ops for ch in channels)):
        label = sep.join(l for l, _ in combo)
        mat = combo[0][1]
        for _, m in combo[1:]:
            mat = np.kron(mat, m)
        ops.append((label, mat))
        if any(l in ch.bad_labels for ch, (l, _) in zip(channels, combo)):
            bad.add(label)
    return KrausChannel(sum((ch.dims for ch in channels), ()), tuple(ops), frozenset(bad))


def assert_same_channel(got, want):
    assert got.dims == want.dims
    assert got.labels() == want.labels()
    assert got.bad_labels == want.bad_labels
    diff = max(np.abs(a - b).max() for (_, a), (_, b) in zip(got.ops, want.ops))
    assert diff <= 1e-15


def flagged_products():
    """Factor lists of 2 to 5 depolarizing and bit-flip qubits, one of them
    with bad labels; the flagged factor moves from case to case."""
    marked = KrausChannel((2,), depolarizing(0.2).ops, bad_labels=frozenset({"x", "y"}))
    for n in range(2, 6):
        for n_dep in range(n + 1):
            factors = [depolarizing(0.05 + 0.01 * i) if i < n_dep else bit_flip(0.1 + 0.02 * i)
                       for i in range(n)]
            factors[n_dep % n] = marked
            yield factors


def test_tensor_channels_match_kron_chain_oracle():
    for factors in flagged_products():
        assert_same_channel(tensor_channels(*factors), kron_chain(*factors))
    # mixed dimensions and comma-joined labels, in both orders
    pair = (bit_flip(0.3), gaussian_shift(7))
    for factors in (pair, pair[::-1]):
        got = tensor_channels(*factors)
        assert "," in got.labels()[0]
        assert_same_channel(got, kron_chain(*factors))


def test_product_labels_match_kron_chain_oracle():
    """A product counts, looks up, flags and lists its labels as kron_chain's
    eager labels and flags do; with unflagged factors whose labels are one
    character or hold no comma, the lookups build no label list."""
    half = math.sqrt(0.5)
    comma_free = KrausChannel((2,), (("ok", half * SIGMA["I"]), ("kick", half * SIGMA["X"])))
    marked = KrausChannel((2,), depolarizing(0.2).ops, bad_labels=frozenset({"x", "y"}))
    two_bits = tensor_independent(bit_flip(0.1), 2)
    comma_inside = tensor_channels(gaussian_shift(3, 2), bit_flip(0.2))  # labels like "-1,x"
    cases = [  # (factors, whether the lookups alone build the label list)
        ([depolarizing(0.1)] * 3, False),  # "000"
        ([bit_flip(0.3), gaussian_shift(3, 2)], False),  # "0,-2"
        ([comma_free, depolarizing(0.1)], False),  # "ok,0"
        ([two_bits, two_bits], False),  # nested: "0000", "000x", ...
        ([bit_flip(0.1), marked, depolarizing(0.3)], True),  # flagged: built to flag
        ([comma_inside, bit_flip(0.4)], False),  # "-2,0,0": no factor label holds ","
    ]
    for factors, eager in cases:
        want = kron_chain(*factors)
        ch = tensor_channels(*factors)
        assert len(ch.ops) == len(want.ops)
        for label, a in want.ops:
            assert np.abs(ch.operator(label) - a).max() <= 1e-15, label
        first = want.labels()[0]
        for wrong in ("?", first[:-1], first + first, "?" + first[1:], 0):
            assert wrong not in want.labels()
            with pytest.raises(KeyError):
                ch.operator(wrong)
        assert ("labels" in ch.ops.__dict__) == eager, first
        assert ch.bad_labels == want.bad_labels
        assert ch.labels() == want.labels()
    # comma-joined labels that collide are refused, as the flat form refuses them
    left = KrausChannel((2,), (("a,b", half * SIGMA["I"]), ("a", half * SIGMA["X"])))
    right = KrausChannel((2,), (("c", half * SIGMA["I"]), ("b,c", half * SIGMA["X"])))
    for build in (tensor_channels, kron_chain):
        with pytest.raises(ValueError, match="^duplicate label 'a,b,c'$"):
            build(left, right)


def test_operator_is_a_read_only_copy_of_the_kron_chain():
    """operator() gathers each factor's row at the indices find() splits the
    label into: bit for bit kron_chain's operator for a flat channel, a
    product and a nested product (dyadic entries keep every fold exact),
    read-only, and sharing no memory with the blocks."""
    quarter = KrausChannel((2,), tuple((u.lower(), 0.5 * SIGMA[u]) for u in "IXYZ"))
    nested = tensor_channels(tensor_channels(quarter, quarter), quarter)
    for ch in (quarter, tensor_channels(bit_flip(0.3), gaussian_shift(3, 2)), nested):
        want = dict(kron_chain(ch).ops)
        for label in ch.labels():
            a = ch.operator(label)
            assert np.array_equal(a, want[label]) and not a.flags.writeable, label
            assert not any(np.shares_memory(a, b) for b in ch.blocks)


def test_labels_that_hold_commas_are_searched():
    """A channel whose labels hold "," is found by searching its labels, not
    by splitting them: a flat one named like a product, and its product."""
    p = tensor_channels(gaussian_shift(3, 2), bit_flip(0.2))
    flat = KrausChannel(p.dims, p.ops)  # labels like "-2,x"
    for ch in (flat, tensor_channels(flat, bit_flip(0.3))):
        stored = dict(KrausChannel(ch.dims, ch.ops).ops)
        assert len(stored) == len(ch.ops)
        for label in ch.labels():
            assert np.abs(ch.operator(label) - stored[label]).max() <= 1e-15, label
        for wrong in ("?", 0, ch.labels()[0] + ","):
            with pytest.raises(KeyError):
                ch.operator(wrong)


def test_nested_products_join_no_operand_labels():
    """A product picks its separator and decides uniqueness from its flat
    factors' labels, so a product operand joins no label either."""
    inner = tensor_independent(depolarizing(0.1), 4)
    outer = tensor_channels(inner, bit_flip(0.2))
    want = np.kron(inner.operator("01xz"), bit_flip(0.2).operator("x"))
    assert np.abs(outer.operator("01xzx") - want).max() <= 1e-15
    assert "labels" not in inner.ops.__dict__ and "labels" not in outer.ops.__dict__
    assert outer.labels() == kron_chain(inner, bit_flip(0.2)).labels()
    # comma-joined labels that collide through a nested operand are refused,
    # as the flat form refuses them
    half = math.sqrt(0.5)
    left = tensor_channels(  # "a,b", "a,c", "a,b,b", "a,b,c"
        KrausChannel((2,), (("a", half * SIGMA["I"]), ("a,b", half * SIGMA["X"]))),
        KrausChannel((2,), (("b", half * SIGMA["I"]), ("c", half * SIGMA["X"]))))
    right = KrausChannel((2,), (("c", half * SIGMA["I"]), ("b,c", half * SIGMA["X"])))
    for build in (tensor_channels, kron_chain):
        with pytest.raises(ValueError, match="^duplicate label 'a,b,b,c'$"):
            build(left, right)


def test_every_bracketing_is_the_flat_product():
    """(ab)c, a(bc) and (ab)(cd) are the flat product of the same factors in
    every respect, bit for bit: labels, flags, lookups, blocks, both factor
    paths, and the pipelines that read them."""
    rng = np.random.default_rng(19)
    marked = KrausChannel((2,), depolarizing(0.2).ops, bad_labels=frozenset({"x", "y"}))
    t = tensor_channels
    for a, b, c, d in ((marked, bit_flip(0.1), depolarizing(0.3), bit_flip(0.2)),
                       (bit_flip(0.1), gaussian_shift(3, 2), marked, depolarizing(0.3))):
        for got, want in ((t(t(a, b), c), t(a, b, c)), (t(a, t(b, c)), t(a, b, c)),
                          (t(t(a, b), t(c, d)), t(a, b, c, d))):
            assert got.labels() == want.labels()
            assert got.bad_labels == want.bad_labels
            assert len(got.ops) == len(want.ops)
            assert entanglement_fidelity(got) == entanglement_fidelity(want)
            psi = rand_state(rng, want.dim)
            m = rng.uniform(-1, 1, size=(want.dim, want.dim, 2)) @ [1, 1j]
            assert np.array_equal(got.apply_pure(psi), want.apply_pure(psi))
            assert np.array_equal(got.apply_matrix(m), want.apply_matrix(m))
            assert all(np.array_equal(got.operator(l), want.operator(l)) for l in want.labels())
            assert len(got.blocks) == len(want.blocks)
            assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))
    nested = parse_channel_spec("independent n=2 independent n=2 bitflip p=0.1")
    flat = parse_channel_spec("independent n=4 bitflip p=0.1")
    assert nested.labels() == flat.labels()
    assert all(np.array_equal(x, y) for x, y in zip(nested.blocks, flat.blocks))
    five = builtin_code("fivequbit").subspace
    decoder = decoder_identification(five, correctable_quantum(five, weight_le_words(5, 1)))
    dep = depolarizing(0.1)
    split = tensor_channels(tensor_independent(dep, 2), tensor_independent(dep, 3))
    whole = tensor_independent(dep, 5)
    exact = [run_corrected(five, decoder, ch, PLUS).to_json() for ch in (split, whole)]
    assert exact[0] == exact[1]
    sampled = [run_monte_carlo(decoder, ch, PLUS, trials=500, seed=7, code=five).to_json()
               for ch in (split, whole)]
    assert sampled[0] == sampled[1]


def test_tensor_channels_block_layout():
    # 3,125 operators of 32 x 32: 48 full blocks of 64 and a last one of 53
    dep5 = tensor_independent(depolarizing(0.1), 5)
    assert [len(b) for b in dep5.blocks] == [64] * 48 + [53]
    assert all(b.nbytes <= 2 ** 20 and not b.flags.writeable for b in dep5.blocks)
    assert np.shares_memory(dep5.ops[64][1], dep5.blocks[1])
    assert not dep5.ops[-1][1].flags.writeable
    assert_same_channel(dep5, kron_chain(*[depolarizing(0.1)] * 5))
    # d = 128: four operators to a block
    factors = [depolarizing(0.2)] + [bit_flip(0.15)] * 6
    big = tensor_channels(*factors)
    assert big.dim == 128 and {len(b) for b in big.blocks} == {4}
    assert_same_channel(big, kron_chain(*factors))
    # a product operand contributes its four one-block factors
    dep4 = tensor_independent(depolarizing(0.1), 4)
    assert len(dep4.blocks) == 3
    nested = tensor_channels(dep4, bit_flip(0.2))
    assert nested.labels()[:3] == ["00000", "0000x", "00010"]
    assert_same_channel(nested, kron_chain(*[depolarizing(0.1)] * 4, bit_flip(0.2)))
    # a flat factor that itself spans several blocks: 200 operators of 32 x 32
    words = ["".join(w) for w in itertools.islice(itertools.product("IXYZ", repeat=5), 200)]
    paulis = pauli_kraus(PauliChannel(5, {w: 1 / 200 for w in words}))
    assert [len(b) for b in paulis.blocks] == [64, 64, 64, 8]
    for factors in ((bit_flip(0.2), paulis), (paulis, bit_flip(0.2))):
        assert_same_channel(tensor_channels(*factors), kron_chain(*factors))


def test_product_gram_is_the_kronecker_product_of_factor_grams():
    # every product of the two tests above; the flat sum over its blocks is the oracle
    pair = (bit_flip(0.3), gaussian_shift(7))
    cases = [*flagged_products(), pair, pair[::-1], [depolarizing(0.1)] * 5,
             [depolarizing(0.2)] + [bit_flip(0.15)] * 6,
             (tensor_independent(depolarizing(0.1), 4), bit_flip(0.2))]
    for factors in cases:
        got = tensor_channels(*factors)
        want = functools.reduce(np.kron, [_gram(f.blocks, f.dim) for f in factors])
        assert np.abs(_gram(got.blocks, got.dim) - want).max() <= 1e-13, got.dims


def test_product_trace_check_keeps_the_flat_verdict():
    # sqrt(1 + delta) I passes alone (defect delta); a pair has defect ~2 delta,
    # past ATOL_ALGEBRA = 1e-9 at delta = 6e-10 and within it at 4e-10
    for delta, admitted in ((6e-10, False), (4e-10, True)):
        factor = KrausChannel((2,), (("0", math.sqrt(1 + delta) * SIGMA["I"]),))
        for build in (tensor_channels, kron_chain):
            if admitted:
                assert build(factor, factor).labels() == ["00"]
            else:
                with pytest.raises(ValueError, match="^operator sum is not trace preserving$"):
                    build(factor, factor)


def test_products_check_trace_preservation_on_their_factors(monkeypatch):
    seen = []

    def recorder(blocks, d):
        seen.append(d)
        return _gram(blocks, d)

    # the factor computes its sum at its own construction; the product reads it
    monkeypatch.setattr(channels_module, "_gram", recorder)
    dep = depolarizing(0.1)
    assert tensor_independent(dep, 5).dim == 32
    assert seen == [2]  # the one distinct factor, once
    # explicit operators are summed over; the synthesized recovery brings its
    # sum from its syndrome blocks and code basis
    KrausChannel((4,), (("0", np.eye(4, dtype=complex)),))
    assert seen == [2, 4]
    synthesize_decoder(builtin_code("fivequbit").subspace, weight_le_errors(5, 1))
    assert seen == [2, 4]


def test_both_ways_in_reject_invalid_operator_sets():
    a = math.sqrt(0.5) * np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel((2,), (("0", a),))
    with pytest.raises(ValueError, match="trace preserving"):  # a NaN sum is not the identity
        KrausChannel((2,), (("0", np.full((2, 2), np.nan)),))
    with pytest.raises(ValueError, match="duplicate label '0'"):
        KrausChannel((2,), (("0", a), ("0", a)))
    with pytest.raises(ValueError, match="shape"):
        KrausChannel((2,), (("0", a), ("1", np.eye(3))))
    def build(labels, stack, bad=frozenset(), completeness=np.eye(2)):
        return KrausChannel._build((2,), labels, lambda start, stop: stack, bad, completeness)

    pair = np.stack([a, a])
    assert build(["0", "1"], pair).labels() == ["0", "1"]
    with pytest.raises(ValueError, match="trace preserving"):
        build(["0", "1"], np.stack([a, 2 * a]), completeness=_gram([np.stack([a, 2 * a])], 2))
    with pytest.raises(ValueError, match="trace preserving"):  # the sum must be d x d
        build(["0", "1"], pair, completeness=np.eye(1))
    with pytest.raises(ValueError, match="duplicate label '0'"):
        build(["0", "0"], pair)
    # a built channel's operators are checked on their first read
    for stack in (np.stack([a, a, a]), np.zeros((2, 2, 3), dtype=complex), pair.real):
        with pytest.raises(ValueError, match="want complex"):
            build(["0", "1"], stack).blocks
    with pytest.raises(ValueError, match="bad_labels"):
        build(["0", "1"], pair, frozenset({"z"}))
    with pytest.raises(ValueError, match="cap"):
        KrausChannel((2 ** 11,), (("0", np.eye(1)),))


def test_products_past_the_dimension_cap_are_refused_before_building():
    with pytest.raises(ValueError, match="MAX_TOTAL_DIM=1024"):
        tensor_independent(bit_flip(0.1), 11)


def test_product_bytes_are_capped(monkeypatch):
    # with the cap at 1 MiB: 32 operators of 32 x 32 (512 KiB) pass, 64 of
    # 64 x 64 (4 MiB) are refused by arithmetic, naming the bytes and the cap
    monkeypatch.setattr("qecdesk.hilbert.MAX_KRAUS_BYTES", 2 ** 20)
    assert len(tensor_independent(bit_flip(0.1), 5).ops) == 32
    with pytest.raises(ValueError, match="64 operators of dimension 64: byte count 4194304 "
                                         "exceeds cap MAX_KRAUS_BYTES=1048576"):
        tensor_independent(bit_flip(0.1), 6)


def test_factor_superoperators_are_admitted_before_building(monkeypatch):
    """A 32-dimensional factor's superoperator is 32^4 entries (16 MiB); with
    the cap at 1 MiB, applying the product is refused before it is built."""
    monkeypatch.setattr("qecdesk.hilbert.MAX_KRAUS_BYTES", 2 ** 20)
    ch = tensor_channels(identity_channel((32,)), bit_flip(0.1))
    psi = np.zeros(64, dtype=complex)
    psi[0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="byte count 16777216 exceeds cap MAX_KRAUS_BYTES"):
            ch.apply_pure(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_product_build_keeps_temporaries_small():
    """Building large products holds at most a few MiB beyond the result.

    The operators are built, on the first read of `blocks`, one block of
    <= 1 MiB at a time.  Freed arrays of 2-32 MiB make the allocator raise
    its mmap threshold and keep the heap they used, so a build that stacks
    whole channels at once shows up as resident memory long after the arrays
    are gone.
    """
    mixes = ([depolarizing(0.1)] * 5, [depolarizing(0.1)] * 3 + [bit_flip(0.2)] * 3)
    for factors in mixes:
        ch = tensor_channels(*factors)
        tracemalloc.start()
        try:
            ch.blocks
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= sum(b.nbytes for b in ch.blocks)
        assert peak - kept <= 4 * 2 ** 20


def test_tensor_independent_operator_cap():
    with pytest.raises(ValueError):
        tensor_independent(depolarizing(0.5), 6)  # 5^6 > 4096
    assert len(tensor_independent(depolarizing(0.5), 5).ops) == 5 ** 5 <= MAX_KRAUS_OPS


def test_apply_pure_matches_apply_matrix_oracle():
    from qecdesk.analysis import synthesize_decoder, weight_le_errors
    from qecdesk.codes import five_qubit

    _, space = five_qubit()
    _, recovery = synthesize_decoder(space, weight_le_errors(5, 1))
    cases = {
        "depolarizing^5": tensor_independent(depolarizing(0.1), 5),
        "bit-flip/depolarizing mix": tensor_channels(*[bit_flip(0.2)] * 2,
                                                     *[depolarizing(0.15)] * 3),
        "gaussian_shift(7)": gaussian_shift(7),
        "bit_flip^7": tensor_independent(bit_flip(0.1), 7),
        "five-qubit recovery": recovery,
    }
    assert {len(b) for b in cases["bit_flip^7"].blocks} == {4}  # d = 128
    rng = np.random.default_rng(41)
    for name, ch in cases.items():
        psi = rand_state(rng, ch.dim)
        rho = np.outer(psi, psi.conj())
        want = flat_apply_matrix(ch, rho)
        assert np.abs(ch.apply_pure(psi) - want).max() <= 1e-12, name
        assert np.abs(ch.apply_matrix(rho) - want).max() <= 1e-12, name
        # the branch vectors are the operators applied to psi, in label order
        branches = np.concatenate(list(ch.branch_blocks(psi)))
        assert branches.shape == (len(ch.ops), ch.dim), name
        assert np.abs(branches - np.stack([a @ psi for _, a in ch.ops])).max() <= 1e-12, name


def factor_path_cases():
    """Products whose factor path is checked against the flat oracles."""
    pair = (bit_flip(0.3), gaussian_shift(7))
    yield from flagged_products()
    yield [depolarizing(0.1)] * 5
    yield [bit_flip(0.1)] * 7
    yield pair
    yield pair[::-1]
    yield tensor_independent(depolarizing(0.1), 4), bit_flip(0.2)


def test_product_factor_path_matches_flat_oracles():
    rng = np.random.default_rng(47)
    for factors in factor_path_cases():
        ch = tensor_channels(*factors)
        assert len(ch.factors) == sum(len(f.factors) or 1 for f in factors), ch.dims
        psi = rand_state(rng, ch.dim)
        m = rng.uniform(-1, 1, size=(ch.dim, ch.dim, 2)) @ [1, 1j]  # a general matrix
        # the factor path first, before anything reads the operators
        got_pure, got_matrix = ch.apply_pure(psi), ch.apply_matrix(m)
        got_fe = entanglement_fidelity(ch)
        got_ops = {label: ch.operator(label) for label in ch.labels()}
        with pytest.raises(KeyError):
            ch.operator("?")
        # then the blocks on first read, and the flat oracles over them
        blocks = ch.blocks
        assert np.shares_memory(ch.ops[0][1], blocks[0])
        assert_same_channel(ch, kron_chain(*factors))
        flat = dict(KrausChannel(ch.dims, ch.ops).ops)
        assert np.abs(got_pure - flat_apply_matrix(ch, np.outer(psi, psi.conj()))).max() <= 1e-12
        assert np.abs(got_matrix - flat_apply_matrix(ch, m)).max() <= 1e-12
        assert abs(got_fe - flat_entanglement_fidelity(ch)) <= 1e-12, ch.dims
        # a single operator is formed as its block forms it, bit for bit
        assert got_ops.keys() == flat.keys()
        assert all(np.array_equal(a, flat[label]) and not a.flags.writeable
                   for label, a in got_ops.items()), ch.dims


def test_factor_path_builds_no_flat_blocks():
    """depolarizing^5 through every consumer that reads its factors: its flat
    form is 3,125 operators of 32 x 32 (51 MB), and none of it is built."""
    five = builtin_code("fivequbit").subspace
    decoder = decoder_identification(five, correctable_quantum(five, weight_le_words(5, 1)))
    dep = depolarizing(0.1)
    psi = five.basis_matrix() @ PLUS.amplitudes
    tracemalloc.start()
    try:
        ch = tensor_independent(dep, 5)
        assert len(ch.ops) == 5 ** 5 and len(ch.labels()) == 5 ** 5
        a = ch.operator("xyz10")
        rho = ch.apply_pure(psi)
        ch.apply_matrix(rho)
        fe = entanglement_fidelity(ch)
        report = run_corrected(five, decoder, ch, PLUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
    word = functools.reduce(np.kron, [SIGMA[u] for u in "XYZII"])
    assert np.abs(a - (math.sqrt(0.1) / 2) ** 4 * math.sqrt(0.9) * word).max() <= 1e-15
    assert abs(fe - (1 - 0.075) ** 5) <= 1e-12
    assert abs(report.metrics["error"] - 0.0316175) <= 1e-12


def test_depolarizing_product_builds_no_labels_or_blocks():
    """depolarizing^5 answers counts, single operators, its factor path and
    its (empty) flagged-branch sums without its 3,125 labels or its blocks."""
    ch = tensor_independent(depolarizing(0.1), 5)
    psi = rand_state(np.random.default_rng(53), ch.dim)
    state = StateVector(ch.dims, psi)
    steps = {
        "construction": lambda: None,
        "len(ops)": lambda: len(ch.ops),
        "operator": lambda: ch.operator("0" * 5),
        "apply_pure": lambda: ch.apply_pure(psi),
        "apply_matrix": lambda: ch.apply_matrix(np.outer(psi, psi.conj())),
        "entanglement_fidelity": lambda: entanglement_fidelity(ch),
        "bad_branch_probability": lambda: bad_branch_probability(ch, state),
        "bad_branch_error_bound": lambda: bad_branch_error_bound(ch),
        "explicit empty bad_labels": lambda: (bad_branch_probability(ch, state, set()),
                                              bad_branch_error_bound(ch, ())),
    }
    results = {}
    for name, step in steps.items():
        results[name] = step()
        assert not {"labels", "blocks", "_pairs"} & ch.ops.__dict__.keys(), name
    assert results["len(ops)"] == 5 ** 5
    assert np.abs(results["operator"] - 0.9 ** 2.5 * np.eye(32)).max() <= 1e-15
    assert results["bad_branch_probability"] == results["bad_branch_error_bound"] == 0.0
    assert results["explicit empty bad_labels"] == (0.0, 0.0)


def test_gram_matches_complex_oracle():
    rng = np.random.default_rng(43)
    # random stacks laid out as a channel's blocks, several blocks and a short last one
    for d, counts in ((2, (5,)), (16, (256, 256, 17)), (64, (16, 16, 16, 3)), (512, (1, 1))):
        blocks = [rng.normal(size=(c, d, d)) + 1j * rng.normal(size=(c, d, d)) for c in counts]
        want = sum(b.reshape(-1, d).conj().T @ b.reshape(-1, d) for b in blocks)
        got = _gram(blocks, d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (d, counts)
    # and on stored channels, whose sum is the identity
    for ch in (tensor_independent(depolarizing(0.1), 5),
               tensor_channels(*[depolarizing(0.1)] * 3, *[bit_flip(0.2)] * 3),
               rand_channel(rng, 4)):
        want = sum(b.reshape(-1, ch.dim).conj().T @ b.reshape(-1, ch.dim) for b in ch.blocks)
        assert np.abs(_gram(ch.blocks, ch.dim) - want).max() <= 1e-13


def test_imaginary_trace_defect_is_refused():
    # A = (I + 1e-6 Y)^(1/2) is Hermitian, so sum A^dag A = I + 1e-6 Y: the
    # defect lies only in the imaginary off-diagonal entries
    w, v = np.linalg.eigh(SIGMA["I"] + 1e-6 * SIGMA["Y"])
    a = (v * np.sqrt(w)) @ v.conj().T
    defect = a.conj().T @ a - SIGMA["I"]
    assert np.abs(defect.real).max() <= 1e-15 and np.abs(defect.imag).max() > 9e-7
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel((2,), (("0", a),))
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel._build((2,), ["0"], lambda start, stop: a[None].copy(), frozenset(),
                            a.conj().T @ a)


def test_spec_keys_are_checked():
    for spec, words in (
        ("depolarizing p=0.1 q=3", ("q=", "depolarizing p=<value>")),
        ("bitflip p=0.1 p=0.2", ("p= twice", "bitflip p=<value>")),
        ("collective vx=0 vy=0 vz=0 vx=1", ("vx= twice",)),
        ("gaussian7 K=abc", ("K=", "'abc'", "gaussian7 K=<count>")),
        ("gaussian7 K=2.5", ("K=", "'2.5'")),
        ("gaussian7 p=0.1", ("p=", "gaussian7 K=<count>")),
        ("independent n=abc bitflip p=0.1", ("n=", "'abc'", "independent n=<count> <inner spec>")),
        ("independent n=2 bitflip p=0.1 K=3", ("K=", "bitflip p=<value>")),
        ("wat p=1", ("'wat'", "depolarizing")),
    ):
        with pytest.raises(ValueError) as exc:
            parse_channel_spec(spec)
        for word in words:
            assert word in str(exc.value), (spec, word)
    assert len(parse_channel_spec("gaussian7").ops) == 41
    assert parse_channel_spec("independent n=2 gaussian7 K=2").dims == (7, 7)


def test_huge_spec_products_are_refused_by_arithmetic():
    # k**n and 2K+1 are compared with the caps before any list is built; the
    # sizes here are small enough that a missing check still fails safely
    # (tests/test_cli.py runs n=10**9 and K=10**8 under an address-space limit)
    with pytest.raises(ValueError, match=r"operator count 2\*\*65 exceeds cap MAX_KRAUS_OPS"):
        tensor_independent(bit_flip(0.1), 65)
    unitary = collective_rotation((0.1, 0.2, 0.3))  # one operator: the dimension refuses it
    with pytest.raises(ValueError, match=r"8\*\*65 exceeds cap MAX_TOTAL_DIM"):
        tensor_independent(unitary, 65)
    with pytest.raises(ValueError, match="K=2048: operator count 4097 exceeds cap MAX_KRAUS_OPS"):
        gaussian_shift(7, 2048)
    assert len(gaussian_shift(7, 2047).ops) == MAX_KRAUS_OPS - 1


def test_remix_labels_is_invisible():
    rng = np.random.default_rng(14)
    ch = depolarizing(0.3)
    u = rand_unitary(rng, len(ch.ops))
    mixed = remix_labels(ch, u)
    assert mixed.labels() == [f"m{i}" for i in range(5)]
    rho = rand_density(rng, 2)
    assert np.allclose(mixed.apply_matrix(rho), ch.apply_matrix(rho), atol=1e-10)
    with pytest.raises(ValueError):
        remix_labels(ch, np.eye(4))


def test_pauli_channel_guards():
    with pytest.raises(ValueError):
        PauliChannel(1, {"I": 0.5, "X": 0.2})
    with pytest.raises(ValueError):
        PauliChannel(1, {"I": 1.5, "X": -0.5})
    ch = PauliChannel(2, {"II": 0.9, "XZ": 0.1})
    assert ch.probability("XZ") == pytest.approx(0.1)
    assert ch.probability("-XZ") == pytest.approx(0.1)  # phases are dropped
    assert ch.probability("ZZ") == 0.0


def test_pauli_channel_refuses_a_nan_probability():
    with pytest.raises(ValueError, match="probability nan for X"):
        PauliChannel(1, {"I": 1.0, "X": math.nan})


def test_pauli_channel_refuses_a_word_given_twice_up_to_phase():
    # {I: .5, X: .5, -X: .5} sums to 1.5; keeping the last X would hide that
    for probs in ({"I": 0.5, "X": 0.5, "-X": 0.5}, {"I": 0.5, "X": 0.25, "+iX": 0.25}):
        with pytest.raises(ValueError, match="word X is given twice, up to phase"):
            PauliChannel(1, probs)


def test_pauli_channel_round_trip_through_kraus():
    ch = PauliChannel(1, {"I": 0.7, "X": 0.1, "Y": 0.05, "Z": 0.15})
    back = twirl(pauli_kraus(ch))
    for u in "IXYZ":
        assert back.probability(u) == pytest.approx(ch.probability(u), abs=1e-12)


def test_twirl_fixes_depolarizing():
    for p in (0.0, 0.12, 0.5, 1.0):
        t = twirl(depolarizing(p))
        assert t.probability("I") == pytest.approx(1 - 3 * p / 4, abs=1e-12)
        for u in "XYZ":
            assert t.probability(u) == pytest.approx(p / 4, abs=1e-12)


def test_twirl_of_z_rotation():
    theta = 0.9
    u = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    ch = KrausChannel((2,), (("rot", u),))
    t = twirl(ch)
    assert t.probability("I") == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
    assert t.probability("Z") == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-12)
    assert t.probability("X") == pytest.approx(0.0, abs=1e-12)
    assert t.probability("Y") == pytest.approx(0.0, abs=1e-12)


def test_twirl_of_reset_channel_is_uniform():
    # reset-to-|0>: operators |0><0| and |0><1|
    ops = (
        ("keep", np.array([[1, 0], [0, 0]], dtype=complex)),
        ("drop", np.array([[0, 1], [0, 0]], dtype=complex)),
    )
    t = twirl(KrausChannel((2,), ops))
    for u in "IXYZ":
        assert t.probability(u) == pytest.approx(0.25, abs=1e-12)


def test_twirl_matches_conjugation_average_oracle():
    """The Pauli shadow equals the average of conjugations by I/X/Y/Z.

    sum_w (1/4) sigma_w ch(sigma_w rho sigma_w) sigma_w applied to a basis of
    matrices must reproduce the twirled channel's action exactly.
    """
    rng = np.random.default_rng(15)
    for _ in range(5):
        ch = rand_channel(rng, 2)
        t = pauli_kraus(twirl(ch))
        for m in (SIGMA["I"] / 2, SIGMA["X"], SIGMA["Y"], SIGMA["Z"],
                  rand_density(rng, 2)):
            avg = sum(
                SIGMA[w] @ ch.apply_matrix(SIGMA[w] @ m @ SIGMA[w]) @ SIGMA[w]
                for w in "IXYZ"
            ) / 4.0
            assert np.allclose(t.apply_matrix(m), avg, atol=1e-10)


def test_twirl_probabilities_sum_to_one_on_random_channels():
    rng = np.random.default_rng(16)
    for _ in range(40):
        t = twirl(rand_channel(rng, 2, env=int(rng.integers(2, 5))))
        assert math.fsum(t.probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_twirl_is_invariant_under_label_remix():
    rng = np.random.default_rng(17)
    ch = rand_channel(rng, 2)
    u = rand_unitary(rng, len(ch.ops))
    t1 = twirl(ch)
    t2 = twirl(remix_labels(ch, u))
    for w in "IXYZ":
        assert t1.probability(w) == pytest.approx(t2.probability(w), abs=1e-10)


def test_identity_channel_is_identity():
    ch = identity_channel((2, 2))
    rng = np.random.default_rng(19)
    rho = rand_density(rng, 4)
    assert np.allclose(ch.apply_matrix(rho), rho)


def test_parse_channel_spec_forms():
    assert parse_channel_spec("depolarizing p=0.1").labels() == ["0", "1", "x", "y", "z"]
    assert parse_channel_spec("bitflip p=0.25").labels() == ["0", "x"]
    assert len(parse_channel_spec("gaussian7 K=3").ops) == 7
    assert parse_channel_spec("collective vx=0.1 vy=0.0 vz=0.2").dims == (2, 2, 2)
    rep = parse_channel_spec("independent n=3 bitflip p=0.5")
    assert rep.dims == (2, 2, 2)
    assert len(rep.ops) == 8
    for bad in ("", "wat p=1", "depolarizing", "depolarizing q=1",
                "independent bitflip p=0.5", "bitflip p=oops"):
        with pytest.raises((ValueError, KeyError)):
            parse_channel_spec(bad)
