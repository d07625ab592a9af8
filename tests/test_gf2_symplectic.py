"""Pauli words over GF(2): parsing, products, commutation, stabilizer groups."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_word

from qecdesk.gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    StabilizerGeneratorSet,
    _apply_words,
    identity_word,
    single_qubit_word,
)

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def rand_word(rng, n):
    mask = (1 << n) - 1
    return PauliProduct(n, int(rng.integers(0, mask + 1)), int(rng.integers(0, mask + 1)),
                        int(rng.integers(0, 4)))


def test_parse_and_print_round_trip():
    for text in ["XZZXI", "-Y", "+iXY", "-iZZ", "III", "+XYZI"]:
        w = PauliProduct.from_string(text)
        assert PauliProduct.from_string(str(w)) == w
    assert str(PauliProduct.from_string("XYZ")) == "XYZ"
    assert str(PauliProduct.from_string("iX")) == "+iX"
    assert PauliProduct.from_string("-iZZ").phase == -1j


def test_parse_rejects_garbage():
    for bad in ["", "+", "AB", "X Z", "++X", "jX"]:
        with pytest.raises(ValueError):
            PauliProduct.from_string(bad)


def test_single_qubit_products_match_dense():
    # exact phase check on all 16 letter pairs
    for a in "IXYZ":
        for b in "IXYZ":
            x = PauliProduct.from_string(a)
            y = PauliProduct.from_string(b)
            got = x.multiply(y).dense()
            want = x.dense() @ y.dense()
            assert np.array_equal(got, want), (a, b)


def test_known_phase_cases():
    x = PauliProduct.from_string("X")
    y = PauliProduct.from_string("Y")
    z = PauliProduct.from_string("Z")
    assert str(x.multiply(y)) == "+iZ"
    assert str(y.multiply(x)) == "-iZ"
    assert str(y.multiply(z)) == "+iX"
    assert str(z.multiply(x)) == "+iY"
    assert x.multiply(x) == identity_word(1)


def test_product_agrees_with_dense_on_random_words():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        x, y = rand_word(rng, n), rand_word(rng, n)
        got = x.multiply(y).dense()
        want = x.dense() @ y.dense()
        assert np.array_equal(got, want)


def test_product_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x, y, z = (rand_word(rng, n) for _ in range(3))
        assert x.multiply(y).multiply(z) == x.multiply(y.multiply(z))


def test_weight_and_phase_free():
    w = PauliProduct.from_string("-iXIYZI")
    assert w.weight() == 3
    assert w.phase_free() == PauliProduct.from_string("XIYZI")
    assert w.phase_free().phase == 1


def test_commutes_matches_dense_commutator():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        x, y = rand_word(rng, n), rand_word(rng, n)
        a, b = x.dense(), y.dense()
        dense_commute = np.allclose(a @ b, b @ a, atol=1e-12)
        assert x.commutes(y) == dense_commute


def test_symplectic_vector_layout():
    w = PauliProduct.from_string("XZY")
    # qubit j at bit n-1-j of each mask: x = 101 (X, Y), z = 011 (Z, Y)
    assert (w.x_bits, w.z_bits) == (0b101, 0b011)
    assert PauliProduct.from_string("-iZII") == PauliProduct(3, 0, 0b100, 3)


def symplectic_form(u, v) -> int:
    """(x_u . z_v + z_u . x_v) mod 2 for two words."""
    return ((u.x_bits & v.z_bits).bit_count() + (u.z_bits & v.x_bits).bit_count()) % 2


def check_word_pair(a, b):
    """multiply against the dense product, commutes against the symplectic
    form and the dense commutator, from_string against str."""
    da, db = dense_word(a), dense_word(b)
    assert np.array_equal(dense_word(a.multiply(b)), da @ db), (str(a), str(b))
    form = symplectic_form(a, b)
    assert a.commutes(b) == (form == 0) == np.array_equal(da @ db, db @ da), (str(a), str(b))
    assert PauliProduct.from_string(str(a)) == a


@pytest.mark.parametrize("n", [1, 2])
def test_every_phased_word_multiplies_and_commutes(n):
    texts = [ph + "".join(w) for ph in ("", "+i", "-", "-i")
             for w in itertools.product("IXYZ", repeat=n)]
    words = [PauliProduct.from_string(t) for t in texts]
    assert [str(w) for w in words] == texts
    # the 4^n * 4 phased words are exactly the (x, z, k) triples
    assert set(words) == {PauliProduct(n, x, z, k) for x in range(2 ** n)
                          for z in range(2 ** n) for k in range(4)}
    for a in words:
        for b in words:
            check_word_pair(a, b)


def test_random_phased_words_multiply_and_commute():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        check_word_pair(rand_word(rng, n), rand_word(rng, n))


def test_dense_qubit_order():
    # qubit 0 is the most significant tensor factor
    w = PauliProduct.from_string("ZI")
    assert np.array_equal(w.dense(), np.kron(np.diag([1, -1]), np.eye(2)))
    w2 = PauliProduct.from_string("IX")
    flip = np.array([[0, 1], [1, 0]])
    assert np.array_equal(w2.dense(), np.kron(np.eye(2), flip))


def test_generator_set_rejects_anticommuting_or_phased():
    with pytest.raises(ValueError):
        StabilizerGeneratorSet.from_strings(["XX", "ZI"])
    with pytest.raises(ValueError):
        StabilizerGeneratorSet.from_strings(["-ZZ"])


def generated_group(s):
    """Oracle: every product of generators, phases dropped; 2^rank elements."""
    out = {identity_word(s.n)}
    for g in s.generators:
        out |= {x.multiply(g).phase_free() for x in out}
    return out


def all_words(n):
    return [PauliProduct(n, a, b, 0) for a in range(2 ** n) for b in range(2 ** n)]


def test_generated_set_and_membership():
    s = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
    group = generated_group(s)
    assert {str(g) for g in group} == {"III", "ZZI", "ZIZ", "IZZ"}
    assert s.contains(PauliProduct.from_string("IZZ"))
    assert not s.contains(PauliProduct.from_string("ZII"))
    assert [w for w in all_words(3) if s.contains(w)] == [w for w in all_words(3) if w in group]
    assert s.rank() == 2 == len(s.generators)


def test_redundant_generator_detected():
    s = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ", "IZZ"])
    assert s.rank() == 2 < len(s.generators)
    assert len(generated_group(s)) == 2 ** s.rank()


def test_five_qubit_group_by_brute_force():
    s = StabilizerGeneratorSet.from_strings(FIVE_QUBIT)
    group = generated_group(s)
    assert len(group) == 16

    # oracle: expand all GF(2) combinations with exact products
    gens = [PauliProduct.from_string(t) for t in FIVE_QUBIT]
    seen = set()
    for bits in itertools.product([0, 1], repeat=4):
        p = identity_word(5)
        for b, g in zip(bits, gens):
            if b:
                p = p.multiply(g)
        seen.add(p.phase_free())
    assert seen == group
    assert {w for w in all_words(5) if s.contains(w)} == group


def test_centralizer_dimension_and_brute_force():
    s = StabilizerGeneratorSet.from_strings(FIVE_QUBIT)
    basis = s.centralizer()
    assert len(basis) == 6

    # oracle: enumerate all 1024 phase-free words, keep the commuting ones,
    # and compare against the XOR span of the returned basis
    commuting = set()
    for a in range(32):
        for b in range(32):
            w = PauliProduct(5, a, b, 0)
            if s.in_centralizer(w):
                commuting.add(w)
    assert len(commuting) == 64

    spanned = set()
    for bits in itertools.product([0, 1], repeat=len(basis)):
        v = identity_word(5)
        for bit, w in zip(bits, basis):
            if bit:
                v = v.multiply(w).phase_free()
        spanned.add(v)
    assert spanned == commuting


def test_repetition_centralizer_contains_logical_z():
    s = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
    assert s.in_centralizer(PauliProduct.from_string("ZII"))
    assert not s.in_centralizer(PauliProduct.from_string("XII"))


def test_min_distance_repetition():
    s = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
    # a single Z on one leg commutes with everything yet is not a stabilizer
    assert s.min_distance() == 1
    # restricted to bit flips the code has distance 3
    assert s.min_distance(alphabet="X") == 3


def test_min_distance_five_qubit():
    s = StabilizerGeneratorSet.from_strings(FIVE_QUBIT)
    assert s.min_distance() == 3
    assert s.min_distance(alphabet="X", cap=5) == 5
    with pytest.raises(SearchCapExceeded) as err:
        s.min_distance(alphabet="X", cap=4)
    assert err.value.cap == 4


def test_min_distance_rejects_bad_alphabet():
    s = StabilizerGeneratorSet.from_strings(["ZZ"])
    with pytest.raises(ValueError):
        s.min_distance(alphabet="")
    with pytest.raises(ValueError):
        s.min_distance(alphabet="XQ")


def test_single_qubit_word_placement():
    w = single_qubit_word(4, 2, "Y")
    assert str(w) == "IIYI"
    with pytest.raises(ValueError):
        single_qubit_word(3, 3, "X")


# --- the index-map action against the Kronecker chain ---------------------------

phased_batches = st.integers(1, 6).flatmap(lambda n: st.lists(st.builds(
    PauliProduct, st.just(n), st.integers(0, 2 ** n - 1), st.integers(0, 2 ** n - 1),
    st.integers(0, 3)), min_size=1, max_size=5))


@settings(deadline=None, max_examples=200)
@given(phased_batches, st.integers(0, 2 ** 32 - 1))
def test_apply_and_dense_match_the_kronecker_chain(words, seed):
    """word.apply, and _apply_words on the whole batch at [:, i], against the
    Kronecker chain of each phased word."""
    rng = np.random.default_rng(seed)
    n, d = words[0].n, 2 ** words[0].n
    x, z, k = (np.array(v) for v in zip(*[(w.x_bits, w.z_bits, w.phase_k) for w in words]))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    m = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    batched = [_apply_words(n, x, z, k, a) for a in (v, m, m.real)]
    for i, word in enumerate(words):
        want = dense_word(word)
        assert np.array_equal(word.dense(), want)
        for a, got in zip((v, m, m.real), batched):
            assert np.array_equal(word.apply(a), want @ a)
            assert np.array_equal(got[:, i], want @ a)


def test_apply_refuses_a_wrong_row_count():
    with pytest.raises(ValueError, match="acts on 8 rows"):
        PauliProduct.from_string("XYZ").apply(np.ones((4, 2)))
