"""Pauli word sets as (x, z) arrays against the one-word-at-a-time oracles.

The word arrays, both distance searches and the weight <= N sets are checked
against tests/oracles.py: pauli_words builds one validated PauliProduct per
word in the same order, and first_weight judges them one at a time.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_weight, pauli_words
from qecdesk.analysis import (
    detectable_quantum,
    min_distance_quantum,
    weight_le_errors,
    weight_le_words,
)
from qecdesk.codes import stabilizer_codespace
from qecdesk.gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    StabilizerGeneratorSet,
    _masks,
    _word_arrays,
    identity_word,
)

ALPHABETS = ["".join(c) for r in (1, 2, 3) for c in itertools.combinations("XYZ", r)]


def outcome(search, *args, **kwargs):
    """The distance a search returns, or ("exceeds", cap) when it gives up."""
    try:
        return search(*args, **kwargs)
    except SearchCapExceeded as exc:
        return ("exceeds", exc.cap)


@st.composite
def generator_sets(draw):
    """r >= n - 2 independent commuting phase-free words on n <= 8 qubits: Z
    on each of the first r qubits, carried through drawn symplectic
    transvections u -> u + <u, v> v, which keep commutation and independence.
    Few logical qubits make distances past 1 and searches past the cap
    common."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(max(1, n - 2), n))
    masks = st.integers(0, 2 ** n - 1)
    gens = [(0, 1 << (n - 1 - j)) for j in range(r)]
    for vx, vz in draw(st.lists(st.tuples(masks, masks), max_size=4 * n)):
        gens = [(x ^ vx, z ^ vz) if ((x & vz).bit_count() + (z & vx).bit_count()) % 2
                else (x, z) for x, z in gens]
    return StabilizerGeneratorSet([PauliProduct(n, x, z) for x, z in gens])


@settings(deadline=None, max_examples=60)
@given(generator_sets(), st.integers(1, 3))
def test_both_searches_match_the_one_word_oracle(stab, cap):
    space = stabilizer_codespace(stab)
    for alphabet in ALPHABETS:
        want = outcome(first_weight, stab.n, alphabet, cap,
                       lambda p: stab.in_centralizer(p) and not stab.contains(p))
        assert outcome(stab.min_distance, alphabet=alphabet, cap=cap) == want
        dense = outcome(first_weight, stab.n, alphabet, cap,
                        lambda p: not detectable_quantum(space, p).detectable)
        assert outcome(min_distance_quantum, space, alphabet=alphabet, cap=cap) == dense
        # a word outside the stabilizer that commutes with it is a logical
        # operator, undetectable on the code, and only such a word is
        assert dense == want


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(0, 4), st.text("XYZ", min_size=1, max_size=4),
       st.integers(1, 100))
def test_word_arrays_follow_the_oracle_order(n, max_weight, alphabet, chunk):
    got = [(w, x, z) for w, cx, cz in _word_arrays(n, max_weight, alphabet, chunk)
           for x, z in zip(_masks(cx).tolist(), _masks(cz).tolist())]
    want = [(len(support), word.x_bits, word.z_bits)
            for support, _, word in pauli_words(n, max_weight, alphabet)]
    assert got == want
    sizes = [len(cx) for _, cx, _ in _word_arrays(n, max_weight, alphabet, chunk)]
    assert all(0 < size <= chunk for size in sizes)


@pytest.mark.parametrize("alphabet", ["", "XQ"])
def test_bad_alphabets_keep_their_message(alphabet):
    msg = f"alphabet must be a nonempty subset of XYZ, got {alphabet!r}"
    stab = StabilizerGeneratorSet.from_strings(["ZZ"])
    for search in (stab.min_distance, lambda **kw: min_distance_quantum(
            stabilizer_codespace(stab), **kw)):
        with pytest.raises(ValueError) as err:
            search(alphabet=alphabet)
        assert str(err.value) == msg
    with pytest.raises(ValueError) as err:
        next(pauli_words(2, 1, alphabet))
    assert str(err.value) == msg


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weight_le_sets_match_the_word_by_word_oracle(n):
    for max_weight in (0, 1, 2):
        want = [("I", identity_word(n))] + [
            ("".join(f"{c}{j + 1}" for j, c in zip(support, letters)), word)
            for support, letters, word in pauli_words(n, max_weight)]
        assert weight_le_words(n, max_weight) == want
        errors = weight_le_errors(n, max_weight)
        assert [label for label, _ in errors] == [label for label, _ in want]
        for (_, e), (_, word) in zip(errors, want):
            assert np.array_equal(e, word.dense())
        del errors


def test_weight_le_words_past_62_qubits():
    # masks wider than int64 come out as Python ints, as a word's own masks are
    want = [word for _, _, word in pauli_words(70, 1)]
    assert [word for _, word in weight_le_words(70, 1)[1:]] == want


def _repetition(n):
    return StabilizerGeneratorSet.from_strings(
        ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)])


def _extra_peak(run):
    tracemalloc.start()
    try:
        run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


def test_exhausting_searches_keep_temporaries_small():
    """A search holds one chunk of words at a time, whatever its cap.  On the
    12-qubit repetition code no X or Y word of weight < 12 commutes with
    every ZZ, so the X-only search walks all 1,585 words of weight <= 5 and
    the XY one all 35,312 (about 3 MiB of rows at once); the 10-qubit dense
    X-only search gathers E C for its 1,585 words (100 MiB at once) 16 words
    at a time."""
    stab = _repetition(12)
    for alphabet in ("X", "XY"):
        def gf2():
            with pytest.raises(SearchCapExceeded):
                stab.min_distance(alphabet=alphabet, cap=5)

        assert _extra_peak(gf2) <= 2 * 2 ** 20
    assert stab.min_distance(alphabet="X", cap=12) == 12  # all 4,095 X words
    space = stabilizer_codespace(_repetition(10))
    space.basis_matrix()

    def dense():
        with pytest.raises(SearchCapExceeded):
            min_distance_quantum(space, alphabet="X", cap=5)

    assert _extra_peak(dense) <= 3 * 2 ** 20
