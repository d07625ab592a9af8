"""Property tests: the parsers of user text return a value or raise ValueError,
and random stabilizer codes agree with the dense oracles.

The command line turns a ValueError into a usage error (exit 64) naming the
problem; any other exception would end in a traceback, so it is a bug.
"""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import projector_codespace, signed_group
from qecdesk.analysis import min_distance_quantum
from qecdesk.channels import parse_channel_spec
from qecdesk.cli import _load_code, _parse_errors, _parse_input, main
from qecdesk.codes import (
    FIVE_QUBIT_GENERATORS,
    builtin_code,
    parse_code_text,
    stabilizer_codespace,
)
from qecdesk.gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    StabilizerGeneratorSet,
    identity_word,
)

KINDS = ("depolarizing", "bitflip", "gaussian7", "collective", "independent")
KEYS = ("p", "K", "n", "vx", "vy", "vz", "q", "")
# small counts and specs of at most 5 tokens: the caps admit products of up to
# MAX_KRAUS_BYTES (1 GiB), which a property run must not try to build; 65 is
# past every cap, so a count check that regressed still fails without allocating
VALUES = ("0", "0.1", "0.5", "1", "2", "3", "-1", "1.5", "1e3", "nan", "inf", "abc", "",
          "1e400", "65", "0x10", "=")

token = st.one_of(
    st.sampled_from(KINDS),
    st.builds("{}={}".format, st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.text(alphabet=st.characters(exclude_characters="0123456789"), max_size=6),
)


def returns_or_refuses(parse, *args):
    try:
        parse(*args)
    except ValueError:
        pass


@settings(deadline=None, max_examples=300)
@given(st.lists(token, max_size=5).map(" ".join))
def test_channel_spec_tokens_return_or_raise_value_error(text):
    returns_or_refuses(parse_channel_spec, text)


@settings(deadline=None)
@given(st.text())
@example("independent n=1 " * 3000 + "bitflip p=0.1")  # nested past the recursion limit
def test_channel_spec_free_text_returns_or_raises_value_error(text):
    returns_or_refuses(parse_channel_spec, text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=10,
)


@pytest.mark.parametrize("dim", [2, 7])
@settings(deadline=None)
@given(text=st.one_of(st.text(), json_values.map(json.dumps)))
@example(text="{}")
@example(text="[" + "9" * 400 + ", 1]")  # past float range
@example(text="[1e308, 1e308]")  # the norm overflows
@example(text="[" * 100000)  # nested past the recursion limit
def test_input_token_returns_or_raises_value_error(dim, text):
    returns_or_refuses(_parse_input, text, dim)


# code files of at most 6 qubits: Pauli-word lines (Z-type words always
# commute, so some files build a codespace) or JSON amplitude lines
pauli_line = st.builds("{}{}".format, st.sampled_from(["", "+", "-", "i", "-i"]),
                       st.one_of(st.text(alphabet="IZ", min_size=1, max_size=6),
                                 st.text(alphabet="IXYZ", min_size=1, max_size=6)))
amplitude = st.one_of(st.floats(), st.integers(-2, 2), st.sampled_from([0.0, 1.0, 0.5 ** 0.5]))
amplitude_line = st.one_of(
    st.lists(st.lists(amplitude, min_size=2, max_size=2), min_size=1, max_size=8),
    st.lists(amplitude, max_size=4),
    json_values,
).map(json.dumps)
code_text = st.builds(
    "{}{}".format,
    st.sampled_from(["", "stabilizer:\n", "basis:\n", "wat:\n", "# comment\n"]),
    st.lists(st.one_of(pauli_line, amplitude_line), min_size=0, max_size=6).map("\n".join),
)


@settings(deadline=None, max_examples=300)
@given(st.one_of(code_text, st.text()))
@example("basis:\n[1, 0]")  # was an IndexError
@example('basis:\n{"a": 1}')  # was a TypeError
@example("basis:\n[[1e400,0],[0,0]]")  # was NaN in the JSON output
@example("basis:\n[[true,0],[0,0]]")  # read as [1, 0]
@example("basis:\n[[1e200,0],[1e200,0]]\n[[1e200,0],[-1e200,0]]")  # Gram overflows to NaN
@example("basis:\n[[" + "9" * 400 + ", 0]]")  # an integer past float range
@example("basis:\n" + "[" * 100000)  # nested past the recursion limit
@example("XX\nZZ\nYY")  # inconsistent: XX ZZ = -YY, refused with the generators
@example("basis:\n[[1,0],[0,0]]\n[[1,0],[0,0]]")  # not orthonormal, refused on first read
def test_code_text_returns_or_raises_value_error(text):
    # the codespace is built on first read, so reading it is part of parsing
    try:
        basis = parse_code_text(text).subspace.basis_matrix()
    except ValueError:
        return
    assert np.isfinite(basis).all()


CODES = {name: builtin_code(name)
         for name in ("repetition3", "threespin", "fivequbit", "trivial2", "cyclic7")}
error_token = st.one_of(
    st.builds("{}{}".format, st.sampled_from("IXYZW"), st.integers(-1, 7).map(str)),
    pauli_line,
    st.text(max_size=4),
)
error_spec = st.one_of(
    st.sampled_from(["weight0", "weight1", "weight2", "weight", "weight-1", "weightx"]),
    st.lists(error_token, min_size=1, max_size=4).map(",".join),
    st.text(),
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(CODES)), error_spec)
@example("fivequbit", "weight" + "9" * 30)  # weights past n stop at n
@example("repetition3", "X0")
@example("fivequbit", "Z\u00b2")
def test_error_spec_returns_or_raises_value_error(code, spec):
    returns_or_refuses(_parse_errors, spec, CODES[code])


@st.composite
def commuting_generators(draw):
    """Commuting, independent phase-free words on 1-6 qubits: symplectic
    integers kept by rejection, so every set is a consistent stabilizer."""
    n = draw(st.integers(1, 6))
    words = []
    for v in draw(st.lists(st.integers(1, 4 ** n - 1), min_size=1, max_size=2 * n)):
        word = PauliProduct(n, v >> n, v & ((1 << n) - 1))
        if not words or (stab.in_centralizer(word) and not stab.contains(word)):
            words.append(word)
            stab = StabilizerGeneratorSet(words)
    return words


@st.composite
def commuting_words(draw):
    """Commuting phase-free words on 1-4 qubits, the identity among them,
    then phase-free products of some of them: dependent words, and -I in
    the group where a product carries the sign -1."""
    n = draw(st.integers(1, 4))
    words = []
    for v in draw(st.lists(st.integers(0, 4 ** n - 1), min_size=1, max_size=2 * n)):
        word = PauliProduct(n, v >> n, v & ((1 << n) - 1))
        if all(word.commutes(w) for w in words):
            words.append(word)
    for pick in draw(st.lists(st.integers(1, 2 ** len(words) - 1), max_size=2)):
        chosen = [w for i, w in enumerate(words) if pick >> i & 1]
        words.append(functools.reduce(PauliProduct.multiply, chosen).phase_free())
    return words


@settings(deadline=None, max_examples=100)
@given(commuting_words())
@example([PauliProduct.from_string(w) for w in ("XX", "ZZ", "YY")])  # XX ZZ = -YY
@example([PauliProduct.from_string(w) for w in ("ZZI", "III", "ZZI", "XXX")])
def test_generator_set_matches_the_brute_force_group(words):
    # rank, membership, commutation and the centralizer against the group of
    # every product of the words, phases kept
    n = words[0].n
    group = signed_group(words)
    if PauliProduct(n, 0, 0, 2) in group:
        with pytest.raises(ValueError, match="multiply to -I"):
            StabilizerGeneratorSet(words)
        return
    stab = StabilizerGeneratorSet(words)
    members = {p.phase_free() for p in group}
    assert 2 ** stab.rank() == len(members) == len(group)
    every = [PauliProduct(n, x, z) for x in range(2 ** n) for z in range(2 ** n)]
    commuting = {w for w in every if all(w.multiply(g) == g.multiply(w) for g in words)}
    assert {w for w in every if stab.contains(w)} == members
    assert {w for w in every if stab.in_centralizer(w)} == commuting
    basis = stab.centralizer()
    span = {identity_word(n)}
    for b in basis:
        span |= {p.multiply(b).phase_free() for p in span}
    assert span == commuting and 2 ** len(basis) == len(commuting)
    assert np.array_equal(stabilizer_codespace(stab).basis_matrix(),
                          projector_codespace(stab).basis_matrix())


@settings(deadline=None, max_examples=80)
@given(commuting_generators())
@example([PauliProduct.from_string(w) for w in FIVE_QUBIT_GENERATORS])  # distance 3
def test_stabilizer_file_matches_the_dense_oracles(words):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "code.txt"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            fh.write("".join(f"{w}\n" for w in words))
        definition = _load_code(path)
        assert definition.stabilizers.generators == tuple(words)
        space = definition.subspace
        assert np.array_equal(space.basis_matrix(),
                              projector_codespace(definition.stabilizers).basis_matrix())
        assert main(["mindist", "--stabilizer", path, "--out", out]) == 0
        with open(out) as fh:
            data = json.load(fh)
    try:
        assert data["distance"] == min_distance_quantum(space)
    except SearchCapExceeded as exc:
        assert (data["distance"], data["exceeds_cap"]) == (None, exc.cap)
