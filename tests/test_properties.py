"""Property tests: the parsers of user text return a value or raise ValueError,
and random stabilizer codes agree with the dense oracles.

The command line turns a ValueError into a usage error (exit 64) naming the
problem; any other exception would end in a traceback, so it is a bug.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import projector_codespace, signed_group
from qecdesk.analysis import min_distance_quantum
from qecdesk.channels import parse_channel_spec
from qecdesk.cli import DEMO_NAMES, _load_code, _parse_errors, _parse_input, main
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


# the command-line grammar of the README: a documented command, then up to
# two changes, each a flag left out or given another value (a valid one, a
# broken one, or one that no longer fits the rest); --trials at most 2,000
# and --rotations at most 20 keep a run short
CLI_COMMANDS = [
    ["check", "--code=repetition3", "--errors=Z1"],
    ["check", "--code=fivequbit", "--errors=weight1"],
    ["check", "--code=fivequbit", "--errors=-iXZZXI"],
    ["check", "--code=threespin", "--errors=X1,Z2"],
    ["check", "--code=trivial2", "--errors=weight2"],
    ["mindist", "--stabilizer=fivequbit", "--alphabet=XYZ", "--cap=5"],
    ["mindist", "--stabilizer=repetition3", "--alphabet=Z", "--cap=2"],
    ["simulate", "--code=repetition3", "--channel=independent n=3 bitflip p=0.25", "--input=0"],
    ["simulate", "--code=repetition3", "--channel=independent n=3 bitflip p=0.25",
     "--trials=2000", "--seed=7"],
    ["simulate", "--code=fivequbit", "--channel=independent n=5 depolarizing p=0.1",
     "--input=+", "--trials=2000"],
    ["simulate", "--code=cyclic7", "--channel=gaussian7 K=3", "--input=[0.6, 0.8]"],
    ["simulate", "--code=threespin", "--channel=collective vx=1 vy=0.5 vz=0",
     "--input=[[1,0],[0,1]]"],
    ["simulate", "--code=trivial2", "--channel=independent n=2 bitflip p=0.2", "--input=1",
     "--fail-threshold=0"],
    ["twirl", "--channel=depolarizing p=0.3"],
    ["noiseless", "--rotations=20", "--seed=1"],
    ["concat", "--p=1e-3", "--C=100", "--levels=4", "--block=3"],
    *[["demo", name, "--fail-threshold=0.5"] for name in DEMO_NAMES],
]
cli_number = st.sampled_from(["0", "1", "3", "-1", "nan", "inf", "-inf", "1e3", "x", ""])
CLI_VALUES = {
    "--code": st.sampled_from(["repetition3", "fivequbit", "cyclic7", "threespin", "trivial2",
                               "nosuch"]),
    "--errors": st.one_of(
        st.sampled_from(["weight0", "weight1", "weight2", "weight", "weightx", "weight-1"]),
        st.lists(st.one_of(st.builds("{}{}".format, st.sampled_from("IXYZW"),
                                     st.integers(-1, 6).map(str)),
                           st.sampled_from(["I", "XZZXI", "-iXZZXI", "ZZI", "+XX", ""])),
                 min_size=1, max_size=3).map(",".join)),
    "--channel": st.builds(
        "{}{} {}".format,
        st.sampled_from(["", "independent n=3 ", "independent n=5 ", "independent n=-1 ",
                         "independent "]),
        st.sampled_from(["bitflip", "depolarizing", "gaussian7", "collective", "wat"]),
        # missing, unknown and repeated keys, and nan
        st.lists(st.builds("{}={}".format, st.sampled_from(["p", "K", "vx", "vy", "vz", "q"]),
                           st.sampled_from(["0.1", "1", "2", "-1", "nan", "inf", "abc"])),
                 max_size=4).map(" ".join)),
    "--input": st.one_of(
        st.sampled_from(["0", "1", "2", "7", "+", "-", "-1", "foo", "[]", "[true, false]",
                         "[[true, 0], [0, 0]]", "[NaN, 1]", "[1, 0, 0]", "{}", "[1e400, 0]"]),
        st.lists(st.floats(-2, 2) | st.integers(-2, 2), min_size=1, max_size=3).map(json.dumps),
        st.lists(st.lists(st.floats(-2, 2), min_size=2, max_size=2), min_size=1,
                 max_size=3).map(json.dumps)),
    "--alphabet": st.sampled_from(["XYZ", "Z", "XZ", "Q", ""]),
    "--seed": st.sampled_from(["0", "7", str(2 ** 128), "-1", "nan", "inf", "x"]),
    "--trials": st.sampled_from(["0", "1", "2000", "-1", "nan", "inf", "x"]),
    "--rotations": st.sampled_from(["0", "1", "20", "-1", "nan", "inf", "x"]),
    "--levels": st.sampled_from(["0", "1", "30", "-1", "nan", "inf", "x"]),
    "--cap": cli_number, "--block": cli_number, "--p": cli_number, "--C": cli_number,
    "--fail-threshold": cli_number,
}


@st.composite
def cli_argv(draw):
    argv = list(draw(st.sampled_from(CLI_COMMANDS)))
    for _ in range(draw(st.integers(0, 2))):
        if len(argv) == 1:
            break
        i = draw(st.integers(1, len(argv) - 1))
        flag = argv[i].split("=")[0]
        if flag in CLI_VALUES and draw(st.booleans()):
            argv[i] = f"{flag}={draw(CLI_VALUES[flag])}"
        elif flag.startswith("--") or draw(st.booleans()):
            del argv[i]
        else:  # a demo's name
            argv[i] = draw(st.sampled_from(["nosuch", "--table=x"]))
    return argv


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(deadline=None, max_examples=200)
@given(cli_argv())
@example(["simulate", "--code=repetition3", "--channel=independent n=3 bitflip p=0.1",
          "--input=[0.6, 0.8]"])
@example(["check", "--code=fivequbit", "--errors=-iXZZXI"])
@example(["demo", "three-spin"])
@example([])
@example(["nosuch"])
def test_cli_exits_with_a_documented_code(argv):
    # 0, 1 and 2 print strict JSON (no NaN or Infinity); 64 prints nothing on
    # stdout and ends stderr with a line naming the program
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    event(f"{argv[0] if argv else None} exit {code}")
    if code == 64:
        assert out.getvalue() == "", argv
        assert err.getvalue().splitlines()[-1].startswith("qecdesk"), (argv, err.getvalue())
    else:
        json.loads(out.getvalue(), parse_constant=refuse_constant)
