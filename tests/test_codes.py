"""Code constructions: classical tables, subsystem splits, stabilizer spaces."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_state
from oracles import LeakageDetected, logical_matrix, projector_codespace, syndrome_reset
from qecdesk.analysis import build_noiseless_qubit
from qecdesk.channels import depolarizing, identity_channel, tensor_channels
from qecdesk.cli import USAGE_EXIT, main
from qecdesk.codes import (
    CodeSubspace,
    FIVE_QUBIT_GENERATORS,
    SubsystemIdentification,
    builtin_code,
    cyclic7,
    five_qubit,
    parity_identification,
    parse_code_text,
    repetition_classical,
    repetition_failure_probability,
    repetition_quantum,
    stabilizer_codespace,
    three_spin_noiseless,
    trivial_two_qubit,
)
from qecdesk.gf2_symplectic import StabilizerGeneratorSet
from qecdesk.hilbert import DensityOperator, LinearOperator, StateVector, basis_state

# eight words split into (pairwise-parity syndrome, majority bit)
REPETITION_TABLE = {
    "000": ("00", "0"),
    "001": ("11", "0"),
    "010": ("01", "0"),
    "100": ("10", "0"),
    "011": ("10", "1"),
    "101": ("01", "1"),
    "110": ("11", "1"),
    "111": ("00", "1"),
}


def test_repetition_classical_table():
    rep = repetition_classical()
    assert rep.identification == REPETITION_TABLE
    assert rep.decode == {w: m for w, (_, m) in REPETITION_TABLE.items()}
    assert rep.code.words == ("000", "111")


def test_repetition_single_flips_move_only_syndrome():
    rep = repetition_classical()
    for word in ("000", "111"):
        _, logical = rep.identification[word]
        for i in range(3):
            flipped = word[:i] + str(1 - int(word[i])) + word[i + 1:]
            syn, log = rep.identification[flipped]
            assert log == logical
            assert syn != "00"


def test_repetition_failure_probability_exact():
    assert repetition_failure_probability(Fraction(1, 4)) == Fraction(5, 32)
    assert repetition_failure_probability(Fraction(0)) == 0
    assert repetition_failure_probability(Fraction(1, 2)) == Fraction(1, 2)
    # closed form 3p^2 - 2p^3
    for num, den in ((1, 10), (3, 7), (9, 10)):
        p = Fraction(num, den)
        assert repetition_failure_probability(p) == 3 * p**2 - 2 * p**3
    assert repetition_failure_probability(0.25) == pytest.approx(0.15625, abs=1e-12)


def test_parity_identification_table():
    assert parity_identification() == {
        "00": ("0", "0"),
        "01": ("0", "1"),
        "10": ("1", "1"),
        "11": ("1", "0"),
    }
    # flipping both bits moves the syndrome only
    ident = parity_identification()
    for w, flipped in (("00", "11"), ("01", "10")):
        assert ident[w][1] == ident[flipped][1]
        assert ident[w][0] != ident[flipped][0]


def test_repetition_quantum_matches_classical_table():
    ident = repetition_quantum()
    assert ident.is_complete()
    w = ident.isometry.matrix
    for word, (syn, log) in REPETITION_TABLE.items():
        phys = int(word, 2)
        col = int(syn, 2) * 2 + int(log)
        assert w[phys, col] == 1.0
    assert np.count_nonzero(w) == 8


def test_repetition_quantum_encode():
    ident = repetition_quantum()
    alpha, beta = 0.6, 0.8
    enc = ident.encode(StateVector((2,), np.array([alpha, beta])))
    want = np.zeros(8)
    want[0], want[7] = alpha, beta
    assert np.allclose(enc.amplitudes, want)


def test_repetition_flip_acts_on_syndrome_alone():
    ident = repetition_quantum()
    rng = np.random.default_rng(20)
    logical = StateVector((2,), rand_state(rng, 2))
    enc = ident.encode(logical)
    x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(4))  # flip first qubit
    rho = np.outer(x1 @ enc.amplitudes, (x1 @ enc.amplitudes).conj())
    rho_l, leak = logical_matrix(ident, rho)
    assert leak < 1e-12
    assert np.allclose(rho_l, np.outer(logical.amplitudes, logical.amplitudes.conj()),
                       atol=1e-12)


def test_syndrome_reset_reencodes():
    ident = repetition_quantum()
    enc = ident.encode(basis_state((2,), 1))  # |111>
    x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(4))
    rho = DensityOperator((2, 2, 2), np.outer(x1 @ enc.amplitudes,
                                              (x1 @ enc.amplitudes).conj()))
    fresh = syndrome_reset(ident, rho)
    assert np.allclose(fresh.matrix, np.outer(enc.amplitudes, enc.amplitudes.conj()),
                       atol=1e-12)


def test_syndrome_reset_names_both_dims():
    with pytest.raises(ValueError, match=r"^state dims \(7,\) do not match the identification's "
                                         r"\(2, 2, 2\)$"):
        syndrome_reset(repetition_quantum(), DensityOperator((7,), np.eye(7) / 7))


def test_cyclic7_identification():
    ident = cyclic7()
    assert not ident.is_complete()
    assert ident.syndrome_label(0) == "-1"
    assert ident.syndrome_label(1) == "0"
    # logical levels are 1 and 4
    assert np.allclose(ident.encode(basis_state((2,), 0)).amplitudes, np.eye(7)[1])
    assert np.allclose(ident.encode(basis_state((2,), 1)).amplitudes, np.eye(7)[4])
    # level-to-(syndrome, logical) map: shifting by one moves the syndrome
    w = ident.isometry.matrix
    level_of = {}
    for k in range(6):
        col = int(np.argmax(np.abs(w[k])))
        level_of[k] = divmod(col, 2)
    assert level_of[2] == (2, 0) and level_of[5] == (2, 1)
    assert level_of[0] == (0, 0) and level_of[3] == (0, 1)


def test_cyclic7_leakage_raises():
    ident = cyclic7()
    rho = DensityOperator((7,), np.diag([0, 0, 0, 0, 0, 0, 1.0]))
    with pytest.raises(LeakageDetected) as err:
        syndrome_reset(ident, rho)
    assert err.value.mass == pytest.approx(1.0)
    _, leak = logical_matrix(ident, rho.matrix)
    assert leak == pytest.approx(1.0)


def test_trivial_two_qubit_ignores_first_factor():
    ident = trivial_two_qubit()
    rng = np.random.default_rng(21)
    logical = StateVector((2,), rand_state(rng, 2))
    enc = ident.encode(logical)
    noisy = tensor_channels(depolarizing(0.7), identity_channel((2,)))
    out = noisy.apply_matrix(np.outer(enc.amplitudes, enc.amplitudes.conj()))
    rho_l, leak = logical_matrix(ident, out)
    assert leak < 1e-12
    assert np.allclose(rho_l, np.outer(logical.amplitudes, logical.amplitudes.conj()),
                       atol=1e-12)


def test_three_spin_printed_amplitudes():
    w = three_spin_noiseless().isometry.matrix
    omega = np.exp(2j * np.pi / 3)
    s3 = 1 / math.sqrt(3)
    want = np.zeros((8, 4), dtype=complex)
    # syndrome up: weight-one states |100>, |010>, |001>
    want[4, 0], want[2, 0], want[1, 0] = s3, s3 * omega.conj(), s3 * omega
    want[4, 1], want[2, 1], want[1, 1] = s3, s3 * omega, s3 * omega.conj()
    # syndrome down: weight-two states |011>, |101>, |110>, overall minus sign
    want[3, 2], want[5, 2], want[6, 2] = -s3, -s3 * omega.conj(), -s3 * omega
    want[3, 3], want[5, 3], want[6, 3] = -s3, -s3 * omega, -s3 * omega.conj()
    assert np.allclose(w, want, atol=1e-15)
    assert three_spin_noiseless().isometry.is_isometry()


def test_three_spin_casimir_eigenvalue():
    from qecdesk.channels import collective_spin

    w = three_spin_noiseless().isometry.matrix
    j2 = sum(collective_spin(u).matrix @ collective_spin(u).matrix for u in "XYZ")
    # spin-1/2 sector: j(j+1) = 3/4 on every identified state
    assert np.allclose(j2 @ w, 0.75 * w, atol=1e-12)


def test_stabilizer_codespace_repetition():
    stab = StabilizerGeneratorSet.from_strings(["ZZI", "ZIZ"])
    space = stabilizer_codespace(stab)
    assert space.dim == 2
    want = np.zeros((8, 8))
    want[0, 0] = want[7, 7] = 1.0
    c = space.basis_matrix()
    assert np.allclose(c @ c.conj().T, want, atol=1e-12)


def test_stabilizer_codespace_five_qubit():
    stab, space = five_qubit()
    assert space.dim == 2
    c = space.basis_matrix()
    p = c @ c.conj().T
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
    for g in stab.generators:
        assert np.allclose(g.dense() @ c, c, atol=1e-9)
    # basis is deterministic across rebuilds
    again = stabilizer_codespace(stab)
    assert np.allclose(space.basis_matrix(), again.basis_matrix(), atol=1e-15)


STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
SHOR = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
        "XXXXXXIII", "IIIXXXXXX")


@pytest.mark.parametrize("gens", [FIVE_QUBIT_GENERATORS, STEANE, SHOR],
                         ids=["five", "steane", "shor"])
def test_stabilizer_codespace_matches_the_projector_product(gens):
    # the row-gather projector and the dense product of (I + g)/2 agree bit
    # for bit, on each code and on a qubit-permuted copy of it
    n = len(gens[0])
    perm = np.random.default_rng(n).permutation(n)
    for words in (gens, ["".join(w[j] for j in perm) for w in gens]):
        stab = StabilizerGeneratorSet.from_strings(list(words))
        got = stabilizer_codespace(stab).basis_matrix()
        assert np.array_equal(got, projector_codespace(stab).basis_matrix())


REPETITION10 = tuple("I" * j + "ZZ" + "I" * (8 - j) for j in range(9))


@pytest.mark.parametrize("gens", [
    ("XX", "YY"),  # the Z-type element XX YY = -ZZ carries -1
    ("ZZ", "XX"),  # k = 1
    ("ZZI", "ZZI"),  # dependent generators
    ("III",),  # the identity as a generator: k = d
    ("XXXX", "ZZZZ"),  # k = 4
    REPETITION10,
], ids=["xx-yy", "zz-xx", "dependent", "identity", "k4", "repetition10"])
def test_stabilizer_codespace_columns_match_the_projector_oracle(gens):
    # the columns built from diag(P) are the dense projector's pivoted
    # Gram-Schmidt basis, bit for bit, as given and with the qubits permuted
    n = len(gens[0])
    perm = np.random.default_rng(n + 100).permutation(n)
    for words in (gens, ["".join(w[j] for j in perm) for w in gens]):
        stab = StabilizerGeneratorSet.from_strings(list(words))
        got = stabilizer_codespace(stab).basis_matrix()
        assert got.shape == (2 ** n, 2 ** (n - stab.rank()))
        assert np.array_equal(got, projector_codespace(stab).basis_matrix())


def test_stabilizer_codespace_rejects_inconsistent_generators():
    # XX YY ZZ = -I: the set is refused where it is built, before any codespace
    with pytest.raises(ValueError, match="^generators XX, YY, ZZ multiply to -I: "
                                         "they stabilize no state$"):
        StabilizerGeneratorSet.from_strings(["XX", "YY", "ZZ"])


def test_stabilizer_codespace_allocates_its_columns_only():
    # a 10-qubit repetition code: the 1024 x 1024 projector alone is 16 MiB
    stab = StabilizerGeneratorSet.from_strings(list(REPETITION10))
    tracemalloc.start()
    try:
        space = stabilizer_codespace(stab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 2
    assert peak < 2 ** 20, peak


def test_code_subspace_guards():
    for c in (np.ones((2, 2)) / math.sqrt(2), np.full((2, 1), np.nan)):
        with pytest.raises(ValueError, match="not orthonormal"):
            CodeSubspace(LinearOperator((c.shape[1],), (2,), c))
    with pytest.raises(ValueError, match="invalid subsystem dimensions"):
        CodeSubspace(LinearOperator((0,), (2,), np.zeros((2, 0))))
    with pytest.raises(ValueError, match="must be one factor"):
        CodeSubspace(LinearOperator((1, 1), (2,), np.eye(2)[:, :1]))


def test_identification_guards():
    with pytest.raises(ValueError, match="not an isometry"):
        SubsystemIdentification(LinearOperator((2, 2), (2, 2), np.eye(4) * 0.5))
    for dims_in in ((8,), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"must be a \(syndrome, logical\) pair"):
            SubsystemIdentification(LinearOperator(dims_in, (2, 2, 2), np.eye(8)))
    rep = repetition_quantum()
    with pytest.raises(ValueError):
        rep.encode(basis_state((4,), 0))


BUILTIN_IDENTIFICATIONS = {"repetition3": repetition_quantum, "cyclic7": cyclic7,
                           "threespin": three_spin_noiseless, "trivial2": trivial_two_qubit,
                           "derived-threespin": build_noiseless_qubit}


@pytest.mark.parametrize("name", sorted(BUILTIN_IDENTIFICATIONS))
def test_identification_code_is_the_base_syndrome_columns(name):
    """C is W(|base> (x) |l>) column by column, bit for bit, read from W's
    dims; it is built once and encode is C psi."""
    ident = BUILTIN_IDENTIFICATIONS[name]()
    w = ident.isometry
    assert (ident.physical_dims, (ident.syndrome_dim, ident.logical_dim)) == \
        (w.dims_out, w.dims_in)
    base = np.eye(ident.syndrome_dim)[ident.syndrome_base]
    want = np.column_stack([w.matrix @ np.kron(base, e) for e in np.eye(ident.logical_dim)])
    code = ident.code_subspace
    assert code is ident.code_subspace
    assert code.physical_dims == ident.physical_dims and code.dim == ident.logical_dim
    assert np.array_equal(code.basis_matrix(), want)
    rng = np.random.default_rng(61)
    psi = StateVector((ident.logical_dim,), rand_state(rng, ident.logical_dim))
    assert np.array_equal(ident.encode(psi).amplitudes, code.basis_matrix() @ psi.amplitudes)
    if name != "derived-threespin":  # the others are command-line codes too
        definition = builtin_code(name)
        assert definition.subspace is definition.identification.code_subspace
        assert np.array_equal(definition.subspace.basis_matrix(), want)


def test_parse_code_text_stabilizer():
    text = "stabilizer:\n" + "\n".join(FIVE_QUBIT_GENERATORS)
    code = parse_code_text(text, "five")
    assert code.subspace.dim == 2
    assert code.stabilizers.rank() == 4


def test_parse_code_text_header_is_optional():
    text = "# five-qubit code\n" + "\n".join(g + "  # generator" for g in FIVE_QUBIT_GENERATORS)
    code = parse_code_text(text)
    assert code.subspace.dim == 2
    assert code.stabilizers.generators == parse_code_text(
        "stabilizer:\n" + "\n".join(FIVE_QUBIT_GENERATORS)).stabilizers.generators
    with pytest.raises(ValueError):
        parse_code_text("basis:\n# nothing here\n")


def test_parse_code_text_skips_the_codespace(tmp_path, capsys):
    # 12 qubits are past the dense dimension cap; only the generators are read
    text = "\n".join("I" * i + "ZZ" + "I" * (10 - i) for i in range(11))
    code = parse_code_text(text)
    assert code.stabilizers.n == 12 and code.stabilizers.rank() == 11
    # building the codespace is refused before the 4096 x 4096 allocation
    with pytest.raises(ValueError, match="12-qubit codespace: dimension 4096 "
                                         "exceeds cap MAX_TOTAL_DIM=1024"):
        code.subspace
    path = tmp_path / "basis.txt"
    path.write_text("basis:\n[[1, 0], [0, 0]]")
    assert parse_code_text(path.read_text()).stabilizers is None
    assert main(["mindist", "--stabilizer", str(path)]) == USAGE_EXIT
    assert "code 'basis.txt' has no stabilizer generators" in capsys.readouterr().err


def test_parse_code_text_basis():
    a = 1 / math.sqrt(2)
    text = "basis:\n# a comment line\n" + \
        f"[[{a}, 0], [0, 0], [0, 0], [{a}, 0]]\n" + \
        f"[[0, 0], [{a}, 0], [{a}, 0], [0, 0]]"
    code = parse_code_text(text)
    assert code.subspace.dim == 2
    assert code.subspace.physical_dim == 4
    with pytest.raises(ValueError):
        parse_code_text("")
    with pytest.raises(ValueError):
        parse_code_text("wat:\nXX")


def test_builtin_codes():
    for name in ("repetition3", "cyclic7", "threespin", "fivequbit", "trivial2"):
        code = builtin_code(name)
        assert code.name == name
        assert code.subspace.dim == 2
    with pytest.raises(ValueError):
        builtin_code("nope")
