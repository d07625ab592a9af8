"""Code constructions: classical tables, subsystem splits, stabilizer spaces."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_state
from qecdesk.channels import depolarizing, identity_channel, tensor_channels
from qecdesk.codes import (
    CodeSubspace,
    FIVE_QUBIT_GENERATORS,
    LeakageDetected,
    SubsystemIdentification,
    builtin_code,
    cyclic7,
    five_qubit,
    parity_identification,
    parse_code_text,
    parse_stabilizer_text,
    repetition_classical,
    repetition_failure_probability,
    repetition_quantum,
    stabilizer_codespace,
    syndrome_reset,
    three_spin_noiseless,
    trivial_two_qubit,
)
from qecdesk.gf2_symplectic import StabilizerGeneratorSet
from qecdesk.hilbert import DensityOperator, StateVector, basis_state

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
    rho_l, leak = ident.logical_matrix(rho)
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
    _, leak = ident.logical_matrix(rho.matrix)
    assert leak == pytest.approx(1.0)


def test_trivial_two_qubit_ignores_first_factor():
    ident = trivial_two_qubit()
    rng = np.random.default_rng(21)
    logical = StateVector((2,), rand_state(rng, 2))
    enc = ident.encode(logical)
    noisy = tensor_channels(depolarizing(0.7), identity_channel((2,)))
    out = noisy.apply_matrix(np.outer(enc.amplitudes, enc.amplitudes.conj()))
    rho_l, leak = ident.logical_matrix(out)
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
        for b in space.basis:
            assert np.allclose(g.dense() @ b.amplitudes, b.amplitudes, atol=1e-9)
    # basis is deterministic across rebuilds
    again = stabilizer_codespace(stab)
    assert np.allclose(space.basis_matrix(), again.basis_matrix(), atol=1e-15)


def test_stabilizer_codespace_rejects_inconsistent_generators():
    stab = StabilizerGeneratorSet.from_strings(["XX", "YY", "ZZ"])
    with pytest.raises(ValueError):
        stabilizer_codespace(stab)


def test_code_subspace_guards():
    with pytest.raises(ValueError):
        CodeSubspace((2,), (basis_state((2,), 0), basis_state((2,), 0)))


def test_identification_guards():
    from qecdesk.hilbert import LinearOperator

    with pytest.raises(ValueError):
        SubsystemIdentification((2, 2), 2, 2,
                                LinearOperator((2, 2), (2, 2), np.eye(4) * 0.5))
    rep = repetition_quantum()
    with pytest.raises(ValueError):
        rep.encode(basis_state((4,), 0))


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


def test_parse_stabilizer_text_skips_the_codespace():
    # 12 qubits are past the dense dimension cap; only the generators are read
    text = "\n".join("I" * i + "ZZ" + "I" * (10 - i) for i in range(11))
    stab = parse_stabilizer_text(text)
    assert stab.n == 12 and stab.rank() == 11
    # building the codespace is refused before the 4096 x 4096 allocation
    with pytest.raises(ValueError, match="exceeds cap"):
        parse_code_text(text)
    with pytest.raises(ValueError):
        parse_stabilizer_text("basis:\n[[1, 0], [0, 0]]")


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
