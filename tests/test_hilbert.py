"""States, densities, operators: construction guards and tensor plumbing."""

import math

import numpy as np
import pytest

from conftest import rand_density, rand_state, rand_unitary
from qecdesk.gf2_symplectic import PauliProduct
from qecdesk.hilbert import (
    DensityOperator,
    LinearOperator,
    MAX_TOTAL_DIM,
    StateVector,
    basis_state,
    exp_hermitian,
    from_json_array,
    herm_eig,
    identity,
    partial_trace,
    pauli,
    tensor,
    to_json_array,
)


def test_state_vector_basics():
    s = StateVector((2,), np.array([3.0, 4.0]))
    assert s.norm() == pytest.approx(5.0)
    t = s.normalized()
    assert t.norm() == pytest.approx(1.0)
    assert t.overlap(t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StateVector((2,), np.zeros(3))


def test_state_amplitudes_are_read_only():
    s = basis_state((2, 2), 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 9.0


def test_basis_state_indexing():
    s = basis_state((2, 3), 4)
    assert s.amplitudes[4] == 1.0
    assert s.amplitudes.sum() == 1.0
    assert s.dims == (2, 3)


def test_density_guards():
    with pytest.raises(ValueError):
        DensityOperator((2,), np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator((2,), np.eye(2))  # trace 2
    rho = DensityOperator((2,), np.diag([1.2, -0.2]))
    with pytest.raises(ValueError):
        rho.check_positive()


def test_density_from_state():
    s = StateVector((2,), np.array([1.0, 1.0]) / math.sqrt(2))
    rho = s.density()
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))
    rho.check_positive()


def test_operator_apply_and_compose():
    x = pauli("X")
    z = pauli("Z")
    s = basis_state((2,), 0)
    assert np.allclose(x.apply(s).amplitudes, [0, 1])
    xz = x @ z
    assert np.allclose(xz.matrix, x.matrix @ z.matrix)
    with pytest.raises(ValueError):
        x @ identity((3,))


def test_operator_unitary_isometry_flags():
    assert pauli("Y").is_unitary()
    v = LinearOperator((1,), (2,), np.array([[1.0], [0.0]]))
    assert v.is_isometry()
    assert not v.is_unitary()
    bad = LinearOperator((2,), (2,), np.array([[1.0, 0.0], [0.0, 0.5]]))
    assert not bad.is_unitary()
    assert not bad.is_isometry()


def test_conjugate_preserves_density():
    rng = np.random.default_rng(0)
    rho = DensityOperator((4,), rand_density(rng, 4))
    u = LinearOperator((4,), (4,), rand_unitary(rng, 4))
    out = u.conjugate(rho)
    assert abs(np.trace(out.matrix) - 1) < 1e-12
    out.check_positive()


def test_tensor_matches_pauli_word_dense():
    w = PauliProduct.from_string("ZIXI")
    built = tensor(pauli("Z"), pauli("I"), pauli("X"), pauli("I"))
    assert np.array_equal(w.dense(), built.matrix)


def test_tensor_of_states_ordering():
    s = tensor(basis_state((2,), 1), basis_state((3,), 0))
    assert s.dims == (2, 3)
    assert s.amplitudes[3] == 1.0  # |1>|0> = index 1*3+0


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(basis_state((2,), 0), pauli("X"))


def test_total_dimension_cap():
    with pytest.raises(ValueError):
        basis_state((2,) * 11, 0)
    # at the cap is fine
    basis_state((2,) * 10, 0)


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    a = rand_density(rng, 2)
    b = rand_density(rng, 3)
    rho = DensityOperator((2, 3), np.kron(a, b))
    assert np.allclose(partial_trace(rho, [0]).matrix, a, atol=1e-12)
    assert np.allclose(partial_trace(rho, [1]).matrix, b, atol=1e-12)


def test_partial_trace_bell_state():
    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = bell.density()
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(2)
    mats = [rand_density(rng, d) for d in (2, 2, 3)]
    rho = DensityOperator((2, 2, 3), np.kron(np.kron(mats[0], mats[1]), mats[2]))
    red = partial_trace(rho, [0, 2])
    assert np.allclose(red.matrix, np.kron(mats[0], mats[2]), atol=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [3])


def test_herm_eig_sorted_and_guarded():
    w, v = herm_eig(pauli("Z"))
    assert np.allclose(w, [-1, 1])
    assert np.allclose((v * w) @ v.conj().T, pauli("Z").matrix)
    with pytest.raises(ValueError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_exp_hermitian_is_rotation():
    theta = 0.7
    u = exp_hermitian(pauli("Z"), theta / 2)
    want = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.allclose(u.matrix, want, atol=1e-12)
    assert u.is_unitary()


def test_json_array_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    back = from_json_array(to_json_array(a))
    assert np.allclose(back, a, atol=1e-15)
    assert to_json_array(np.array(1 + 2j)) == [1.0, 2.0]
    with pytest.raises(ValueError):
        from_json_array([[1.0, 2.0, 3.0]])
