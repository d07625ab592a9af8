"""States, densities, operators: construction guards and tensor plumbing."""

import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import qecdesk
from qecdesk.channels import collective_spin
from qecdesk.hilbert import (
    DensityOperator,
    LinearOperator,
    MAX_TOTAL_DIM,
    StateVector,
    admit,
    basis_state,
    exp_hermitian,
    herm_eig,
    to_json_array,
    vector_from_json,
)

Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0])


def test_state_vector_basics():
    s = StateVector((2,), np.array([3.0, 4.0]))
    assert s.norm() == pytest.approx(5.0)
    assert s.dim == 2
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


def _nan_density():
    rho = DensityOperator((2,), np.eye(2) / 2)
    object.__setattr__(rho, "matrix", np.diag([np.nan, np.nan]))  # past the constructor
    return rho


@pytest.mark.parametrize("refuse, message", [
    (lambda: DensityOperator((2,), np.diag([np.nan, np.nan])), "density matrix is not Hermitian"),
    (lambda: _nan_density().check_positive(), "eigenvalue nan"),
    (lambda: herm_eig(np.diag([np.nan, np.nan])), "operator is not Hermitian"),
], ids=["density", "check_positive", "herm_eig"])
def test_nan_is_refused(refuse, message):
    # each check is written not (defect <= tol), so that NaN fails it
    with pytest.raises(ValueError, match=message):
        refuse()


def test_operator_unitary_isometry_flags():
    assert LinearOperator((2,), (2,), Y).is_unitary()
    v = LinearOperator((1,), (2,), np.array([[1.0], [0.0]]))
    assert v.is_isometry()
    assert not v.is_unitary()
    bad = LinearOperator((2,), (2,), np.array([[1.0, 0.0], [0.0, 0.5]]))
    assert not bad.is_unitary()
    assert not bad.is_isometry()


def test_total_dimension_cap():
    with pytest.raises(ValueError):
        basis_state((2,) * 11, 0)
    # at the cap is fine
    basis_state((2,) * 10, 0)


def test_admit_names_the_amount_and_the_cap():
    admit("fits", dim=MAX_TOTAL_DIM, ops=(2, 12), nbytes=0, bits=(1, 10 ** 18))
    with pytest.raises(ValueError, match=r"^big: dimension 2048 exceeds cap MAX_TOTAL_DIM=1024$"):
        admit("big", dim=(2, 11))
    # the first amount past its cap is the one named
    with pytest.raises(ValueError, match=r"^x: operator count 4097 exceeds cap MAX_KRAUS_OPS=4096$"):
        admit("x", dim=2, ops=4097, nbytes=2 ** 40)
    # an exponent past the cap's bit length refuses the power unformed; a
    # formed 2**1000000 would print 301,030 digits, which str() refuses
    with pytest.raises(ValueError, match=r"^y: bit count 2\*\*1000000 exceeds cap MAX_CONCAT_BITS="):
        admit("y", bits=(2, 10 ** 6))


def _cap_compares(text: str) -> list[int]:
    """Lines where a comparison names a MAX_* cap outside admit."""
    tree = ast.parse(text)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "admit" for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in inside:
            names = [getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node)]
            if any(name.startswith("MAX_") for name in names):
                lines.append(node.lineno)
    return lines


def test_caps_are_compared_only_in_admit():
    assert _cap_compares("def f(n):\n    return n > hilbert.MAX_TOTAL_DIM\n") == [2]
    assert _cap_compares("def admit(n):\n    return n > MAX_TOTAL_DIM\n") == []
    package = pathlib.Path(qecdesk.__file__).parent
    found = {path.name: _cap_compares(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_products_are_admitted_before_the_kronecker_chain():
    """11 qubits are 2048 x 2048 (64 MiB); the refusal comes first."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension 2048 exceeds cap MAX_TOTAL_DIM"):
            collective_spin("X", 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_herm_eig_sorted_and_guarded():
    w, v = herm_eig(Z)
    assert np.allclose(w, [-1, 1])
    assert np.allclose((v * w) @ v.conj().T, Z)
    with pytest.raises(ValueError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_exp_hermitian_is_rotation():
    theta = 0.7
    u = exp_hermitian(theta / 2 * Z)
    want = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.allclose(u, want, atol=1e-12)
    assert LinearOperator((2,), (2,), u).is_unitary()


def test_json_array_matches_the_elementwise_form():
    def elementwise(a):
        if a.ndim == 0:
            return [float(a.real), float(a.imag)]
        return [elementwise(x) for x in a]

    rng = np.random.default_rng(5)
    for shape in ((), (3,), (4, 4), (2, 3, 2), (0,)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = np.where(rng.random(size=shape) < 0.3, complex(-0.0, -0.0), a)
        got = to_json_array(a)
        assert type(got) is list
        assert json.dumps(got) == json.dumps(elementwise(np.asarray(a, dtype=complex)))
    assert json.dumps(to_json_array(np.array(-0.0))) == "[-0.0, 0.0]"


def test_json_array_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.array_equal(vector_from_json(to_json_array(a)), a)
    assert to_json_array(np.array(1 + 2j)) == [1.0, 2.0]
    # one grammar: all numbers (real amplitudes) or all [re, im] pairs
    assert np.array_equal(vector_from_json([0.6, -1]), [0.6, -1])
    assert np.array_equal(vector_from_json([[0, 1], [2, 0]]), [1j, 2])
    for data in ([[1.0, 2.0, 3.0]], [[1, 0], 1], [[[1, 0]]], 1.0, {"a": 1}, ["1"],
                 [10 ** 400, 0], [None]):
        with pytest.raises(ValueError, match="number pairs$"):
            vector_from_json(data)
    with pytest.raises(ValueError, match="finite"):
        vector_from_json([[float("inf"), 0]])
    # booleans among numbers would read as 1 and 0
    for data in ([[True, 0], [0, 0]], [[1.0, 0], [0, False]], [True, False], [1, False]):
        with pytest.raises(ValueError, match="not true or false"):
            vector_from_json(data)
