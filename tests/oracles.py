"""Dense reference constructions that the package's fast paths replaced.

Each builds the same object the straightforward way, with Kronecker chains
and projector products; tests compare the package against them exactly.
"""

import numpy as np

from qecdesk.codes import CodeSubspace
from qecdesk.hilbert import StateVector

PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dense_word(word) -> np.ndarray:
    """The 2^n x 2^n matrix of a PauliProduct as a Kronecker chain, qubit 0
    the most significant factor."""
    m = np.array([[word.phase]], dtype=complex)
    for j in range(word.n):
        m = np.kron(m, PAULI_1Q[word.symbol(j)])
    return m


def projector_codespace(stab) -> CodeSubspace:
    """Joint +1 eigenspace of the generators from the product of the dense
    projectors (I + g)/2, with the same pivoted Gram-Schmidt on its columns
    as codes.stabilizer_codespace."""
    n = stab.n
    d = 2 ** n
    p = np.eye(d, dtype=complex)
    for g in stab.generators:
        p = p @ (np.eye(d, dtype=complex) + dense_word(g)) / 2.0
    res = p.copy()
    basis = []
    for _ in range(2 ** (n - stab.rank())):
        norms = np.linalg.norm(res, axis=0)
        j = int(np.argmax(norms))
        v = res[:, j] / norms[j]
        basis.append(StateVector((2,) * n, v))
        res -= np.outer(v, v.conj() @ res)
    return CodeSubspace((2,) * n, tuple(basis))
