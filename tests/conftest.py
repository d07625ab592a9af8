"""Shared helpers for the test suite.

Randomized checks use seeded generators so every run sees the same cases;
the property tests draw theirs from a derandomized Hypothesis profile.
"""

import numpy as np
from hypothesis import settings

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def rand_state(rng, dim):
    """Haar-random pure state as a complex vector of unit norm."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def rand_unitary(rng, dim):
    """Haar-random unitary via QR with the usual phase fix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, dim):
    """Random full-rank density matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real
