"""Error and fidelity metrics: entanglement fidelity, Haar-averaged Monte
Carlo error, and coarse per-branch bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _known_labels, _philox_blocks
from .hilbert import _CHUNK_BYTES, StateVector


def entanglement_fidelity(ch: KrausChannel) -> float:
    """Overlap of a maximally entangled pair with itself after one-sided noise.

    Evaluated in closed form: each operator A contributes |tr A|^2 / d^2,
    whichever maximally entangled state is chosen.  A product's value is the
    product of its factors' values, since |tr(A (x) B)|^2 = |tr A|^2 |tr B|^2.
    """
    if ch.factors:
        return math.prod(map(entanglement_fidelity, ch.factors))
    d = ch.dim
    total = sum(float(np.sum(np.abs(np.einsum("mii->m", blk)) ** 2)) for blk in ch.blocks)
    return total / d ** 2


def average_error_from_entanglement(eps_e: float, k: int) -> float:
    """Haar-average error from entanglement error on k qubits: scale by 2^k/(2^k+1)."""
    d = 2 ** k
    return d / (d + 1.0) * eps_e


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int

    @property
    def ci95(self) -> float:
        return 1.96 * self.std_error


_MC_BLOCK = 1024


def average_error_monte_carlo(ch: KrausChannel, trials: int, seed: int = 0) -> MonteCarloEstimate:
    """Estimate the Haar-average input-output error of a channel.

    Each trial draws a Haar-random pure state psi and evaluates
    1 - <psi| ch(psi) |psi>.  Trials are grouped into fixed-size blocks, each
    with its own counter-derived stream from the single seed, so the result
    does not depend on how blocks are scheduled.  Within a block, trials are
    drawn in chunks small enough that both the outer products
    conj(psi) (x) psi and their GEMM with a whole operator block, which gives
    <psi|A|psi> for every operator in it, fill at most one block's worth of
    entries.  Blocks merge as (count, mean, M2), Chan et al.'s update.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    d = ch.dim
    # each block's transpose, C-contiguous: a transposed GEMM operand ran
    # 20-30x slower for the life of some fresh 2-thread OpenBLAS processes
    flat_ts = [np.ascontiguousarray(blk.reshape(len(blk), d * d).T) for blk in ch.blocks]
    chunk = max(1, _CHUNK_BYTES // (16 * max(d * d, flat_ts[0].shape[1])))
    done, mean, m2 = 0, 0.0, 0.0
    for g, count in _philox_blocks(seed, trials, _MC_BLOCK):
        fid = np.zeros(count)
        for start in range(0, count, chunk):
            # consecutive draws from one generator continue its stream, so
            # chunking leaves the block's numbers as one draw would give them
            z = g.standard_normal((min(chunk, count - start), d, 2))
            psi = z[..., 0] + 1j * z[..., 1]
            psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
            outer = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(len(psi), d * d)
            for flat_t in flat_ts:
                fid[start:start + len(psi)] += (np.abs(outer @ flat_t) ** 2).sum(axis=1)
        err = 1.0 - fid
        block_mean = float(err.mean())
        delta = block_mean - mean
        total = done + count
        mean += delta * count / total
        m2 += float(((err - block_mean) ** 2).sum()) + delta * delta * done * count / total
        done = total
    var = m2 / (trials - 1.0) if trials > 1 else 0.0
    return MonteCarloEstimate(mean, math.sqrt(var / trials), trials, seed)


def bad_branch_probability(ch: KrausChannel, psi: StateVector,
                           bad_labels=None) -> float:
    """Exact probability of landing in a flagged branch from a pure input."""
    bad = ch.bad_labels if bad_labels is None else _known_labels(bad_labels, ch.ops)
    if not bad:
        return 0.0
    flagged = np.array([label in bad for label in ch.labels()])
    total = 0.0
    start = 0
    for y in ch.branch_blocks(psi.amplitudes):
        v = y[flagged[start:start + len(y)]]
        total += float(np.vdot(v, v).real)
        start += len(y)
    return total


def bad_branch_error_bound(ch: KrausChannel, bad_labels=None) -> float:
    """State-independent upper bound on the flagged-branch probability.

    Sums the operator norms of the flagged operators and squares: valid for
    every input, tight when a single flagged operator is proportional to a
    unitary.
    """
    bad = ch.bad_labels if bad_labels is None else _known_labels(bad_labels, ch.ops)
    if not bad:
        return 0.0
    total = 0.0
    for label, a in ch.ops:
        if label in bad:
            total += float(np.linalg.norm(a, ord=2))
    return total ** 2
