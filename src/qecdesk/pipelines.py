"""End-to-end encode / noise / decode scenarios and concatenation arithmetic.

Exact runs send the encoded pure state through the noise as branch vectors,
push the resulting density matrix through decoding and enumerate syndrome
outcomes; Monte Carlo runs sample noise branches per trial from
counter-derived streams and must agree with the exact run within sampling
error.  Reports serialize to a stable JSON layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import (
    KrausChannel,
    _philox_blocks,
    gaussian_shift,
    gaussian_shift_probabilities,
)
from .codes import CodeSubspace, SubsystemIdentification, cyclic7
from .hilbert import ATOL_ALGEBRA, StateVector

# Reference threshold estimates for fault-tolerant operation, quoted from the
# survey literature for orientation only; nothing in this package derives them.
REPORTED_THRESHOLDS = {
    "local_gates_conservative": 1e-6,
    "depolarizing_believed": 1e-4,
    "erasure": 1e-2,
    "known_basis_measurement": 1.0,
}

PLUS = StateVector((2,), np.array([1.0, 1.0]) / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class PipelineReport:
    """Outcome table plus metrics for one scenario run."""

    scenario: str
    input_desc: str
    outcomes: tuple[tuple[str, str, float], ...]
    logical_rho: np.ndarray
    metrics: dict
    seed: int | None = None
    trials: int | None = None

    def outcome_probability(self, syndrome: str, logical: str) -> float:
        for s, l, p in self.outcomes:
            if s == syndrome and l == logical:
                return p
        return 0.0

    def to_json(self, ndigits: int | None = None) -> dict:
        def r(x: float):
            return round(float(x), ndigits) if ndigits is not None else float(x)

        out = {
            "scenario": self.scenario,
            "input": self.input_desc,
            "outcomes": [
                {"syndrome": s, "logical": l, "p": r(p)} for s, l, p in self.outcomes
            ],
            "logical_rho": [
                [[r(z.real), r(z.imag)] for z in row] for row in self.logical_rho
            ],
            "metrics": {k: r(v) for k, v in self.metrics.items()},
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.trials is not None:
            out["trials"] = self.trials
        return out


def _check_logical_input(ident_dim: int, state: StateVector) -> StateVector:
    if state.dims != (ident_dim,):
        raise ValueError(f"input state must be {ident_dim}-dimensional")
    if abs(state.norm() - 1.0) > ATOL_ALGEBRA:
        raise ValueError("input state is not normalized")
    return state


def _outcome_table(psi_in: StateVector, blocks, fail: float, fail_row: bool,
                   scenario: str, input_desc: str) -> PipelineReport:
    """Report from (label, probability, logical block) triples plus fail mass.

    Each block gives an "ok" row (overlap with the input, clamped to [0, p])
    and an "err" row (the rest); fail_row adds a single "fail" row.
    logical_rho is the sum of the blocks, normalized when it has weight.
    """
    psi = psi_in.amplitudes
    rows = []
    logical = np.zeros((psi.size, psi.size), dtype=complex)
    success = 0.0
    error = 0.0
    for label, p, block in blocks:
        p_ok = float(np.real(np.vdot(psi, block @ psi)))
        p_ok = min(max(p_ok, 0.0), p)
        rows.append((label, "ok", p_ok))
        rows.append((label, "err", p - p_ok))
        logical += block
        success += p_ok
        error += p - p_ok
    if fail_row:
        rows.append(("fail", "", fail))
    accepted = float(np.trace(logical).real)
    if accepted > ATOL_ALGEBRA:
        logical = logical / accepted
    metrics = {"success": success, "error": error, "fail": fail}
    return PipelineReport(scenario, input_desc, tuple(rows), logical, metrics)


def run_exact(
    ident: SubsystemIdentification,
    channel: KrausChannel,
    input_state: StateVector,
    scenario: str = "exact",
    input_desc: str = "",
) -> PipelineReport:
    """Encode, apply noise, decode by the identification, enumerate outcomes.

    Each syndrome value contributes an "ok" row (decoded logical state agrees
    with the input) and an "err" row (orthogonal remainder); mass outside a
    partial identification appears as a single "fail" row.  logical_rho is
    the decoded logical state conditioned on acceptance.
    """
    psi_in = _check_logical_input(ident.logical_dim, input_state)
    psi_enc = ident.encode(psi_in)
    if channel.dims != tuple(ident.physical_dims):
        raise ValueError("channel dims do not match the code")
    rho = channel.apply_pure(psi_enc.amplitudes)
    sigma, fail = ident.subsystem_matrix(rho)
    dl = ident.logical_dim
    blocks = []
    for s in range(ident.syndrome_dim):
        block = sigma[s * dl:(s + 1) * dl, s * dl:(s + 1) * dl]
        blocks.append((ident.syndrome_label(s), float(np.trace(block).real), block))
    return _outcome_table(psi_in, blocks, fail, not ident.is_complete(),
                          scenario, input_desc)


def run_corrected(
    code: CodeSubspace,
    recovery: KrausChannel,
    channel: KrausChannel,
    input_state: StateVector,
    scenario: str = "corrected",
    input_desc: str = "",
) -> PipelineReport:
    """Encode in a code subspace, apply noise, run a recovery channel, decode.

    Outcome rows are labeled by the recovery branch; branches flagged bad by
    the recovery (non-correctable residue) report as "fail".
    """
    psi_in = _check_logical_input(code.dim, input_state)
    cmat = code.basis_matrix()
    psi_enc = cmat @ psi_in.amplitudes
    if channel.dims != tuple(code.physical_dims):
        raise ValueError("channel dims do not match the code")
    rho = channel.apply_pure(psi_enc)
    blocks = []
    fail = 0.0
    for label, r in recovery.ops:
        branch = r @ rho @ r.conj().T
        p_r = float(np.trace(branch).real)
        if label in recovery.bad_labels:
            fail += p_r
        else:
            blocks.append((label, p_r, cmat.conj().T @ branch @ cmat))
    return _outcome_table(psi_in, blocks, fail, bool(recovery.bad_labels),
                          scenario, input_desc)


def run_cyclic(
    input_state: StateVector | None = None,
    K: int = 20,
    scenario: str = "cyclic7",
) -> PipelineReport:
    """The seven-level cyclic scenario: Gaussian shifts, detect, decode."""
    if input_state is None:
        input_state = PLUS
        desc = "(|0>+|1>)/sqrt2"
    else:
        desc = "custom"
    ident = cyclic7()
    report = run_exact(ident, gaussian_shift(7, K), input_state, scenario, desc)
    probs = gaussian_shift_probabilities(K)
    metrics = dict(report.metrics)
    metrics["shift0_p"] = probs[0]
    metrics["shift1_p"] = probs[1]
    metrics["shift_le1_mass"] = probs[-1] + probs[0] + probs[1]
    return PipelineReport(report.scenario, report.input_desc, report.outcomes,
                          report.logical_rho, metrics)


# --- Monte Carlo --------------------------------------------------------------

_MC_BLOCK = 8192


def _branch_tables(ident: SubsystemIdentification, channel: KrausChannel,
                   psi_enc: np.ndarray, psi_in: np.ndarray):
    """Per channel branch: (branch probability, outcome distribution).

    Outcomes are indexed into a shared row list [(syndrome, logical), ...,
    ("fail", "")]; per-branch distributions are conditional on the branch.
    """
    dl = ident.logical_dim
    w = ident.isometry.matrix
    rows = []
    for s in range(ident.syndrome_dim):
        rows.append((ident.syndrome_label(s), "ok"))
        rows.append((ident.syndrome_label(s), "err"))
    rows.append(("fail", ""))
    qs = []
    dists = []
    for v in itertools.chain.from_iterable(channel.branch_blocks(psi_enc)):
        q = float(np.vdot(v, v).real)
        qs.append(q)
        if q <= 1e-30:
            dists.append(np.zeros(len(rows)))
            continue
        v = v / math.sqrt(q)
        sub = w.conj().T @ v
        dist = np.zeros(len(rows))
        for s in range(ident.syndrome_dim):
            block = sub[s * dl:(s + 1) * dl]
            p_s = float(np.vdot(block, block).real)
            p_ok = abs(np.vdot(psi_in, block)) ** 2
            dist[2 * s] = min(p_ok, p_s)
            dist[2 * s + 1] = p_s - dist[2 * s]
        dist[-1] = max(1.0 - dist.sum(), 0.0)
        dists.append(dist)
    return rows, np.array(qs), np.vstack(dists)


def run_monte_carlo(
    ident: SubsystemIdentification,
    channel: KrausChannel,
    input_state: StateVector,
    trials: int,
    seed: int = 0,
    scenario: str = "monte-carlo",
    input_desc: str = "",
) -> PipelineReport:
    """Sample the pipeline: one noise branch and one measured outcome per trial.

    Uses one counter-derived stream per fixed-size trial block from the given
    seed, so results are reproducible and independent of scheduling.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    psi_in = _check_logical_input(ident.logical_dim, input_state)
    psi_enc = ident.encode(psi_in)
    if channel.dims != tuple(ident.physical_dims):
        raise ValueError("channel dims do not match the code")
    rows, qs, dists = _branch_tables(ident, channel,
                                     psi_enc.amplitudes, psi_in.amplitudes)
    cum_q = np.cumsum(qs)
    cum_q[-1] = max(cum_q[-1], 1.0)
    cum_d = np.cumsum(dists, axis=1)
    counts = np.zeros(len(rows), dtype=np.int64)
    for g, count in _philox_blocks(seed, trials, _MC_BLOCK):
        u = g.random((count, 2))
        branch = np.searchsorted(cum_q, u[:, 0], side="right")
        branch = np.minimum(branch, len(qs) - 1)
        row = (cum_d[branch] < u[:, 1][:, None]).sum(axis=1)
        row = np.minimum(row, len(rows) - 1)
        counts += np.bincount(row, minlength=len(rows))
    freq = counts / float(trials)
    out_rows = []
    success = error = fail = 0.0
    for (s, l), f in zip(rows, freq):
        if s == "fail":
            fail = float(f)
            if ident.is_complete() and counts[-1] == 0:
                continue
            out_rows.append((s, l, float(f)))
        else:
            out_rows.append((s, l, float(f)))
            if l == "ok":
                success += float(f)
            else:
                error += float(f)
    err_std = math.sqrt(max(error * (1.0 - error), 1e-30) / trials)
    metrics = {
        "success": success,
        "error": error,
        "fail": fail,
        "error_std": err_std,
    }
    logical = np.zeros((ident.logical_dim, ident.logical_dim), dtype=complex)
    return PipelineReport(scenario, input_desc, tuple(out_rows), logical,
                          metrics, seed=seed, trials=trials)


# --- concatenation ------------------------------------------------------------


@dataclass(frozen=True)
class ConcatenationResult:
    """Exact level-by-level error rates for repeated encoding.

    Level 1 is the bare physical rate p; each further level squares the rate
    and pays the combinatorial constant: p_(j+1) = C p_j^2, equivalently
    p_j = C^(2^(j-1)-1) p^(2^(j-1)).  Improvement at every level is exactly
    the condition p < 1/C.
    """

    p: Fraction
    C: Fraction
    block: int
    levels_exact: tuple[Fraction, ...]
    closed_form_exact: tuple[Fraction, ...]
    resources: tuple[int, ...]
    improving: bool

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.levels_exact)

    def to_json(self) -> dict:
        return {
            "p": float(self.p),
            "C": float(self.C),
            "block": self.block,
            "levels": list(self.levels),
            "resources": list(self.resources),
            "improving": self.improving,
        }


def concat_recursion(p, C, levels: int, block: int = 3) -> ConcatenationResult:
    """Iterate the concatenation recursion exactly in rational arithmetic."""
    if levels < 1:
        raise ValueError("need at least one level")
    if block < 2:
        raise ValueError("block size must be at least 2")
    p = Fraction(p)
    c = Fraction(C)
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    if c <= 0:
        raise ValueError("C must be positive")
    iterated = [p]
    for _ in range(levels - 1):
        iterated.append(c * iterated[-1] ** 2)
    closed = [c ** (2 ** (j - 1) - 1) * p ** (2 ** (j - 1)) for j in range(1, levels + 1)]
    resources = tuple(block ** (j - 1) for j in range(1, levels + 1))
    return ConcatenationResult(
        p, c, block, tuple(iterated), tuple(closed), resources, improving=p < 1 / c
    )
