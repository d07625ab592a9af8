"""End-to-end encode / noise / decode scenarios and concatenation arithmetic.

Every exact run has one core: a decoder is an isometry W from syndrome (x)
logical into the physical space, the encoded pure state goes through the
noise as branch vectors, and the syndrome blocks of W^dag rho W give the
outcome table.  run_exact encodes by the identification, run_corrected as
C psi in a code subspace.  Monte Carlo runs sample noise branches per trial
from counter-derived streams and must agree with the exact run within
sampling error.  Reports serialize to a stable JSON layout.
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
from .hilbert import ATOL_ALGEBRA, LinearOperator, StateVector

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


def _run(ident: SubsystemIdentification, channel: KrausChannel, psi_in: StateVector,
         psi_enc: np.ndarray, scenario: str, input_desc: str) -> PipelineReport:
    """The encode/noise/decode core: psi_enc through the noise, then the
    syndrome blocks of W^dag rho W.

    Each syndrome gives an "ok" row (the block's overlap with the input,
    clamped to [0, p]) and an "err" row (the rest); a partial W adds one
    "fail" row, tr((I - W W^dag) rho).  logical_rho is the sum of the blocks
    normalized by their weight: the logical state given acceptance.
    """
    if channel.dims != tuple(ident.physical_dims):
        raise ValueError("channel dims do not match the code")
    sigma, fail = ident.subsystem_matrix(channel.apply_pure(psi_enc))
    psi, dl = psi_in.amplitudes, ident.logical_dim
    rows = []
    logical = np.zeros((dl, dl), dtype=complex)
    success = error = 0.0
    for s in range(ident.syndrome_dim):
        block = sigma[s * dl:(s + 1) * dl, s * dl:(s + 1) * dl]
        p = float(np.trace(block).real)
        p_ok = min(max(float(np.real(np.vdot(psi, block @ psi))), 0.0), p)
        label = ident.syndrome_label(s)
        rows += [(label, "ok", p_ok), (label, "err", p - p_ok)]
        logical += block
        success += p_ok
        error += p - p_ok
    if not ident.is_complete():
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
    """Encode by the identification (syndrome in its base value), apply
    noise, decode by the identification, enumerate outcomes."""
    psi_in = _check_logical_input(ident.logical_dim, input_state)
    return _run(ident, channel, psi_in, ident.encode(psi_in).amplitudes,
                scenario, input_desc)


def run_corrected(
    code: CodeSubspace,
    decoder: SubsystemIdentification | KrausChannel,
    channel: KrausChannel,
    input_state: StateVector,
    scenario: str = "corrected",
    input_desc: str = "",
) -> PipelineReport:
    """Encode as C psi in a code subspace, apply noise, decode.

    The decoder is an identification of the code (decoder_identification) or
    a recovery channel whose good branches R_k map back into the code, read
    as W_k = R_k^dag C: then W_k^dag rho W_k = C^dag R_k rho R_k^dag C, and
    the isometry check refuses branches that leave the code.  The bad
    branches' mass, outside every W_k, reports as "fail".
    """
    psi_in = _check_logical_input(code.dim, input_state)
    if isinstance(decoder, KrausChannel):
        good = [(l, r) for l, r in decoder.ops if l not in decoder.bad_labels]
        w = np.hstack([r.conj().T @ code.basis_matrix() for _, r in good])
        decoder = SubsystemIdentification(
            code.physical_dims, len(good), code.dim,
            LinearOperator((len(good), code.dim), code.physical_dims, w),
            syndrome_labels=tuple(l for l, _ in good))
    if decoder.logical_dim != code.dim or tuple(decoder.physical_dims) != code.physical_dims:
        raise ValueError("decoder does not match the code")
    return _run(decoder, channel, psi_in, code.basis_matrix() @ psi_in.amplitudes,
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
