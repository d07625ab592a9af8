"""End-to-end encode / noise / decode scenarios and concatenation arithmetic.

A decoder is an isometry W from syndrome (x) logical into the physical space,
and every run reports one outcome table (_table): an "ok" and an "err" mass
per syndrome, and a "fail" mass outside W.  Every run encodes by one rule
(_setup): C psi for a code subspace C, by default W's own code (the columns
of W with the syndrome in its base value).  The exact runs push the encoded
pure state through the noise as branch vectors and read the table from the
syndrome blocks of W^dag rho W.
run_monte_carlo forms the same table per noise branch, from W^dag of each
normalized branch vector, and samples a branch and then an outcome per trial
from counter-derived streams, so it agrees with the exact run within sampling
error.  Reports serialize to a stable JSON layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channels import (
    KrausChannel,
    _philox_blocks,
    gaussian_shift,
    gaussian_shift_probabilities,
)
from .codes import CodeSubspace, SubsystemIdentification, cyclic7
from .hilbert import ATOL_ALGEBRA, LinearOperator, StateVector, admit, to_json_array

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
    logical_rho: np.ndarray | None  # None for a sampled run, which draws no states
    metrics: dict
    seed: int | None = None
    trials: int | None = None

    def outcome_probability(self, syndrome: str, logical: str) -> float:
        for s, l, p in self.outcomes:
            if s == syndrome and l == logical:
                return p
        return 0.0

    def to_json(self) -> dict:
        out = {
            "scenario": self.scenario,
            "input": self.input_desc,
            "outcomes": [
                {"syndrome": s, "logical": l, "p": float(p)} for s, l, p in self.outcomes
            ],
        }
        if self.logical_rho is not None:
            out["logical_rho"] = to_json_array(self.logical_rho)
        out["metrics"] = {k: float(v) for k, v in self.metrics.items()}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.trials is not None:
            out["trials"] = self.trials
        return out


def _setup(decoder, channel: KrausChannel, state: StateVector, code=None):
    """The one encode rule, once input and noise fit W: (W, psi, C psi) for
    the code subspace C, by default W's own code (W read by _code_decoder)."""
    code = decoder.code_subspace if code is None else code
    ident = _code_decoder(code, decoder)
    if state.dims != (ident.logical_dim,):
        raise ValueError(f"input state must be {ident.logical_dim}-dimensional")
    # written so that a NaN norm fails too
    if not abs(state.norm() - 1.0) <= ATOL_ALGEBRA:
        raise ValueError(f"input state is not normalized: norm {state.norm()!r}")
    if channel.dims != ident.physical_dims:
        raise ValueError(f"channel dims {channel.dims} do not match the code's "
                         f"{ident.physical_dims}")
    psi = state.amplitudes
    return ident, psi, code.basis_matrix() @ psi


def _table(p: np.ndarray, ok: np.ndarray, fail) -> np.ndarray:
    """The outcome masses [ok_0, err_0, ..., ok_(S-1), err_(S-1), fail].

    p[..., s] is syndrome s's mass and ok[..., s] its overlap with the input,
    clamped to [0, p]; err is the rest.  Leading axes (one per noise branch)
    carry through.
    """
    ok = np.minimum(np.maximum(ok, 0.0), p)
    pairs = np.stack([ok, p - ok], axis=-1).reshape(*p.shape[:-1], -1)
    return np.concatenate([pairs, np.asarray(fail)[..., None]], axis=-1)


def _report(ident: SubsystemIdentification, masses: np.ndarray, scenario: str,
            input_desc: str, logical: np.ndarray | None, seed: int | None = None,
            trials: int | None = None) -> PipelineReport:
    """Rows and metrics of one outcome table; the "fail" row appears only
    when W is partial.  A sampled table (trials given) adds error_std."""
    kinds = ("ok", "err")
    rows = [(ident.syndrome_label(i // 2), kinds[i % 2], float(m))
            for i, m in enumerate(masses[:-1])]
    if not ident.is_complete():
        rows.append(("fail", "", float(masses[-1])))
    error = float(masses[1:-1:2].sum())
    metrics = {"success": float(masses[:-1:2].sum()), "error": error,
               "fail": float(masses[-1])}
    if trials is not None:
        metrics["error_std"] = math.sqrt(max(error * (1.0 - error), 1e-30) / trials)
    return PipelineReport(scenario, input_desc, tuple(rows), logical, metrics,
                          seed=seed, trials=trials)


def _run(ident: SubsystemIdentification, psi: np.ndarray, psi_enc: np.ndarray,
         channel: KrausChannel, scenario: str, input_desc: str) -> PipelineReport:
    """The encode/noise/decode core: psi_enc through the noise, then the
    diagonal syndrome blocks of W^dag rho W.

    Each block's trace is its syndrome's mass and <psi|block|psi> its "ok"
    mass; the mass outside W is "fail".  logical_rho is the sum of the blocks
    normalized by their weight: the logical state given acceptance.
    """
    sigma, fail = ident.subsystem_matrix(channel.apply_pure(psi_enc))
    ns, dl = ident.syndrome_dim, ident.logical_dim
    s = np.arange(ns)
    blocks = sigma.reshape(ns, dl, ns, dl)[s, :, s, :]
    p = np.trace(blocks, axis1=1, axis2=2).real
    ok = (blocks @ psi @ psi.conj()).real
    logical = blocks.sum(axis=0)
    accepted = float(np.trace(logical).real)
    if accepted > ATOL_ALGEBRA:
        logical = logical / accepted
    return _report(ident, _table(p, ok, fail), scenario, input_desc, logical)


def run_exact(
    ident: SubsystemIdentification,
    channel: KrausChannel,
    input_state: StateVector,
    scenario: str = "exact",
    input_desc: str = "",
) -> PipelineReport:
    """Encode into the identification's own code (syndrome in its base
    value), apply noise, decode by the identification, enumerate outcomes."""
    return _run(*_setup(ident, channel, input_state), channel, scenario, input_desc)


def _code_decoder(code: CodeSubspace,
                  decoder: SubsystemIdentification | KrausChannel) -> SubsystemIdentification:
    """The decoder of a code subspace as an identification W.

    The decoder is an identification of the code (decoder_identification) or
    a recovery channel whose good branches R_k map back into the code, read
    as W_k = R_k^dag C: then W_k^dag rho W_k = C^dag R_k rho R_k^dag C, and
    the isometry check refuses branches that leave the code.  The bad
    branches' mass, outside every W_k, reports as "fail".
    """
    if isinstance(decoder, KrausChannel):
        good = [(l, r) for l, r in decoder.ops if l not in decoder.bad_labels]
        w = np.hstack([r.conj().T @ code.basis_matrix() for _, r in good])
        decoder = SubsystemIdentification(
            LinearOperator((len(good), code.dim), code.physical_dims, w),
            syndrome_labels=tuple(l for l, _ in good))
    if decoder.logical_dim != code.dim or decoder.physical_dims != code.physical_dims:
        raise ValueError("decoder does not match the code")
    return decoder


def run_corrected(
    code: CodeSubspace,
    decoder: SubsystemIdentification | KrausChannel,
    channel: KrausChannel,
    input_state: StateVector,
    scenario: str = "corrected",
    input_desc: str = "",
) -> PipelineReport:
    """Encode as C psi in a code subspace, apply noise, decode by an
    identification of the code or a recovery channel (see _code_decoder)."""
    return _run(*_setup(decoder, channel, input_state, code), channel, scenario, input_desc)


def run_cyclic() -> PipelineReport:
    """The seven-level cyclic scenario: Gaussian shifts (K = 20) on
    (|0>+|1>)/sqrt2, detect, decode."""
    report = run_exact(cyclic7(), gaussian_shift(7, 20), PLUS, "cyclic7", "(|0>+|1>)/sqrt2")
    probs = gaussian_shift_probabilities(20)
    metrics = dict(report.metrics)
    metrics["shift0_p"] = probs[0]
    metrics["shift1_p"] = probs[1]
    metrics["shift_le1_mass"] = probs[-1] + probs[0] + probs[1]
    return replace(report, metrics=metrics)


# --- Monte Carlo --------------------------------------------------------------

_MC_BLOCK = 8192


def _branches(ident: SubsystemIdentification, channel: KrausChannel,
              psi: np.ndarray, psi_enc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per noise branch A_k psi_enc: its mass q_k and its outcome table given
    the branch, from W^dag of the normalized branch vectors, one block of
    branches at a time.  A branch of mass <= 1e-30 gets an all-zero table."""
    w = ident.isometry.matrix.conj()
    qs, tables = [], []
    for v in channel.branch_blocks(psi_enc):
        q = np.einsum("ij,ij->i", v.conj(), v).real
        live = q > 1e-30
        # dividing by an infinite norm sends a zero-mass branch to zeros
        sub = (v / np.sqrt(np.where(live, q, np.inf))[:, None]) @ w
        sub = sub.reshape(len(v), ident.syndrome_dim, ident.logical_dim)
        p = np.einsum("bsl,bsl->bs", sub.conj(), sub).real
        ok = np.abs(sub @ psi.conj()) ** 2
        qs.append(q)
        tables.append(_table(p, ok, np.maximum(live - p.sum(axis=1), 0.0)))
    return np.concatenate(qs), np.concatenate(tables)


def run_monte_carlo(
    ident: SubsystemIdentification,
    channel: KrausChannel,
    input_state: StateVector,
    trials: int,
    seed: int = 0,
    scenario: str = "monte-carlo",
    input_desc: str = "",
    code: CodeSubspace | None = None,
) -> PipelineReport:
    """Sample the pipeline: one noise branch and one measured outcome per trial.

    Encodes as run_corrected does given a code, else as run_exact.  Uses one
    counter-derived stream per fixed-size trial block from the given seed, so
    results are reproducible and independent of scheduling.  The report has
    no logical_rho: a sampled run draws outcomes, not states.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    ident, psi, psi_enc = _setup(ident, channel, input_state, code)
    qs, tables = _branches(ident, channel, psi, psi_enc)
    cum_q = np.cumsum(qs)
    cum_q[-1] = max(cum_q[-1], 1.0)
    cum_d = np.cumsum(tables, axis=1)
    counts = np.zeros(tables.shape[1], dtype=np.int64)
    for g, count in _philox_blocks(seed, trials, _MC_BLOCK):
        u = g.random((count, 2))
        branch = np.searchsorted(cum_q, u[:, 0], side="right")
        branch = np.minimum(branch, len(qs) - 1)
        row = (np.take(cum_d, branch, axis=0) < u[:, 1][:, None]).sum(axis=1)
        row = np.minimum(row, len(counts) - 1)
        counts += np.bincount(row, minlength=len(counts))
    return _report(ident, counts / float(trials), scenario, input_desc, None,
                   seed=seed, trials=trials)


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
    resources: tuple[int, ...]
    improving: bool

    @property
    def closed_form_exact(self) -> tuple[Fraction, ...]:
        """The levels again from p_j = C^(2^(j-1)-1) p^(2^(j-1)), as a check."""
        return tuple(self.C ** (2 ** (j - 1) - 1) * self.p ** (2 ** (j - 1))
                     for j in range(1, len(self.levels_exact) + 1))

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
    # level L is C^(k-1) p^k for k = 2^(L-1): with p = a/b and C = c/e in
    # lowest terms, its numerator and denominator together have at most
    # k (bits(a) + bits(b)) + (k - 1) (bits(c) + bits(e)) bits, which is at
    # least k, so k is admitted as a power before it is formed
    what = f"{levels} levels of exact rationals"
    admit(what, bits=(2, levels - 1))
    k = 2 ** (levels - 1)
    admit(what, bits=k * (p.numerator.bit_length() + p.denominator.bit_length())
          + (k - 1) * (c.numerator.bit_length() + c.denominator.bit_length()))
    iterated = [p]
    for _ in range(levels - 1):
        iterated.append(c * iterated[-1] ** 2)
    resources = tuple(block ** (j - 1) for j in range(1, levels + 1))
    return ConcatenationResult(p, c, block, tuple(iterated), resources, improving=p < 1 / c)
