"""Order statistics for op latencies and the rule for reporting a tail."""

TAIL_Q = 0.90    # the reported tail percentile, op_s.p90
MIN_TAIL = 10    # samples that must lie above it


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def above(values, q: float) -> int:
    """Number of samples strictly above the q-quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)
