"""Small statistics the benchmark reports: medians, tail percentiles, ratios."""

from __future__ import annotations

import statistics

#: Candidate percentiles, highest last.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile in PERCENTILES with at least TAIL_SAMPLES beyond it.

    With n samples, n * (1 - q/100) of them lie above the q-th percentile;
    None means even the median has fewer than TAIL_SAMPLES beyond it.
    """
    best = None
    for q in PERCENTILES:
        # Integer arithmetic on tenths of a percent avoids 99.9 rounding.
        if n * (1000 - round(q * 10)) >= TAIL_SAMPLES * 1000:
            best = q
    return best


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = -(-len(ordered) * round(q * 10) // 1000)  # ceil(n * q / 100)
    return ordered[max(rank, 1) - 1]


def latency_summary(values) -> dict:
    """Median plus the tail percentile the sample size supports, with n."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if n else None}
    q = tail_percentile(n)
    if q is not None and q > 50.0:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def ratio(num: float, den: float) -> dict:
    """A ratio that always carries its base; value is None on an empty base."""
    return {"value": num / den if den else None, "num": num, "base": den}
