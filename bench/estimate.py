"""The estimators: a percentile within a segment, a median over segments.

The box this runs on changes speed in phases of seconds to a minute, so
a single mean over a run is not repeatable.  Every timing the benchmark
reports is the **median over at least twelve segments** of a statistic
taken inside each segment (ops/s of the segment; p50 / p99 of the
latencies completed in it), with the quartiles alongside.
"""

from __future__ import annotations

import statistics


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted list (numpy's
    default rule)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of per-segment (or per-visit) values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(summary: dict) -> float:
    """Quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0
