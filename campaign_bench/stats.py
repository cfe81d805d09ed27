"""Summary statistics of the campaign benchmark.

One implementation for every figure the benchmark reports: medians, the
quartiles exactly as ``statistics.quantiles(values, n=4)`` gives them, and
the highest percentile that still has at least ten samples beyond it.
"""

import math
import statistics

# Percentiles tried, highest first, when asking which one a sample supports.
PERCENTILE_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n, p):
    # Rounded first so that, say, 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def highest_percentile(values):
    """(p, value) for the highest ladder percentile with at least ten
    samples beyond it, or None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def summarize(values):
    """Sample count, median, quartiles and the supported tail percentile."""
    q1, q2, q3 = quartiles(values)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3,
           "min": min(values), "max": max(values)}
    tail = highest_percentile(values)
    if tail is not None:
        out["tail_p"], out["tail"] = tail
    return out


def describe(values, unit, scale=1.0):
    """One-line text form of summarize(), values multiplied by scale."""
    s = summarize(values)
    text = (f"median {s['median'] * scale:.6g} {unit} "
            f"(q1 {s['q1'] * scale:.6g}, q3 {s['q3'] * scale:.6g}, n={s['n']}")
    if "tail" in s:
        text += f", p{s['tail_p']:g} {s['tail'] * scale:.6g}"
    else:
        text += f", max {s['max'] * scale:.6g}"
    return text + ")"
