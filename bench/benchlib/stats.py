"""Order statistics with the sample-size rule the benchmark reports by.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it: with fewer, one slow sample moves the number.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "InsufficientSamples", "median", "tail"]

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """No samples to take a statistic of."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise InsufficientSamples("median of no samples")
    return float(statistics.median(values))


def tail(values, q: float) -> float:
    """Nearest-rank ``q`` quantile, kept to what the sample supports.

    ``q`` is a fraction (0.99 for p99).  Among ``n`` samples the value at
    rank ``ceil(q * n)`` has ``n - ceil(q * n)`` samples above it, so p99
    needs 1000 samples and p90 100.  With fewer, the value with exactly
    :data:`MIN_BEYOND` samples above it is returned instead, and the median
    when not even that lies above the median.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise InsufficientSamples("tail of no samples")
    rank = max(1, math.ceil(q * n - 1e-9))
    rank = min(rank, max(n - MIN_BEYOND, math.ceil(n / 2)))
    return float(ordered[rank - 1])
