"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile of n samples that has `beyond` samples above it.

    Under linear interpolation percentile p sits at rank p/100 * (n - 1), so
    this is the percentile of rank n - 1 - beyond.
    """
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than {beyond} samples")
    return 100.0 * (n - 1 - beyond) / (n - 1) if n > 1 else 100.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics, at rank p/100 * (n - 1)."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
