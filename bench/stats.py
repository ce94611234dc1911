"""Summary statistics shared by the benchmark's timed and traced passes."""

from __future__ import annotations

import statistics
from typing import Sequence

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def p50(values: Sequence[float]) -> float:
    """Median, or 0.0 when the layer produced no samples."""
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(n: int) -> int:
    """The highest whole percentile with TAIL_MIN_BEYOND of n samples beyond
    it (nearest rank), but never below the median."""
    return max(50, 100 * (n - TAIL_MIN_BEYOND) // n)


def tail(values: Sequence[float]) -> tuple[float, int, int]:
    """(nearest-rank value, percentile, sample count) at `tail_percentile`."""
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    pct = tail_percentile(n)
    rank = max(1, -(-pct * n // 100))
    return float(sorted(values)[rank - 1]), pct, n

