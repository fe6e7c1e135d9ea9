"""Summary statistics shared by the workloads and the per-layer metrics."""

from __future__ import annotations

import numpy as np

TAIL_MIN_BEYOND = 10


def tail(samples) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); None when there are too few samples."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return None
    k = n - TAIL_MIN_BEYOND - 1
    return float(values[k]), 100.0 * (k + 1) / n, n
