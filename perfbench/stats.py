"""Small statistics helpers shared by the runner and its tests."""

from __future__ import annotations

import numpy as np

#: Candidate tail percentiles, highest first.  A tail is only reported
#: where at least ``MIN_BEYOND`` samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(count: int):
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the median has fewer than ``MIN_BEYOND``
    samples beyond it (fewer than 20 samples).
    """
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def p95_or_tail(values) -> tuple:
    """``(value, percentile used)`` for the ``op_p95_s`` metric.

    The 95th percentile when at least ten samples lie beyond it
    (200+ samples); otherwise the highest percentile that still has
    ten beyond it.  With fewer than 20 samples no tail is measurable
    and the median stands in for it.
    """
    p = min(tail_percentile(len(values)) or 50.0, 95.0)
    return float(np.percentile(values, p)), p

