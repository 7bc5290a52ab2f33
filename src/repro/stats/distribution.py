"""Sample percentiles.

The paper reports means, but the FCFS-vs-SSD story (section 4) is really
a *distributional* one: SSD collapses the median and the short-job mass
while stretching the tail.  :func:`percentile` backs the per-job
turnaround quantiles in ``examples/scheduling_comparison.py``.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]).

    Matches ``numpy.percentile``'s default method without requiring the
    caller to build an array.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
