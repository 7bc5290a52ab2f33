"""Student-t confidence intervals over replication means.

The quantile comes from ``scipy.special.stdtrit`` -- the cephes routine
behind the ``ppf`` of scipy's Student-t distribution object -- so
intervals are bit-identical to that formulation while the library never
imports scipy's stats package (about a second of cold start).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from scipy import special as _special


@lru_cache(maxsize=1024)
def t_quantile(confidence: float, df: float) -> float:
    """Two-sided Student-t critical value: ``t.ppf(0.5 + confidence/2, df)``.

    Memoised per ``(confidence, df)``; a campaign asks for a handful of
    distinct degrees of freedom (replications - 1) thousands of times.
    """
    return float(_special.stdtrit(df, 0.5 + confidence / 2.0))


def mean_variance(values: Sequence[float]) -> tuple[float, float]:
    """Two-pass mean and unbiased variance (variance 0.0 when n < 2)."""
    n = len(values)
    if n == 0:
        raise ValueError("no observations")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return mean, var


def half_width(variance: float, n: int, confidence: float = 0.95) -> float:
    """Half-width of the ``confidence`` Student-t CI of a mean.

    With fewer than two observations the half-width is infinite (no
    variance estimate exists), which correctly forces the replication
    controller to keep running.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n < 2:
        return math.inf
    if variance == 0.0:
        return 0.0
    return t_quantile(confidence, n - 1) * math.sqrt(variance / n)


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of the ``confidence`` CI of the mean."""
    mean, var = mean_variance(values)
    return mean, half_width(var, len(values), confidence)


def relative_error(mean: float, half_width: float) -> float:
    """CI half-width relative to the mean (``inf`` for a zero mean)."""
    if half_width == 0.0:
        return 0.0
    if mean == 0.0:
        return math.inf
    return abs(half_width / mean)
