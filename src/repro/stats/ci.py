"""Student-t confidence intervals over replication means.

The quantile is ``scipy.special.stdtrit`` -- the cephes routine behind
the ``ppf`` of scipy's Student-t distribution object -- so intervals are
bit-identical to that formulation.  The replication stopping rule only
ever asks for the 95% quantile at small integral degrees of freedom
(every built-in scale stops by 20 replications), so those values are
tabulated here as the exact doubles ``stdtrit`` returns, and the run
path imports no part of scipy at all.  Any other ``(confidence, df)``
imports ``scipy.special`` on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


#: ``scipy.special.stdtrit(df, 0.975)`` for df = 1..32, as the exact
#: doubles it returns (``repr`` round-trips them bit for bit)
T95_TABLE: tuple[float, ...] = (
    12.706204736174694,  # df=1
    4.302652729749462,  # df=2
    3.1824463052837078,  # df=3
    2.7764451051977934,  # df=4
    2.5705818356363146,  # df=5
    2.4469118511449786,  # df=6
    2.364624251592784,  # df=7
    2.306004135204166,  # df=8
    2.262157162798205,  # df=9
    2.228138851986274,  # df=10
    2.200985160091639,  # df=11
    2.1788128296672284,  # df=12
    2.1603686564627913,  # df=13
    2.144786687917804,  # df=14
    2.131449545559776,  # df=15
    2.1199052992212546,  # df=16
    2.1098155778333156,  # df=17
    2.1009220402410382,  # df=18
    2.0930240544083087,  # df=19
    2.085963447265864,  # df=20
    2.0796138447276795,  # df=21
    2.0738730679040254,  # df=22
    2.0686576104190486,  # df=23
    2.0638985616280245,  # df=24
    2.0595385527532972,  # df=25
    2.0555294386428735,  # df=26
    2.0518305164802846,  # df=27
    2.0484071417952454,  # df=28
    2.045229642132703,  # df=29
    2.0422724563012378,  # df=30
    2.039513446396408,  # df=31
    2.0369333434601016,  # df=32
)


@lru_cache(maxsize=1024)
def t_quantile(confidence: float, df: float) -> float:
    """Two-sided Student-t critical value: ``t.ppf(0.5 + confidence/2, df)``.

    Memoised per ``(confidence, df)``; a campaign asks for a handful of
    distinct degrees of freedom (replications - 1) thousands of times.
    The 95% quantile at integral df up to 32 comes from
    :data:`T95_TABLE`; anything else is computed by ``scipy.special``.
    """
    if confidence == 0.95 and 1 <= df <= len(T95_TABLE) and df == int(df):
        return T95_TABLE[int(df) - 1]
    from scipy import special

    return float(special.stdtrit(df, 0.5 + confidence / 2.0))


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
