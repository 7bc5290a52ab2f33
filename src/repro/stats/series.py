"""Time-series analysis primitives for trajectory comparison.

The paper's claims are about *dynamics*: how allocation and scheduling
strategies behave as load pushes the mesh toward saturation.  The
:class:`~repro.core.hooks.TrajectoryObserver` records those dynamics as
carry-forward step functions (queue length, busy processors, cumulative
completions, utilization over time); this module supplies the pure math
the trajectory subsystem (:mod:`repro.experiments.trajectory`) builds
on:

* **resampling** (:func:`resample`, :func:`union_grid`) -- project two
  step-function series onto one common time grid so they can be
  compared sample by sample;
* **series diffing** (:func:`diff_series`) -- max absolute deviation,
  per-sample tolerance bands and an area-between-curves summary,
  classified into the verdicts ``identical`` / ``within_band`` /
  ``diverged``;
* **saturation detection** (:func:`detect_plateau`,
  :func:`detect_saturation`) -- an online plateau/change-point rule
  over utilization (and optionally queue-length) sequences, used both
  on time series and on utilization-vs-load sweeps to find the
  saturation knee that the paper hard-codes as ``SATURATION_LOADS``.

Everything here is pure Python over plain sequences: deterministic,
picklable, and independent of the simulator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

#: series verdicts, worst first (mirrors the scalar-metric verdict order)
DIVERGED = "diverged"
WITHIN_BAND = "within_band"
IDENTICAL = "identical"
SERIES_VERDICTS: tuple[str, ...] = (DIVERGED, WITHIN_BAND, IDENTICAL)


# --------------------------------------------------------------- resampling
def resample(
    times: Sequence[float],
    values: Sequence[float],
    grid: Sequence[float],
) -> list[float]:
    """Carry-forward resample of a step function onto ``grid``.

    ``(times, values)`` describe a step function that takes ``values[i]``
    from ``times[i]`` (inclusive) until ``times[i+1]`` (exclusive) --
    exactly the sampling contract of
    :class:`~repro.core.hooks.TrajectoryObserver`.  Each grid point gets
    the value at the latest source time ``<=`` it; grid points before
    ``times[0]`` extend the first value backward and points after
    ``times[-1]`` carry the last value forward, so resampling never
    invents data.  Resampling onto the source grid itself is the
    identity.

    Args:
        times: strictly increasing sample timestamps (non-empty).
        values: one value per timestamp.
        grid: target timestamps (any order is accepted; each point is
            resolved independently).

    Returns:
        One carried-forward value per grid point.
    """
    if not times:
        raise ValueError("cannot resample an empty series")
    if len(times) != len(values):
        raise ValueError(
            f"times/values length mismatch: {len(times)} != {len(values)}"
        )
    times = list(times)
    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise ValueError("times must be strictly increasing")
    out = []
    for g in grid:
        # rightmost source index with times[i] <= g (clamped to the ends)
        i = bisect.bisect_right(times, g) - 1
        out.append(values[max(i, 0)])
    return out


def union_grid(
    a: Sequence[float], b: Sequence[float]
) -> list[float]:
    """The sorted union of two time grids (duplicates collapsed).

    Args:
        a: first grid (sorted ascending).
        b: second grid (sorted ascending).

    Returns:
        Every timestamp appearing in either grid, ascending, once.
    """
    merged = sorted(set(a) | set(b))
    if not merged:
        raise ValueError("cannot build a grid from two empty series")
    return merged


# ------------------------------------------------------------------ diffing
def max_deviation(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, int]:
    """The largest absolute pointwise difference and where it occurs.

    Args:
        a: first series.
        b: second series (same length).

    Returns:
        ``(max(|a_i - b_i|), argmax_i)``; ``(0.0, 0)`` for empty input.
        Symmetric in its arguments.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    worst = 0.0
    at = 0
    for i, (x, y) in enumerate(zip(a, b)):
        d = abs(x - y)
        if d > worst:
            worst = d
            at = i
    return worst, at


def area_between(
    grid: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> float:
    """Step-function integral of ``|a - b|`` over the grid.

    Both series are carry-forward step functions on ``grid``, so the
    area between the curves is the exact sum of
    ``|a_i - b_i| * (grid[i+1] - grid[i])`` (the final sample carries no
    width).  Zero for single-point grids.

    Args:
        grid: common ascending time grid.
        a: first series on the grid.
        b: second series on the grid.

    Returns:
        The absolute area between the two step curves.
    """
    if not (len(grid) == len(a) == len(b)):
        raise ValueError("grid and series lengths must agree")
    area = 0.0
    for i in range(len(grid) - 1):
        area += abs(a[i] - b[i]) * (grid[i + 1] - grid[i])
    return area


def band_exceedances(
    a: Sequence[float],
    b: Sequence[float],
    atol: float = 0.0,
    rtol: float = 0.0,
) -> list[int]:
    """Indices where ``b`` leaves the tolerance band around ``a``.

    The per-sample band is ``atol + rtol * |a_i|`` (baseline-relative),
    so a wider band -- larger ``atol`` or ``rtol`` -- can only shrink
    the exceedance set.

    Args:
        a: baseline series.
        b: candidate series (same length).
        atol: absolute band half-width (>= 0).
        rtol: relative band half-width as a fraction of ``|a_i|`` (>= 0).

    Returns:
        The indices ``i`` with ``|a_i - b_i| > atol + rtol * |a_i|``.
    """
    if not all(math.isfinite(x) and x >= 0 for x in (atol, rtol)):
        raise ValueError(
            f"tolerances must be finite and >= 0, got atol={atol}, rtol={rtol}"
        )
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return [
        i for i, (x, y) in enumerate(zip(a, b))
        if abs(x - y) > atol + rtol * abs(x)
    ]


@dataclass(frozen=True, slots=True)
class SeriesDiff:
    """One series' A-vs-B comparison on a common grid, fully evidenced."""

    name: str
    n: int  #: common-grid sample count
    max_abs: float  #: largest pointwise deviation
    max_at: float  #: grid time of that deviation
    area: float  #: area between the two step curves
    mean_abs: float  #: area / grid span (0 for single-sample grids)
    exceedances: int  #: samples outside the tolerance band
    verdict: str  #: ``identical`` / ``within_band`` / ``diverged``

    def to_dict(self) -> dict:
        """JSON-serializable form (the diff-report payload)."""
        return {
            "name": self.name,
            "n": self.n,
            "max_abs": self.max_abs,
            "max_at": self.max_at,
            "area": self.area,
            "mean_abs": self.mean_abs,
            "exceedances": self.exceedances,
            "verdict": self.verdict,
        }


def diff_series(
    name: str,
    times_a: Sequence[float],
    values_a: Sequence[float],
    times_b: Sequence[float],
    values_b: Sequence[float],
    atol: float = 0.0,
    rtol: float = 0.0,
) -> SeriesDiff:
    """Resample two series onto their union grid and classify the gap.

    Verdicts:

    * ``identical``   -- the resampled series agree bit for bit (the
      golden-master criterion: a deterministic rerun lands here);
    * ``within_band`` -- some samples differ, but every one stays inside
      the per-sample tolerance band ``atol + rtol * |a_i|``;
    * ``diverged``    -- at least one sample leaves the band.

    Args:
        name: series label carried into the result (e.g. ``utilization``).
        times_a: baseline time grid (strictly increasing).
        values_a: baseline values.
        times_b: candidate time grid.
        values_b: candidate values.
        atol: absolute tolerance-band half-width.
        rtol: relative tolerance-band half-width (fraction of ``|a_i|``).

    Returns:
        A :class:`SeriesDiff` with deviation, area and band evidence.
    """
    grid = union_grid(times_a, times_b)
    a = resample(times_a, values_a, grid)
    b = resample(times_b, values_b, grid)
    worst, at = max_deviation(a, b)
    area = area_between(grid, a, b)
    span = grid[-1] - grid[0]
    outside = band_exceedances(a, b, atol=atol, rtol=rtol)
    if worst == 0.0:
        verdict = IDENTICAL
    elif not outside:
        verdict = WITHIN_BAND
    else:
        verdict = DIVERGED
    return SeriesDiff(
        name=name,
        n=len(grid),
        max_abs=worst,
        max_at=grid[at],
        area=area,
        mean_abs=area / span if span > 0 else 0.0,
        exceedances=len(outside),
        verdict=verdict,
    )


def worst_series_verdict(verdicts: Sequence[str]) -> str:
    """The most severe series verdict present (``identical`` if empty).

    Args:
        verdicts: any iterable of series verdict strings.

    Returns:
        ``diverged`` > ``within_band`` > ``identical``.
    """
    seen = set(verdicts)
    for v in SERIES_VERDICTS:
        if v in seen:
            return v
    return IDENTICAL


# ------------------------------------------------------------- saturation
def detect_plateau(
    values: Sequence[float],
    rel_tol: float = 0.03,
    confirm: int = 2,
) -> int | None:
    """First index at which an increasing sequence has stopped growing.

    An *online* rule, usable as new points stream in: step ``i`` (from
    ``values[i-1]`` to ``values[i]``) is **flat** when the increase is
    at most ``rel_tol`` relative to ``|values[i-1]|`` (decreases are
    always flat).  The plateau is confirmed after ``confirm``
    *consecutive* flat steps, and the returned index is the confirming
    sample -- the first point known to sit on the plateau.  The rule
    looks only at values and indices, so it is invariant under any
    rescaling of the associated time/load axis.

    Args:
        values: the monitored sequence (e.g. utilization per load step).
        rel_tol: relative growth below which a step counts as flat.
        confirm: consecutive flat steps required (>= 1).

    Returns:
        The confirming index, or ``None`` if no plateau is confirmed.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    if confirm < 1:
        raise ValueError(f"confirm must be >= 1, got {confirm}")
    flat_run = 0
    for i in range(1, len(values)):
        step = values[i] - values[i - 1]
        if step <= rel_tol * abs(values[i - 1]):
            flat_run += 1
            if flat_run >= confirm:
                return i
        else:
            flat_run = 0
    return None


def detect_saturation(
    utilization: Sequence[float],
    queue_length: Sequence[float] | None = None,
    rel_tol: float = 0.03,
    confirm: int = 2,
) -> int | None:
    """Saturation onset in a utilization sequence, queue-corroborated.

    Saturation means the system can absorb no more work: utilization
    has plateaued *while the backlog keeps building*.  This detector
    finds the first utilization plateau (:func:`detect_plateau`); when a
    parallel ``queue_length`` sequence is supplied, the plateau only
    counts if the queue at the detected index exceeds the queue at the
    start of its flat run -- a plateau with a draining queue is a lull,
    not saturation, and scanning continues past it.

    Works identically on time-resolved series (utilization per sample)
    and on load sweeps (utilization per load step, queue proxied by mean
    waiting time), and inherits :func:`detect_plateau`'s invariance
    under time/load-axis rescaling.

    Args:
        utilization: utilization per step (sample or load point).
        queue_length: optional backlog signal, parallel to
            ``utilization``.
        rel_tol: relative growth below which a step counts as flat.
        confirm: consecutive flat steps required.

    Returns:
        The index of the first corroborated plateau sample, or ``None``.
    """
    if queue_length is not None and len(queue_length) != len(utilization):
        raise ValueError(
            f"queue_length length {len(queue_length)} != "
            f"utilization length {len(utilization)}"
        )
    start = 0
    while True:
        window = utilization[start:]
        hit = detect_plateau(window, rel_tol=rel_tol, confirm=confirm)
        if hit is None:
            return None
        idx = start + hit
        if queue_length is None:
            return idx
        onset = idx - confirm  # the sample the flat run started from
        if queue_length[idx] > queue_length[max(onset, 0)]:
            return idx
        start = idx  # lull, not saturation: keep scanning
        if start >= len(utilization) - 1:
            return None


def geometric_ladder(
    start: float, factor: float = 1.5, max_steps: int = 8
) -> list[float]:
    """The load ladder a saturation scan climbs.

    One rung below ``start`` anchors the pre-knee slope, then rungs grow
    geometrically: ``[start/factor, start, start*factor, ...]``.

    Args:
        start: the first in-sweep rung (typically a sweep's top load).
        factor: geometric step between rungs (> 1).
        max_steps: total rung count (>= 2).

    Returns:
        The ascending ladder of candidate loads.
    """
    if start <= 0 or not math.isfinite(start):
        raise ValueError(f"start must be positive and finite, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if max_steps < 2:
        raise ValueError(f"max_steps must be >= 2, got {max_steps}")
    ladder = [start / factor]
    rung = start
    for _ in range(max_steps - 1):
        ladder.append(rung)
        rung *= factor
    return ladder
