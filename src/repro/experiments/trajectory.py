"""Trajectory analysis: series diffing, saturation scans, knee figures.

This is the report-level layer over :mod:`repro.stats.series`: it knows
how trajectories are embedded in ``--out`` reports (the stable
:meth:`~repro.core.hooks.TrajectoryObserver.series` export) and how the
campaign machinery runs points, and provides the three trajectory
features the CLI exposes:

* :func:`diff_trajectories` -- per-series
  :class:`~repro.stats.series.SeriesDiff` between two embedded
  trajectory payloads (``repro diff --trajectories``), with series
  verdicts folded into the scalar verdict space so golden-master gates
  treat a diverged *shape* exactly like a regressed *mean*;
* :func:`scan_saturation` -- an online saturation scan: climb a
  geometric load ladder, one (cached) simulation point per rung, until
  :func:`repro.stats.series.detect_saturation` confirms the utilization
  knee.  This replaces the hand-picked ``SATURATION_LOADS`` constants
  (``--auto-saturation``);
* :func:`run_saturation_figure` -- regenerate a saturation bar chart
  (figs 8-10) at the *detected* knee instead of the pinned constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.config import PAPER_CONFIG, SimConfig
from repro.experiments.campaign import (
    Campaign,
    PointResult,
    PointSpec,
    Scale,
    trace_fingerprint,
)
from repro.experiments.figures import (
    FIGURES,
    SATURATION_LOADS,
    combo_label,
    sweep_ceiling,
)
from repro.experiments.runner import FigureResult, run_point
from repro.experiments.store import ResultCache
from repro.stats import compare as _compare
from repro.stats import series as _series
from repro.stats.series import SeriesDiff, detect_saturation, geometric_ladder
from repro.workload.trace import TraceJob

#: series verdict -> scalar metric verdict, for gate aggregation: a
#: diverged trajectory trips ``--fail-on-regress`` exactly like a
#: regressed mean (shape drift has no "improved" direction)
SERIES_TO_METRIC_VERDICT: Mapping[str, str] = {
    _series.IDENTICAL: _compare.IDENTICAL,
    _series.WITHIN_BAND: _compare.INDISTINGUISHABLE,
    _series.DIVERGED: _compare.REGRESSED,
}


def trajectory_series_names(trajectory: Mapping[str, Sequence]) -> list[str]:
    """The comparable series names of a trajectory payload.

    Args:
        trajectory: a :meth:`TrajectoryObserver.series` export.

    Returns:
        Every key except the ``times`` axis, in payload order.
    """
    return [k for k in trajectory if k != "times"]


def diff_trajectories(
    a: Mapping[str, Sequence[float]],
    b: Mapping[str, Sequence[float]],
    atol: float = 0.0,
    rtol: float = 0.0,
) -> dict[str, SeriesDiff]:
    """Compare two embedded trajectory payloads series by series.

    Both payloads are resampled onto their union time grid
    (carry-forward, see :func:`repro.stats.series.resample`), then every
    series name the two share is classified with
    :func:`repro.stats.series.diff_series`.

    Args:
        a: baseline trajectory (``times`` plus parallel series).
        b: candidate trajectory.
        atol: absolute per-sample tolerance-band half-width.
        rtol: relative per-sample tolerance-band half-width.

    Returns:
        ``{series_name: SeriesDiff}`` for every shared series; empty
        when either side has no ``times`` axis (no trajectory recorded).
    """
    times_a = a.get("times")
    times_b = b.get("times")
    if not times_a or not times_b:
        return {}
    shared = [k for k in trajectory_series_names(a) if k in b]
    return {
        name: _series.diff_series(
            name, times_a, a[name], times_b, b[name], atol=atol, rtol=rtol
        )
        for name in shared
    }


def trajectory_verdict(diffs: Mapping[str, SeriesDiff]) -> str:
    """Fold per-series verdicts into one scalar-space verdict.

    Args:
        diffs: the output of :func:`diff_trajectories`.

    Returns:
        ``identical`` / ``indistinguishable`` / ``regressed`` -- the
        worst series verdict, mapped through
        :data:`SERIES_TO_METRIC_VERDICT`.
    """
    worst = _series.worst_series_verdict([d.verdict for d in diffs.values()])
    return SERIES_TO_METRIC_VERDICT[worst]


# ----------------------------------------------------------- saturation scan
@dataclass(frozen=True, slots=True)
class SaturationScan:
    """One saturation scan: the ladder climbed and the knee found."""

    workload: str
    alloc: str
    sched: str
    scale: str
    #: ladder loads actually simulated (the scan stops at the knee)
    loads: tuple[float, ...]
    utilization: tuple[float, ...]
    #: mean waiting time per rung -- the backlog signal corroborating
    #: that a utilization plateau is saturation, not a lull
    mean_wait: tuple[float, ...]
    rel_tol: float
    confirm: int
    #: index into ``loads`` of the confirmed knee (``None``: no plateau)
    knee_index: int | None

    @property
    def knee(self) -> float | None:
        """The detected saturation load, or ``None``."""
        return None if self.knee_index is None else self.loads[self.knee_index]

    @property
    def saturated(self) -> bool:
        """Whether the scan confirmed a knee before the ladder ran out."""
        return self.knee_index is not None

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--out`` report's saturation block)."""
        return {
            "workload": self.workload,
            "alloc": self.alloc,
            "sched": self.sched,
            "scale": self.scale,
            "loads": list(self.loads),
            "utilization": list(self.utilization),
            "mean_wait": list(self.mean_wait),
            "rel_tol": self.rel_tol,
            "confirm": self.confirm,
            "knee_index": self.knee_index,
            "knee": self.knee,
            "saturated": self.saturated,
        }

    def format(self) -> str:
        """One-line-per-rung human-readable scan summary."""
        lines = [
            f"saturation scan: {self.workload} {self.alloc}({self.sched}) "
            f"scale={self.scale} rel_tol={self.rel_tol:g} confirm={self.confirm}"
        ]
        for i, (load, util, wait) in enumerate(
            zip(self.loads, self.utilization, self.mean_wait)
        ):
            mark = "  <- knee" if i == self.knee_index else ""
            lines.append(
                f"  load={load:.6g} util={util:.4f} wait={wait:.1f}{mark}"
            )
        if self.saturated:
            lines.append(f"detected saturation load: {self.knee:.6g}")
        else:
            lines.append("no saturation knee confirmed (ladder exhausted)")
        return "\n".join(lines)


def scan_saturation(
    workload: str,
    alloc: str = "GABL",
    sched: str = "FCFS",
    scale: str | Scale = "smoke",
    config: SimConfig = PAPER_CONFIG,
    trace: Sequence[TraceJob] | None = None,
    cache: ResultCache | None = None,
    jobs: int = 1,
    start: float | None = None,
    factor: float = 1.5,
    max_steps: int = 8,
    rel_tol: float = 0.03,
    confirm: int = 2,
    executor: str | None = None,
) -> SaturationScan:
    """Find a workload's saturation knee by climbing a load ladder.

    The scan is *online*: rungs of the geometric ladder
    (:func:`repro.stats.series.geometric_ladder`) are simulated one at a
    time -- through the ordinary campaign machinery, so rungs hit the
    shared result cache -- and the scan stops at the first load where
    :func:`repro.stats.series.detect_saturation` confirms a utilization
    plateau with a still-growing backlog (mean waiting time).

    Args:
        workload: base name or pipeline spec, as accepted by
            :func:`repro.experiments.campaign.make_workload`.
        alloc: allocator climbing the ladder.
        sched: scheduler climbing the ladder.
        scale: fidelity preset (name or :class:`Scale`).
        config: simulation config (machine, network mode, engine,
            channel) every rung runs under.
        trace: external trace for ``real`` sources.
        cache: result store (default: the global sharded cache).
        jobs: parallel workers per rung's replications.
        start: ladder anchor load; defaults to the workload's figure
            sweep ceiling (:func:`repro.experiments.figures.sweep_ceiling`)
            and is required for pipeline workloads.
        factor: geometric ladder step (> 1).
        max_steps: rung budget before giving up.
        rel_tol: plateau flatness tolerance (relative utilization growth).
        confirm: consecutive flat rungs required to confirm the knee.
        executor: executor kind for every rung
            (:data:`~repro.experiments.campaign.EXECUTOR_KINDS`; ``None``
            auto-selects).

    Returns:
        A :class:`SaturationScan`; its ``knee`` is ``None`` when the
        ladder ran out before a plateau was confirmed.
    """
    sc = Scale.by_name(scale) if isinstance(scale, str) else scale
    if start is None:
        start = sweep_ceiling(workload)
    ladder = geometric_ladder(start, factor=factor, max_steps=max_steps)
    loads: list[float] = []
    utils: list[float] = []
    waits: list[float] = []
    knee_index: int | None = None
    for load in ladder:
        result = run_point(
            workload, load, alloc, sched, scale=sc, config=config,
            cache=cache, trace=trace, jobs=jobs, executor=executor,
        )
        loads.append(load)
        utils.append(result["utilization"])
        waits.append(result["mean_wait"])
        knee_index = detect_saturation(
            utils, waits, rel_tol=rel_tol, confirm=confirm
        )
        if knee_index is not None:
            break
    return SaturationScan(
        workload=workload,
        alloc=alloc,
        sched=sched,
        scale=sc.name,
        loads=tuple(loads),
        utilization=tuple(utils),
        mean_wait=tuple(waits),
        rel_tol=rel_tol,
        confirm=confirm,
        knee_index=knee_index,
    )


def run_saturation_figure(
    fig_id: str,
    scale: str | Scale = "smoke",
    config: SimConfig = PAPER_CONFIG,
    trace: Sequence[TraceJob] | None = None,
    cache: ResultCache | None = None,
    jobs: int = 1,
    rel_tol: float = 0.03,
    confirm: int = 2,
    executor: str | None = None,
) -> tuple[FigureResult, SaturationScan, dict[PointSpec, PointResult]]:
    """Regenerate a saturation bar chart at the *detected* knee.

    The scan runs once with the figure's primary combo; every combo is
    then simulated at the detected load (falling back to the pinned
    ``SATURATION_LOADS`` constant, with ``saturated=False`` recorded,
    if the ladder runs out).

    Args:
        fig_id: one of the saturation figures (``fig8``/``fig9``/``fig10``).
        scale: fidelity preset.
        config: simulation config (machine, network mode, engine,
            channel) the scan and every combo run under.
        trace: external trace for the real workload.
        cache: result store override.
        jobs: parallel workers.
        rel_tol: plateau flatness tolerance.
        confirm: consecutive flat rungs required.
        executor: executor kind for the scan and every combo (``None``
            auto-selects).

    Returns:
        ``(figure, scan, points)`` -- the regenerated figure series at
        the knee load, the scan evidence, and the raw per-spec results
        (for ``--out`` reports).
    """
    spec = FIGURES[fig_id]
    if not spec.saturation:
        raise ValueError(
            f"{fig_id} is a load-sweep figure; --auto-saturation applies to "
            "the saturation bar charts (fig8/fig9/fig10)"
        )
    sc = Scale.by_name(scale) if isinstance(scale, str) else scale
    alloc, sched = spec.combos[0]
    scan = scan_saturation(
        spec.workload, alloc=alloc, sched=sched, scale=sc, config=config,
        trace=trace, cache=cache, jobs=jobs, executor=executor,
        rel_tol=rel_tol, confirm=confirm,
    )
    load = scan.knee if scan.knee is not None else SATURATION_LOADS[spec.workload]
    source = trace_fingerprint(trace) if trace is not None else "sdsc"
    cells = [
        PointSpec(
            workload=spec.workload, load=load, alloc=a, sched=s,
            scale=sc, config=config, trace_source=source,
        )
        for a, s in spec.combos
    ]
    campaign = Campaign(cells, trace=trace)
    points = campaign.run(jobs=jobs, cache=cache, executor_kind=executor)
    series = {
        combo_label(a, s): (points[cell][spec.metric],)
        for (a, s), cell in zip(spec.combos, cells)
    }
    figure = FigureResult(spec=spec, loads=(load,), series=series)
    return figure, scan, points
