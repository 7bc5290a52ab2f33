"""Experiment runner: thin figure/point wrappers over the campaign engine.

A *point* is one (workload, load, allocator, scheduler) cell; running it
yields all five paper metrics at once, so the uniform-workload sweep is
simulated once and shared by Figs. 3, 6, 9, 12 and 15 (likewise for the
other workloads).  Enumeration, deduplication and (optionally parallel)
execution live in :mod:`repro.experiments.campaign`; results are
memoised in-process and in a sharded on-disk store
(:mod:`repro.experiments.store`, ``.repro-cache/``), keyed by the
structured :meth:`PointSpec.key`; set ``REPRO_CACHE=0`` to disable the
disk cache.

Scale presets trade fidelity for wall-clock:

* ``smoke``  -- quick shape checks (bench default);
* ``quick``  -- a few hundred jobs, a couple of replications;
* ``paper``  -- 1000 completed jobs per run, replications until the 95%
  CI is within 5% (the paper's stopping rule), full load sweeps.

Select via the ``REPRO_SCALE`` environment variable or the ``scale=``
argument.  Pass ``jobs=N`` (CLI: ``-j N``) to fan simulation work out
over N worker processes; serial and parallel runs produce identical
metrics because replication seeds are derived from the spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.config import PAPER_CONFIG, SimConfig
from repro.experiments.campaign import (
    METRICS,
    SCALES,
    Campaign,
    PointResult,
    PointSpec,
    Scale,
    default_scale,
    make_workload,
    sdsc_trace,
)
from repro.experiments.figures import FIGURES, FigureSpec, combo_label
from repro.experiments.store import ResultCache, global_cache
from repro.workload.trace import TraceJob

__all__ = [
    "METRICS",
    "SCALES",
    "Campaign",
    "FigureResult",
    "PointResult",
    "PointSpec",
    "ResultCache",
    "Scale",
    "default_scale",
    "global_cache",
    "make_workload",
    "run_figure",
    "run_point",
    "sdsc_trace",
]


def run_point(
    workload: str,
    load: float,
    alloc: str,
    sched: str,
    scale: str | Scale = "smoke",
    config: SimConfig = PAPER_CONFIG,
    cache: ResultCache | None = None,
    trace: Sequence[TraceJob] | None = None,
    jobs: int = 1,
    executor: str | None = None,
) -> PointResult:
    """Run (with replications) one point; returns metric means (a
    mapping) plus their replication summaries."""
    campaign = Campaign.sweep(
        (workload,), (load,), (alloc,), (sched,),
        scale=scale, config=config, trace=trace,
    )
    results = campaign.run(jobs=jobs, cache=cache, executor_kind=executor)
    return results[campaign.points[0]]


# ------------------------------------------------------------------ figures
@dataclass(frozen=True, slots=True)
class FigureResult:
    """All series of one regenerated figure."""

    spec: FigureSpec
    loads: tuple[float, ...]
    #: series[combo_label][i] corresponds to loads[i]
    series: Mapping[str, tuple[float, ...]]

    def series_for(self, alloc: str, sched: str) -> tuple[float, ...]:
        """The series of one strategy combination, by its parts."""
        return self.series[combo_label(alloc, sched)]


def run_figure(
    fig_id: str,
    scale: str = "smoke",
    config: SimConfig = PAPER_CONFIG,
    cache: ResultCache | None = None,
    trace: Sequence[TraceJob] | None = None,
    jobs: int = 1,
    executor: str | None = None,
) -> FigureResult:
    """Regenerate one paper figure's data series."""
    spec = FIGURES[fig_id]
    sc = Scale.by_name(scale)
    campaign = Campaign.from_figures(
        (fig_id,), scale=sc, config=config, trace=trace
    )
    results = campaign.run(jobs=jobs, cache=cache, executor_kind=executor)
    cells = {(p.alloc, p.sched, p.load): r for p, r in results.items()}
    loads = spec.loads_for(sc.name)
    series = {
        combo_label(alloc, sched): tuple(
            cells[alloc, sched, load][spec.metric] for load in loads
        )
        for alloc, sched in spec.combos
    }
    return FigureResult(spec=spec, loads=loads, series=series)
