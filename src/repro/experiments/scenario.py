"""Declarative scenarios: JSON experiment descriptions, end to end.

A :class:`Scenario` bundles everything one experiment needs -- a
workload-pipeline spec (:mod:`repro.workload.transforms`), ``SimConfig``
overrides, an allocator/scheduler/load grid, a fidelity scale and an
optional trajectory-sampling interval -- into one JSON-serializable
object, in the spirit of AccaSim's declarative workload descriptions:
the *file* is the experiment.

Scenarios compile to the ordinary campaign machinery: each grid cell
becomes a :class:`~repro.experiments.campaign.PointSpec` whose
``workload`` field carries the canonical pipeline string, so the sharded
result store, cross-figure dedup and ``-j N`` parallel execution all
work unchanged, and an identity scenario (paper config, untransformed
workload) hits exactly the same cache keys as the figure campaigns.

When ``sample_interval`` is set, each point's replication 0 runs inside
the campaign with a :class:`~repro.core.hooks.TrajectoryObserver`
attached, and its queue-length/utilization/throughput series are
returned alongside the aggregate metrics.  The series is that of the
very run whose metrics entered the mean (observers are passive), and it
persists in the result store under a key derived from the point's key
and the interval, so a warm re-run simulates nothing.

CLI: ``python -m repro scenario <file.json> [-j N] [--out out.json]``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.trajectory import SaturationScan

from repro.core.config import PAPER_CONFIG, SimConfig, _is_finite_real
from repro.experiments.campaign import (
    SCALES,
    Campaign,
    PointResult,
    PointSpec,
    run_observed_replication,
    trajectory_key,
)
from repro.experiments.store import ResultCache, global_cache
from repro.workload.sources import SOURCES
from repro.workload.trace import TraceJob

#: keys accepted by a scenario dict/JSON document
_SCENARIO_KEYS = frozenset({
    "name", "workload", "loads", "allocs", "scheds", "scale", "config",
    "sample_interval", "channels", "arqs",
})


@dataclass
class Scenario:
    """One declarative experiment: pipeline x grid x config overrides.

    Every run setting -- machine, network mode, engine, channel, seed --
    is a ``SimConfig`` field set through :attr:`config`; the grid is
    built by :meth:`Campaign.sweep` (:meth:`campaign`).
    """

    name: str
    #: workload-pipeline spec (string grammar or dict AST); canonicalised
    workload: str | dict
    loads: tuple[float, ...]
    allocs: tuple[str, ...] = ("GABL",)
    scheds: tuple[str, ...] = ("FCFS",)
    scale: str = "smoke"
    #: ``SimConfig`` field overrides applied on top of ``PAPER_CONFIG``
    config: dict = field(default_factory=dict)
    #: trajectory sample interval in sim-time units; ``None`` disables
    sample_interval: float | None = None
    #: lossy-channel grid axis: channel policy specs applied per point
    #: (``None`` entries keep the config override's own ``channel``)
    channels: tuple[str | None, ...] = (None,)
    #: ARQ grid axis crossed with :attr:`channels` (``None`` entries keep
    #: the config override's own ``arq``)
    arqs: tuple[str | None, ...] = (None,)

    def __post_init__(self) -> None:
        # every field is validated eagerly -- and with ValueError -- so a
        # bad scenario file fails at load time with exit code 2, never
        # with a traceback from deep inside a (possibly remote) worker
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        if not (isinstance(self.workload, str) and self.workload in SOURCES):
            from repro.workload.transforms import canonical_workload

            self.workload = canonical_workload(self.workload)
        self.loads = tuple(float(x) for x in self.loads)
        if not self.loads:
            raise ValueError("scenario needs at least one load")
        self.allocs = tuple(self.allocs)
        self.scheds = tuple(self.scheds)
        if not self.allocs or not self.scheds:
            raise ValueError("scenario needs at least one allocator and scheduler")
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}"
            )
        interval = self.sample_interval
        if interval is not None and not (_is_finite_real(interval) and interval > 0):
            raise ValueError(
                f"sample_interval must be a positive number, got {interval!r}"
            )
        self.channels = tuple(self.channels)
        self.arqs = tuple(self.arqs)
        if not self.channels or not self.arqs:
            raise ValueError(
                "scenario channels/arqs need at least one entry (use [null] "
                "for the perfect-interconnect default)"
            )
        # reject invalid config overrides and points (loads, allocators
        # that do not fit the mesh, schedulers, sfb on a torus) now
        self.campaign()

    # -------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Build (and fully validate) a scenario from a plain mapping."""
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ValueError(
                f"unknown scenario key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SCENARIO_KEYS)}"
            )
        missing = {"name", "workload", "loads"} - set(data)
        if missing:
            raise ValueError(f"scenario is missing required key(s) {sorted(missing)}")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from its JSON document text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        """Load a scenario from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def to_dict(self) -> dict:
        """The scenario as a JSON-serializable dict (round-trips)."""
        out = {
            "name": self.name,
            "workload": self.workload,
            "loads": list(self.loads),
            "allocs": list(self.allocs),
            "scheds": list(self.scheds),
            "scale": self.scale,
            "config": dict(self.config),
        }
        if self.sample_interval is not None:
            out["sample_interval"] = self.sample_interval
        # only non-default axes are serialized, keeping the fingerprints
        # of every pre-channel scenario document unchanged
        if self.channels != (None,):
            out["channels"] = list(self.channels)
        if self.arqs != (None,):
            out["arqs"] = list(self.arqs)
        return out

    def fingerprint(self) -> str:
        """Content hash of the scenario (stable across key order)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # ------------------------------------------------------------- building
    def sim_config(self) -> SimConfig:
        """The run config: ``PAPER_CONFIG`` plus this scenario's overrides."""
        try:
            return PAPER_CONFIG.with_(**self.config)
        except TypeError as exc:
            fields = sorted(f.name for f in dataclasses.fields(SimConfig))
            raise ValueError(
                f"bad scenario config override ({exc}); "
                f"valid SimConfig fields: {fields}"
            ) from None

    def campaign(self, trace: Sequence[TraceJob] | None = None) -> Campaign:
        """The scenario's grid as a ready-to-run (deduplicated) campaign.

        One point per ``channels`` x ``arqs`` x load x allocator x
        scheduler cell (``None`` axis entries keep the ``config``
        override's own setting).  The canonical pipeline string rides in
        each spec's ``workload`` field, so it -- together with the
        override-carrying config -- is folded into the structured cache
        key: two scenarios share a cache cell exactly when the cell's
        simulation inputs coincide.
        """
        return Campaign.sweep(
            (self.workload,), self.loads, self.allocs, self.scheds,
            scale=self.scale, config=self.sim_config(), trace=trace,
            channels=self.channels, arqs=self.arqs,
        )

    # -------------------------------------------------------------- running
    def run(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        trace: Sequence[TraceJob] | None = None,
        progress: Callable[[str], None] | None = None,
        auto_saturation: bool = False,
        executor: str | None = None,
    ) -> "ScenarioResult":
        """Execute the scenario's campaign (cached, optionally parallel)
        and, when ``sample_interval`` is set, collect one trajectory per
        point.

        ``executor`` picks the campaign backend
        (:data:`~repro.experiments.campaign.EXECUTOR_KINDS`; ``None``
        auto-selects, see :meth:`Campaign.run`).  The choice never
        affects metrics or trajectories.

        Trajectories ride on the campaign itself: every simulated
        point's replication 0 runs with the observer (on the reference
        path, also under ``engine="soa"``), and its series is written to
        the store beside the point.  Each point's series is then read
        back through :func:`run_trajectory`, which simulates only for a
        point whose metrics were stored without one (say, by a figure
        campaign); a warm re-run simulates nothing.

        With ``auto_saturation=True`` a saturation scan
        (:func:`repro.experiments.trajectory.scan_saturation`) first
        climbs a load ladder anchored at the scenario's highest load,
        using its first allocator/scheduler combination; the detected
        knee load is appended to the run grid (so the saturation point
        is actually simulated) and the scan is embedded in the report's
        ``saturation`` block.
        """
        saturation = None
        run_scenario = self
        if auto_saturation:
            from repro.experiments.trajectory import scan_saturation

            saturation = scan_saturation(
                self.workload,
                alloc=self.allocs[0],
                sched=self.scheds[0],
                scale=self.scale,
                config=self.sim_config(),
                trace=trace,
                cache=cache,
                jobs=jobs,
                executor=executor,
                start=max(self.loads),
            )
            if progress is not None:
                progress(saturation.format())
            knee = saturation.knee
            if knee is not None and knee not in self.loads:
                # run (and report) the extended grid: the saturation
                # point itself gets simulated, not just detected
                run_scenario = dataclasses.replace(
                    self, loads=self.loads + (knee,)
                )
        store = cache if cache is not None else global_cache()
        campaign = run_scenario.campaign(trace)
        interval = run_scenario.sample_interval
        results = campaign.run(
            jobs=jobs, cache=store, progress=progress, executor_kind=executor,
            sample_interval=interval,
        )
        trajectories: dict[str, dict] = {}
        if interval is not None:
            trajectories = {
                spec.label(): run_trajectory(spec, interval, store)
                for spec in campaign.points
            }
        return ScenarioResult(
            scenario=run_scenario,
            points=campaign.points,
            metrics={spec: results[spec] for spec in campaign.points},
            trajectories=trajectories,
            saturation=saturation,
        )


def run_trajectory(
    spec: PointSpec, sample_interval: float, cache: ResultCache
) -> dict:
    """One point's replication-0 trajectory, read from the store.

    A campaign run with the same ``sample_interval`` has already stored
    it (:func:`~repro.experiments.campaign.trajectory_key`).  On a miss
    -- a point whose metrics were written without a trajectory, say by a
    figure campaign or the service -- replication 0 (seed
    ``config.seed``) runs once in-process with the observer, and the
    series is persisted, so each store fills a miss only once.
    """
    key = trajectory_key(spec, sample_interval)
    series = cache.get(key)
    if series is None:
        _, series = run_observed_replication(
            spec, spec.config.seed, sample_interval
        )
        cache.put_many([(key, series)])
    return series


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produced."""

    scenario: Scenario
    points: tuple[PointSpec, ...]
    #: per-point metric means + replication summaries
    metrics: Mapping[PointSpec, PointResult]
    #: spec label -> TrajectoryObserver.series() (empty when disabled)
    trajectories: Mapping[str, Mapping[str, list]]
    #: the auto-saturation scan, when one ran
    saturation: "SaturationScan | None" = None

    def to_dict(self) -> dict:
        """JSON-serializable report (scenario + per-point results).

        Schema 3: every point embeds its structured cache ``key``, the
        per-metric replication summaries (mean, variance, n) that
        ``repro diff`` aligns and tests on, and its trajectory series
        (the stable :meth:`TrajectoryObserver.series` export) that
        ``repro diff --trajectories`` and ``repro plot`` consume; an
        auto-saturation scan, when one ran, lands in the top-level
        ``saturation`` block.
        """
        from repro.experiments.diff import campaign_report

        report = campaign_report(
            self.points, self.metrics, name=self.scenario.name,
            kind="scenario", trajectories=self.trajectories,
            saturation=(None if self.saturation is None
                        else self.saturation.to_dict()),
        )
        report["scenario"] = self.scenario.to_dict()
        report["fingerprint"] = self.scenario.fingerprint()
        return report

    def format(self) -> str:
        """Human-readable per-point summary table."""
        from repro.experiments.report import summarize_point

        lines = [
            f"SCENARIO {self.scenario.name} "
            f"[{self.scenario.fingerprint()}] "
            f"workload={self.scenario.workload!r} scale={self.scenario.scale}"
        ]
        if self.saturation is not None:
            knee = self.saturation.knee
            lines.append(
                "  auto-saturation: "
                + (f"knee at load {knee:.6g}" if knee is not None
                   else "no knee confirmed (ladder exhausted)")
            )
        for spec in self.points:
            lines.append(f"  {spec.label()}: {summarize_point(self.metrics[spec])}")
            traj = self.trajectories.get(spec.label())
            if traj:
                lines.append(
                    f"    trajectory: {len(traj['times'])} samples @ "
                    f"{self.scenario.sample_interval:g}, "
                    f"peak queue {max(traj['queue_length'])}, "
                    f"peak util {max(traj['utilization']):.2f}"
                )
        return "\n".join(lines)
