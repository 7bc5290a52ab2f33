"""Campaign engine: deduplicated point enumeration and parallel execution.

The paper's result grid is embarrassingly parallel: 15 figures x ~5 loads
x 6 strategy combos x up to 20 replications each, every cell independent
of every other.  This module turns that grid into an explicit *campaign*:

* :class:`PointSpec` -- one frozen, picklable simulation cell (workload,
  load, allocator, scheduler, scale, config).  Its
  :meth:`~PointSpec.key` is a stable JSON document of the field values,
  which doubles as the result-store key;
* :class:`Campaign` -- enumerates the union of cells needed by a set of
  figures (or an arbitrary grid sweep), deduplicates cells shared
  between figures (the uniform sweep feeds Figs. 3, 6, 9, 12 and 15 but
  is simulated once), and executes replications through a pluggable
  executor;
* :func:`make_executor` -- the one place a run's executor is built: an
  in-process :class:`SerialExecutor`, a thread pool or a process pool
  (both from :mod:`concurrent.futures`).  A task carries only its spec
  and seeds; an external trace is found through the spec's
  ``trace_source`` (:func:`build_simulator`).  Replication seeds are a
  pure function of the spec (``config.seed + replication_index``),
  never of worker state or dispatch order, so serial, thread and
  process runs of the same campaign produce **identical** metrics.

The replication loop is *batched* (see
:class:`repro.stats.ReplicationController`): each uncached point first
submits its ``min_replications`` seeds, the CI stopping rule is checked
on the collected batch, and unconverged points submit further seeds
round by round.

Work is dispatched from a single queue in **longest-estimated-first**
order (:class:`_CostModel`): a point's cost is estimated up front from
``load x replication bounds x stream length`` and refined online from
observed batch runtimes, so the heaviest cells start earliest and a
straggler cannot serialise the tail of the campaign.

The **thread** executor is the fast path when points run on the
compiled SoA lane driver: ctypes calls release the GIL for the whole
lane-driver event loop (see :mod:`repro.core._soa_native`), so lanes of
different points genuinely run in parallel while sharing one in-process
:class:`~repro.workload.columnar.BlockCache`, one replay record per trace
and the result store -- no worker startup, no pickling, no per-worker
re-parsing.  Batch futures hand back the engine's ``RunResult`` values
directly (for native lanes, built straight from ``LaneState.result()``
arrays), and finished points persist through the store's coalesced
:meth:`~repro.experiments.store.ResultCache.put_many` path -- one fsync
per drained batch, not one per point, written by a background
:class:`~repro.experiments.store.ShardWriter` while the next batch runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
import time
from collections.abc import Mapping as _MappingABC
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.alloc import make_allocator
from repro.core import _soa_native
from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.hooks import TrajectoryObserver
from repro.core.simulator import Simulator
from repro.core.soa import run_point_batch
from repro.experiments.figures import FIGURES
from repro.experiments.store import ResultCache, ShardWriter, global_cache
from repro.sched import make_scheduler
from repro.stats.compare import MetricSummary
from repro.stats.replication import ReplicationController, ReplicationResult
from repro.workload.sdsc import synthesize_sdsc_trace
from repro.workload.stochastic import StochasticWorkload
from repro.workload.trace import TraceJob, TraceWorkload
from repro.workload.sources import SOURCES, is_pipeline_spec

#: metrics recorded for every point (RunResult attribute names)
METRICS = (
    "mean_turnaround",
    "mean_service",
    "mean_wait",
    "mean_packet_latency",
    "mean_packet_blocking",
    "utilization",
    "mean_fragments",
    "contiguity_rate",
)

#: version of the stored point-result payload (schema 2 added the
#: replication summaries the diff subsystem needs; a stored value of any
#: other schema is a cache miss)
RESULT_SCHEMA = 2


class PointResult(_MappingABC):
    """One point's metric means plus their replication summaries.

    Behaves exactly like the plain ``{metric: mean}`` dict it replaces
    (it *is* a mapping over the means), so every mean-consuming caller
    is untouched -- but it also carries the per-metric
    :class:`~repro.stats.compare.MetricSummary` (mean, variance, n) that
    ``repro diff`` tests with, and round-trips through the result store.
    """

    __slots__ = ("means", "stats", "replications", "converged")

    def __init__(
        self,
        means: Mapping[str, float],
        stats: Mapping[str, MetricSummary] | None = None,
        replications: int = 0,
        converged: bool = True,
    ) -> None:
        self.means = dict(means)
        self.stats = dict(stats) if stats else {}
        self.replications = replications
        self.converged = converged

    # ---------------------------------------------------- mapping protocol
    def __getitem__(self, name: str) -> float:
        return self.means[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.means)

    def __len__(self) -> int:
        return len(self.means)

    def __eq__(self, other) -> bool:
        if isinstance(other, PointResult):
            return (
                self.means == other.means
                and self.stats == other.stats
                and self.replications == other.replications
            )
        if isinstance(other, _MappingABC):
            return self.means == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"PointResult({self.means!r}, replications={self.replications})"
        )

    # ------------------------------------------------------- constructors
    @classmethod
    def from_replication(cls, rep: ReplicationResult) -> "PointResult":
        """Adopt a finished replication batch's per-metric summaries."""
        stats = {
            name: MetricSummary.from_values(metric.values)
            for name, metric in rep.metrics.items()
        }
        # the summary mean IS the reported mean (same sum/n expression as
        # the CI module), so the means dict and the stats never disagree
        return cls(
            means={name: s.mean for name, s in stats.items()},
            stats=stats,
            replications=rep.replications,
            converged=rep.converged,
        )

    @classmethod
    def from_payload(cls, payload: Mapping | None) -> "PointResult | None":
        """Adopt a stored payload; ``None`` means a cache miss.

        Only a current-schema payload is adopted.  Anything else -- no
        entry, an older schema's bare ``{metric: mean}`` dict, a
        malformed value -- is a miss: the point re-simulates and its
        shard is overwritten.
        """
        if (not isinstance(payload, _MappingABC)
                or payload.get("schema") != RESULT_SCHEMA):
            return None
        try:
            return cls(
                means={k: float(v) for k, v in payload["means"].items()},
                stats={
                    k: MetricSummary.from_dict(v)
                    for k, v in payload["stats"].items()
                },
                replications=int(payload["replications"]),
                converged=bool(payload.get("converged", True)),
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def to_payload(self) -> dict:
        """JSON-serializable form (the store/report value)."""
        return {
            "schema": RESULT_SCHEMA,
            "means": dict(self.means),
            "stats": {k: s.to_dict() for k, s in self.stats.items()},
            "replications": self.replications,
            "converged": self.converged,
        }


@dataclass(frozen=True, slots=True)
class Scale:
    """Fidelity preset."""

    name: str
    jobs: int  #: completed jobs per run
    min_replications: int
    max_replications: int
    trace_max_jobs: int | None  #: trace prefix length (None = full trace)

    @classmethod
    def by_name(cls, name: str) -> "Scale":
        """Look a preset up in :data:`SCALES`; KeyError names the options."""
        try:
            return SCALES[name]
        except KeyError:
            raise KeyError(
                f"unknown scale {name!r}; choose from {sorted(SCALES)}"
            ) from None


SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", jobs=120, min_replications=1, max_replications=1,
                   trace_max_jobs=600),
    "quick": Scale("quick", jobs=300, min_replications=2, max_replications=3,
                   trace_max_jobs=2000),
    "paper": Scale("paper", jobs=1000, min_replications=3, max_replications=20,
                   trace_max_jobs=None),
}


def default_scale() -> str:
    """Scale preset from ``REPRO_SCALE`` (default ``smoke``)."""
    name = os.environ.get("REPRO_SCALE", "smoke")
    Scale.by_name(name)  # validate early
    return name


# ------------------------------------------------------------------- traces
_TRACE_CACHE: dict[tuple[int | None, int], list[TraceJob]] = {}

#: serialises trace synthesis so concurrent first use from the thread
#: executor materialises each (length, seed) once
_TRACE_CACHE_LOCK = threading.Lock()


def sdsc_trace(max_jobs: int | None = None, seed: int = 1995) -> list[TraceJob]:
    """Synthetic SDSC trace, memoised per (length, seed)."""
    key = (max_jobs, seed)
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        return hit
    with _TRACE_CACHE_LOCK:
        if key not in _TRACE_CACHE:
            full = _TRACE_CACHE.get((None, seed))
            if full is None:
                full = synthesize_sdsc_trace(seed=seed)
                _TRACE_CACHE[(None, seed)] = full
            _TRACE_CACHE[key] = full[:max_jobs] if max_jobs else full
        return _TRACE_CACHE[key]


def make_workload(
    workload: str,
    config: SimConfig,
    load: float,
    scale: Scale,
    trace: Sequence[TraceJob] | None = None,
):
    """Build the workload object for one point.

    ``workload`` is either a base name (``"real"``, ``"uniform"``,
    ``"exponential"``) or a workload-pipeline spec such as
    ``"real*0.5 | thin:0.8 + uniform"`` (see
    :mod:`repro.workload.transforms`).  Pipeline sources are built
    through this same function, so every source in a merge shares the
    point's config, offered load, scale and external trace.
    """
    if workload == "uniform":
        return StochasticWorkload(config, load, sides="uniform")
    if workload == "exponential":
        return StochasticWorkload(config, load, sides="exponential")
    if workload == "real":
        # TraceWorkload copies its prefix, so the shared trace is safe
        jobs = trace if trace is not None else sdsc_trace(scale.trace_max_jobs)
        return TraceWorkload(config, jobs, load, max_jobs=scale.trace_max_jobs)
    if is_pipeline_spec(workload):
        from repro.workload.transforms import build_pipeline

        return build_pipeline(
            workload,
            lambda name: make_workload(name, config, load, scale, trace=trace),
        )
    raise KeyError(f"unknown workload {workload!r}")


# -------------------------------------------------------------------- specs
def trace_fingerprint(trace: Sequence[TraceJob]) -> str:
    """Content digest of an external trace, for cache keying.

    Two different ``--swf`` files must never alias in the persistent
    store, so the spec's ``trace_source`` embeds this digest rather
    than a bare "external" marker.
    """
    h = hashlib.sha256()
    for tj in trace:
        h.update(f"{tj.arrival!r}|{tj.size!r}|{tj.runtime!r}\n".encode())
    return f"ext:{h.hexdigest()[:16]}"


@dataclass(frozen=True, slots=True)
class PointSpec:
    """One simulation cell, frozen and picklable.

    External traces are not embedded (they can be large); the campaign
    carries them separately and ``trace_source`` holds their content
    fingerprint (:func:`trace_fingerprint`) so cells replayed from
    different traces cannot alias each other or the built-in SDSC one.

    ``config`` carries every run setting (machine, network mode,
    engine, channel, seed); it is normalised to the *run* config (job
    count pinned by the scale preset), so spec equality, hashing and
    :meth:`key` all agree on what constitutes the same cell.
    """

    workload: str
    load: float
    alloc: str
    sched: str
    scale: Scale
    config: SimConfig = PAPER_CONFIG
    trace_source: str = "sdsc"  #: "sdsc" or an external-trace fingerprint
    #: :meth:`key`, computed on first use (a pure function of the fields)
    _key: str | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        # normalise so equality/hashing/key() agree: pipeline specs
        # canonicalise (equal pipelines -> equal keys, and a malformed
        # spec fails here rather than inside a worker) and the scale
        # pins the job count
        if is_pipeline_spec(self.workload):
            from repro.workload.transforms import canonical_workload

            object.__setattr__(
                self, "workload", canonical_workload(self.workload)
            )
        if self.config.jobs != self.scale.jobs:
            object.__setattr__(
                self, "config", self.config.with_(jobs=self.scale.jobs)
            )

    def validate(self) -> None:
        """Raise ``ValueError`` unless the point can run: a known workload
        source or pipeline spec, a finite positive load, an allocator that
        builds on the config's mesh, a known scheduler, and no ``sfb``
        network mode on a torus."""
        for role, name in (("workload", self.workload),
                           ("allocator", self.alloc), ("scheduler", self.sched)):
            if not isinstance(name, str):
                raise ValueError(f"{role} must be a name string, got {name!r}")
        if self.workload not in SOURCES and not is_pipeline_spec(self.workload):
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{SOURCES} or a pipeline spec"
            )
        if not (math.isfinite(self.load) and self.load > 0):
            raise ValueError(f"load must be finite and > 0, got {self.load}")
        try:
            make_allocator(self.alloc, self.config.width, self.config.length)
            make_scheduler(self.sched)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if (self.config.network_mode == "sfb"
                and self.config.topology == "torus"):
            raise ValueError(
                "network mode 'sfb' cannot run on a torus; "
                "use fast, batch or causal"
            )

    @property
    def replication_bounds(self) -> tuple[int, int]:
        """(min, max) replications.

        Trace replay is deterministic, so one replication suffices --
        and likewise for any workload pipeline whose stream does not
        consume the replication seed (pure-``real`` sources with only
        deterministic transforms such as ``scale``/``burst``/``clamp``).
        """
        if self.workload == "real":
            return (1, 1)
        if is_pipeline_spec(self.workload):
            from repro.workload.transforms import spec_is_deterministic

            if spec_is_deterministic(self.workload):
                return (1, 1)
        return (self.scale.min_replications, self.scale.max_replications)

    def key(self) -> str:
        """Stable structured store key: JSON of every outcome-affecting
        field.  Unlike a joined string, a field value containing a
        separator or drifting float repr cannot alias another point."""
        if self._key is None:
            object.__setattr__(self, "_key", self._compute_key())
        return self._key

    def __hash__(self) -> int:
        # the key's string hash is cached, so a spec hashes in O(1);
        # equal specs have equal keys
        return hash(self.key())

    def _compute_key(self) -> str:
        lo, hi = self.replication_bounds
        cfg = dataclasses.asdict(self.config)
        # the execution engine never affects results (bit-identical by
        # construction, see repro.core.soa), so both engines must read
        # and write the same cache cell
        cfg.pop("engine", None)
        # channel/arq join the key only when a channel is set, so every
        # pre-channel cache cell and golden fixture stays addressable
        channel = cfg.pop("channel", None)
        arq = cfg.pop("arq", None)
        payload = {
            "workload": self.workload,
            "load": self.load,
            "alloc": self.alloc,
            "sched": self.sched,
            "network_mode": cfg["network_mode"],
            "trace_source": self.trace_source,
            "trace_max_jobs": self.scale.trace_max_jobs,
            "replications": [lo, hi],
            "config": cfg,
        }
        if channel is not None:
            payload["channel"] = channel
            payload["arq"] = arq
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def label(self) -> str:
        """Short human-readable form for progress output."""
        base = (
            f"{self.workload} load={self.load:g} "
            f"{self.alloc}({self.sched})"
        )
        channel = self.config.channel
        if channel is not None:
            arq = self.config.arq
            base += f" ch={channel}" + (f"/{arq}" if arq else "")
        return base

    def controller(self) -> ReplicationController:
        """A fresh replication controller honouring this spec's bounds."""
        lo, hi = self.replication_bounds
        return ReplicationController(
            METRICS,
            min_replications=lo,
            max_replications=hi,
            base_seed=self.config.seed,
        )


def trajectory_key(spec: PointSpec, sample_interval: float) -> str:
    """Store key of a point's replication-0 trajectory series.

    Derived from the point's metric key, so the series gets a shard of
    its own and the metric payload and :meth:`PointSpec.key` never
    change.  The interval (as a float, so ``64`` and ``64.0`` share a
    shard) is part of the key: a series is only ever served at the
    interval it was sampled at.
    """
    return f"{spec.key()}|traj:{float(sample_interval)!r}"


#: per-process registry of external traces, keyed by
#: :func:`trace_fingerprint` (the ``trace_source`` of the specs that
#: replay them).  :class:`Campaign` fills it for in-process executors;
#: a process pool's initializer fills it once in each worker.
_TRACES: dict[str, Sequence[TraceJob]] = {}


def _register_trace(source: str, trace: Sequence[TraceJob]) -> None:
    """Serve ``trace`` to every spec whose ``trace_source`` is ``source``."""
    _TRACES[source] = trace


def build_simulator(
    spec: PointSpec,
    seed: int,
    trace: Sequence[TraceJob] | None = None,
    observers: Sequence = (),
) -> Simulator:
    """The ONE place a point spec becomes a runnable simulator.

    Every campaign work unit, observed replications
    (:func:`run_observed_replication`) included, builds through here,
    so every spec field that affects the run (config, scheduler window,
    workload pipeline) is plumbed exactly once.  Unless ``trace`` is
    given, an external trace is looked up by the spec's
    ``trace_source`` in this process's registry
    (:func:`_register_trace`).
    """
    if trace is None and spec.trace_source != "sdsc":
        trace = _TRACES.get(spec.trace_source)
        if trace is None:
            raise RuntimeError(
                f"no external trace registered for {spec.trace_source!r}; "
                "build the Campaign with its trace"
            )
    cfg = spec.config
    return Simulator(
        cfg,
        make_allocator(spec.alloc, cfg.width, cfg.length),
        make_scheduler(spec.sched, window=cfg.scheduler_window),
        make_workload(spec.workload, cfg, spec.load, spec.scale, trace=trace),
        seed=seed,
        observers=observers,
    )


def run_spec_replication(
    spec: PointSpec, seed: int, trace: Sequence[TraceJob] | None = None
) -> dict[str, float]:
    """Execute ONE replication of a point; returns its metric dict.

    A pure function of its arguments: every simulation input, including
    the seed, comes from the call (an external trace from the call or
    the spec's ``trace_source``), so any worker computes the same
    answer.
    """
    result = build_simulator(spec, seed, trace=trace).run()
    return {m: result.metric(m) for m in METRICS}


def run_observed_replication(
    spec: PointSpec, seed: int, sample_interval: float
) -> tuple:
    """One replication of a point with a
    :class:`~repro.core.hooks.TrajectoryObserver` attached.

    Returns ``(RunResult, series)``.  The observer is passive, so the
    ``RunResult`` equals an unobserved run of the same seed.
    """
    observer = TrajectoryObserver(
        sample_interval, processors=spec.config.processors
    )
    result = build_simulator(spec, seed, observers=(observer,)).run()
    return result, observer.series()


def run_spec_batch_results(
    spec: PointSpec,
    seeds: Sequence[int],
    trace: Sequence[TraceJob] | None = None,
) -> list:
    """Execute a whole replication batch of a point.

    The ``engine="soa"`` work unit: the batch advances through
    :func:`repro.core.soa.run_point_batch` (compiled lanes in lockstep
    when the point's strategies are covered, per-seed reference runs
    otherwise).  Returns the engine's ``RunResult`` objects in seed
    order -- for native lanes those are built straight from
    ``LaneState.result()`` arrays, and the drain loop reads them without
    any payload-dict round trip.
    """
    return run_point_batch(
        lambda seed: build_simulator(spec, seed, trace=trace), seeds
    )


def run_spec_batch(
    spec: PointSpec,
    seeds: Sequence[int],
    trace: Sequence[TraceJob] | None = None,
) -> list[dict[str, float]]:
    """Dict form of :func:`run_spec_batch_results`.  Results are in seed
    order and bit-identical to ``[run_spec_replication(spec, s, trace)
    for s in seeds]``."""
    results = run_spec_batch_results(spec, seeds, trace)
    return [{m: r.metric(m) for m in METRICS} for r in results]


#: inflight-map marker for a whole-batch (lockstep) task
_BATCH = "__batch__"


def _run_task_raw(task: tuple[PointSpec, int, float | None]) -> tuple:
    """The per-seed work unit of every executor: ``(RunResult, series)``
    (plain data, so it pickles back from a process pool).  ``series`` is
    the trajectory when the task carries a sample interval, else
    ``None``.
    """
    spec, seed, interval = task
    if interval is None:
        return build_simulator(spec, seed).run(), None
    return run_observed_replication(spec, seed, interval)


def _run_batch_task_raw(
    task: tuple[PointSpec, tuple[int, ...], float | None]
) -> tuple:
    """The whole-batch work unit (see :func:`run_spec_batch_results`):
    ``(RunResults in seed order, series)``.  With a sample interval the
    first seed runs observed on the reference path and the rest stay on
    the lane; reference == soa keeps the results identical.
    """
    spec, seeds, interval = task
    if interval is None:
        return run_spec_batch_results(spec, seeds), None
    first, series = run_observed_replication(spec, seeds[0], interval)
    return [first] + run_spec_batch_results(spec, seeds[1:]), series


# ---------------------------------------------------------------- executors
class SerialExecutor(futures.Executor):
    """Run tasks in the caller's thread, one at a time (the default).

    ``submit`` executes the task immediately and returns an
    already-resolved future, so the campaign's drain loop observes the
    same completion protocol as with a pool; ``map``, ``shutdown`` and
    the context manager come from :class:`concurrent.futures.Executor`.
    """

    def submit(self, fn: Callable, /, *args, **kwargs) -> futures.Future:
        """Run ``fn(*args, **kwargs)`` now; return the resolved future."""
        fut: futures.Future = futures.Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:  # surfaced by fut.result();
            fut.set_exception(exc)  # KeyboardInterrupt propagates now
        return fut


#: the valid ``--executor`` choices (``None`` means auto-select)
EXECUTOR_KINDS = ("serial", "thread", "process")


def _resolve_executor_kind(
    jobs: int, kind: str | None, specs: Iterable[PointSpec]
) -> str:
    """The executor kind a campaign run uses (see :func:`make_executor`)."""
    if kind is not None and kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r}; choose from {EXECUTOR_KINDS}"
        )
    if kind is None:
        if jobs <= 1:
            kind = "serial"
        elif (_soa_native.load_kernel() is not None
              and all(spec.config.engine == "soa" for spec in specs)):
            kind = "thread"
        else:
            kind = "process"
    if kind == "process" and jobs < 2:
        kind = "serial"
    return kind


def _prime_fork_state(
    specs: Iterable[PointSpec], trace: Sequence[TraceJob] | None
) -> None:
    """Parse traces and build their replay records once in the parent
    before a fork-started pool spins up.

    Building a real spec's workload fills both memos involved
    (:func:`sdsc_trace`'s trace memo and the replay record of
    :class:`~repro.workload.trace.TraceWorkload`).  They are module
    globals, so fork children inherit them instead of every worker
    re-parsing the trace on its first task.  A record does not depend
    on the load, so one build per workload, scale and config suffices.
    """
    seen: set[tuple] = set()
    for spec in specs:
        if "real" not in spec.workload:
            continue
        key = (spec.workload, spec.scale, spec.config)
        if key in seen:
            continue
        seen.add(key)
        make_workload(
            spec.workload, spec.config, spec.load, spec.scale, trace=trace,
        )


def make_executor(
    jobs: int,
    kind: str | None = None,
    specs: Iterable[PointSpec] = (),
    trace: Sequence[TraceJob] | None = None,
) -> futures.Executor:
    """Build the executor for a run: the one place a pool is made.

    ``kind`` is one of :data:`EXECUTOR_KINDS` or ``None`` for
    auto-selection: serial when ``jobs <= 1``, otherwise **thread**
    when the native SoA driver is available and every spec in ``specs``
    runs on it (the GIL-released fast path), falling back to
    **process** for GIL-bound reference-engine work.  An explicit
    ``kind`` is honoured verbatim, except that a process pool cannot
    run with fewer than two workers and degrades to serial.

    A process pool ships an external ``trace`` once per worker through
    its initializer (:func:`_register_trace`), so tasks never carry it.
    Under a ``fork`` start the parent first primes the trace memo and
    replay records for ``specs`` (:func:`_prime_fork_state`), which the
    workers then inherit.
    """
    specs = tuple(specs)
    kind = _resolve_executor_kind(jobs, kind, specs)
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return futures.ThreadPoolExecutor(
            max_workers=max(1, jobs), thread_name_prefix="repro-campaign"
        )
    import multiprocessing

    if multiprocessing.get_start_method() == "fork":
        _prime_fork_state(specs, trace)
    if trace is None:
        return futures.ProcessPoolExecutor(max_workers=jobs)
    return futures.ProcessPoolExecutor(
        max_workers=jobs, initializer=_register_trace,
        initargs=(trace_fingerprint(trace), trace),
    )


# --------------------------------------------------------------- dispatch
class _CostModel:
    """Longest-estimated-first dispatch costs.

    A point's *base* cost follows the issue's a-priori model --
    ``load x mean(replication bounds) x stream length`` (trace prefix
    length for replay points, the completion target otherwise) -- and
    is refined online: each observed batch runtime updates an
    exponential moving average of seconds-per-base-unit for the point's
    ``(workload, alloc, sched)`` class, so later picks order by what
    similar cells actually cost on this machine.  Estimates only order
    the pending queue; they never touch simulation state, so dispatch
    order cannot perturb results.
    """

    #: EMA weight of the newest observation
    ALPHA = 0.5

    def __init__(self) -> None:
        self._rates: dict[tuple[str, str, str], float] = {}
        #: the rate of an unobserved class: the mean known rate
        self._mean_rate = 1.0
        self._bases: dict[PointSpec, float] = {}

    @staticmethod
    def _class_key(spec: PointSpec) -> tuple[str, str, str]:
        return (spec.workload, spec.alloc, spec.sched)

    @staticmethod
    def _stream_length(spec: PointSpec) -> int:
        if "real" in spec.workload and spec.scale.trace_max_jobs:
            return spec.scale.trace_max_jobs
        return spec.config.jobs

    def base(self, spec: PointSpec) -> float:
        """The a-priori per-point work estimate (arbitrary units),
        computed once per spec."""
        base = self._bases.get(spec)
        if base is None:
            lo, hi = spec.replication_bounds
            reps = (lo + hi) / 2.0
            base = max(spec.load, 1e-9) * reps * self._stream_length(spec)
            self._bases[spec] = base
        return base

    def estimate(self, spec: PointSpec) -> float:
        """Estimated wall-clock cost (base units scaled by the observed
        per-class rate; unobserved classes use the mean known rate)."""
        return self.base(spec) * self._rates.get(
            self._class_key(spec), self._mean_rate
        )

    def observe(self, spec: PointSpec, seconds: float, seeds: int) -> None:
        """Fold one completed batch's wall time into the class rate."""
        if seconds <= 0.0 or seeds <= 0:
            return
        per_rep_base = self.base(spec) * 2.0 / (
            sum(spec.replication_bounds) or 1
        )
        if per_rep_base <= 0.0:
            return
        rate = (seconds / seeds) / per_rep_base
        key = self._class_key(spec)
        old = self._rates.get(key)
        self._rates[key] = (
            rate if old is None else old + self.ALPHA * (rate - old)
        )
        # summed afresh, in insertion order, so the mean is the same
        # float the per-estimate sum gave
        self._mean_rate = sum(self._rates.values()) / len(self._rates)


# ----------------------------------------------------------------- campaign
class Campaign:
    """A deduplicated set of simulation points and the engine to run it.

    Every unique point is validated (:meth:`PointSpec.validate`) here,
    so a malformed point fails with ``ValueError`` before anything runs.
    """

    def __init__(
        self,
        points: Iterable[PointSpec],
        trace: Sequence[TraceJob] | None = None,
    ) -> None:
        unique: dict[str, PointSpec] = {}
        for spec in points:
            unique.setdefault(spec.key(), spec)
        for spec in unique.values():
            spec.validate()
        #: unique points in first-seen order
        self.points: tuple[PointSpec, ...] = tuple(unique.values())
        self.trace = list(trace) if trace is not None else None
        if self.trace is not None:
            _register_trace(trace_fingerprint(self.trace), self.trace)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_figures(
        cls,
        fig_ids: Sequence[str],
        scale: str | Scale = "smoke",
        config: SimConfig = PAPER_CONFIG,
        trace: Sequence[TraceJob] | None = None,
    ) -> "Campaign":
        """The union of cells needed to regenerate ``fig_ids``.

        Figures sharing a sweep (e.g. figs 3/6/9/12/15 all read the
        uniform workload) contribute the same specs, which collapse in
        the constructor's dedup pass.
        """
        sc = Scale.by_name(scale) if isinstance(scale, str) else scale
        source = trace_fingerprint(trace) if trace is not None else "sdsc"
        specs = []
        for fig_id in fig_ids:
            spec = FIGURES[fig_id]
            for alloc, sched in spec.combos:
                for load in spec.loads_for(sc.name):
                    specs.append(PointSpec(
                        workload=spec.workload, load=load,
                        alloc=alloc, sched=sched, scale=sc, config=config,
                        trace_source=source,
                    ))
        return cls(specs, trace=trace)

    @classmethod
    def sweep(
        cls,
        workloads: Sequence[str],
        loads: Sequence[float],
        allocs: Sequence[str],
        scheds: Sequence[str],
        scale: str | Scale = "smoke",
        config: SimConfig = PAPER_CONFIG,
        trace: Sequence[TraceJob] | None = None,
        channels: Sequence[str | None] = (None,),
        arqs: Sequence[str | None] = (None,),
    ) -> "Campaign":
        """A user-defined full-factorial grid sweep.

        ``channels``/``arqs`` add lossy-interconnect axes: each entry is
        a channel policy spec / ARQ protocol applied through the point's
        config (``None`` keeps the config's own setting).
        """
        sc = Scale.by_name(scale) if isinstance(scale, str) else scale
        source = trace_fingerprint(trace) if trace is not None else "sdsc"
        configs = [
            config if ch is None and aq is None else config.with_(
                channel=config.channel if ch is None else ch,
                arq=config.arq if aq is None else aq,
            )
            for ch in channels for aq in arqs
        ]
        specs = [
            PointSpec(
                workload=w, load=ld, alloc=a, sched=s, scale=sc,
                config=cfg, trace_source=source,
            )
            for cfg in configs
            for w in workloads for ld in loads for a in allocs for s in scheds
        ]
        return cls(specs, trace=trace)

    # ------------------------------------------------------------ execution
    def run(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[str], None] | None = None,
        executor_kind: str | None = None,
        on_point: Callable[[PointSpec, PointResult, int, int], None] | None = None,
        sample_interval: float | None = None,
    ) -> dict[PointSpec, PointResult]:
        """Execute every point (replications included); returns a
        :class:`PointResult` (metric means + replication summaries) per
        spec.  Results are read from / written to the shared result
        store, so repeated campaigns and overlapping figure sets only
        ever simulate a cell once.

        ``executor_kind`` picks the backend (:data:`EXECUTOR_KINDS`);
        ``None`` auto-selects: serial for ``jobs <= 1``, threads when
        the native SoA driver carries every pending point (the GIL-free
        fast path), a process pool otherwise.  The choice never affects
        results -- replication seeds are a pure function of the spec,
        and batches are fed to the replication controller in seed
        order regardless of completion order.

        ``on_point`` is a structured progress hook: it is called as
        ``on_point(spec, result, done, total)`` once per point --
        immediately for cache hits, then as each remaining point
        finishes -- which is what the campaign service streams live
        job progress from.  Like ``progress``, it observes and must not
        mutate campaign state.

        With a ``sample_interval``, each simulated point's replication 0
        (seed ``config.seed``) runs with a
        :class:`~repro.core.hooks.TrajectoryObserver`, and its series is
        written in the same ``put_many`` as the point, under
        :func:`trajectory_key`.  Cache hits are not re-run.

        Durability: each drained round is encoded here and written, with
        one directory fsync, by one background
        :class:`~repro.experiments.store.ShardWriter` thread per run
        while the next batch runs; a round waits for the previous one to
        land.  A crash loses at most the round being written plus the
        round being drained.  Every finished point is on disk when
        ``run`` returns or raises (the teardown flushes, then waits for
        the writer, then shuts the executor down).  An ``OSError`` while
        writing leaves the store memory-only, as it always has; any
        other write failure is raised from ``run``.
        """
        note = progress if progress is not None else (lambda _msg: None)
        store = cache if cache is not None else global_cache()
        results: dict[PointSpec, PointResult] = {}
        controllers: dict[PointSpec, ReplicationController] = {}
        for spec in self.points:
            hit = PointResult.from_payload(store.get(spec.key()))
            if hit is not None:
                results[spec] = hit
            else:
                controllers[spec] = spec.controller()
        done = len(results)
        total = len(self.points)
        if done:
            note(f"{done}/{total} points already cached")
        if on_point is not None:
            for i, (spec, hit_result) in enumerate(results.items(), start=1):
                on_point(spec, hit_result, i, total)
        if not controllers:
            return results

        exe = make_executor(jobs, executor_kind, controllers, self.trace)

        # completion-driven drain: finished points flush to the store in
        # coalesced batches (one directory fsync per drained round,
        # written in the background), so an interrupted campaign loses
        # at most the round being written and the one being drained,
        # and unconverged points resubmit seeds without waiting on
        # unrelated cells.  New work dispatches longest-estimated-first
        # from a single pending queue, topped up whenever the in-flight
        # window (2x the worker count) has room.
        model = _CostModel()
        pending: list[PointSpec] = list(controllers)
        window = 1 if isinstance(exe, SerialExecutor) or jobs <= 1 else 2 * jobs
        inflight: dict[futures.Future, tuple[PointSpec, int | str]] = {}
        batch_seeds: dict[PointSpec, tuple[int, ...]] = {}
        batch_got: dict[PointSpec, dict[int, dict[str, float]]] = {}
        batch_started: dict[PointSpec, float] = {}
        series_got: dict[PointSpec, dict] = {}
        writes: list[tuple[str, dict]] = []

        def observe(spec: PointSpec, seed: int) -> float | None:
            # replication 0 carries the trajectory observer
            return sample_interval if seed == spec.config.seed else None

        def submit_batch(spec: PointSpec) -> None:
            seeds = controllers[spec].next_seeds()
            batch_seeds[spec] = seeds
            batch_got[spec] = {}
            batch_started[spec] = time.perf_counter()
            if spec.config.engine == "soa":
                # one lockstep task per batch: the whole seed set
                # advances together (repro.core.soa)
                task = (spec, seeds, observe(spec, seeds[0]))
                inflight[exe.submit(_run_batch_task_raw, task)] = (spec, _BATCH)
                return
            for seed in seeds:
                task = (spec, seed, observe(spec, seed))
                inflight[exe.submit(_run_task_raw, task)] = (spec, seed)

        def as_metrics(result) -> dict[str, float]:
            return {m: result.metric(m) for m in METRICS}

        def process(fut: futures.Future, resubmit: bool = True) -> None:
            nonlocal done
            spec, seed = inflight.pop(fut)
            result, series = fut.result()
            if series is not None:
                series_got[spec] = series
            if seed == _BATCH:
                for s, r in zip(batch_seeds[spec], result):
                    batch_got[spec][s] = as_metrics(r)
            else:
                batch_got[spec][seed] = as_metrics(result)
            if len(batch_got[spec]) < len(batch_seeds[spec]):
                return
            ctrl = controllers[spec]
            model.observe(
                spec,
                time.perf_counter() - batch_started.pop(spec),
                len(batch_seeds[spec]),
            )
            # feed in seed order: controller state must not depend on
            # worker completion order (serial/parallel equivalence)
            ctrl.add_batch([batch_got[spec][s] for s in batch_seeds[spec]])
            del batch_seeds[spec], batch_got[spec]
            if not ctrl.finished:
                # a continuation batch bypasses the pending queue: its
                # point is already the campaign's critical path
                if resubmit:
                    submit_batch(spec)
                return
            rep = ctrl.result()
            out = PointResult.from_replication(rep)
            writes.append((spec.key(), out.to_payload()))
            if spec in series_got:
                writes.append(
                    (trajectory_key(spec, sample_interval), series_got.pop(spec))
                )
            results[spec] = out
            del controllers[spec]
            done += 1
            note(
                f"[{done}/{total}] {spec.label()} "
                f"({rep.replications} rep{'s' if rep.replications != 1 else ''})"
            )
            if on_point is not None:
                on_point(spec, out, done, total)

        def top_up() -> None:
            while pending and len(inflight) < window:
                nxt = max(pending, key=model.estimate)
                pending.remove(nxt)
                submit_batch(nxt)

        def flush() -> None:
            # encodes the round here; the writer thread writes it while
            # the next batch runs
            if writes:
                store.put_many(writes, writer)
                writes.clear()

        writer = ShardWriter(store)
        try:
            while pending or inflight:
                top_up()
                ready, _ = futures.wait(
                    tuple(inflight), return_when=futures.FIRST_COMPLETED
                )
                for fut in ready:
                    process(fut)
                flush()
        finally:
            # Harvest work that finished while the loop was being torn
            # down (KeyboardInterrupt mid-wait, executor failure): those
            # futures hold completed replications that would otherwise
            # be dropped.  With resubmission off, this only folds results
            # into ``writes`` -- so the flush below loses at most the
            # batch genuinely still in flight, matching the store's
            # "one drain round" durability contract.
            for fut in [f for f in tuple(inflight) if f.done()]:
                try:
                    process(fut, resubmit=False)
                except BaseException:  # noqa: BLE001 - teardown best-effort
                    continue
            try:
                flush()
            finally:
                try:
                    writer.close()  # every finished point is on disk
                finally:
                    exe.shutdown()
        return results
