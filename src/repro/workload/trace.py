"""Real-workload trace replay (paper section 5, workload 2).

A trace records, per job, its arrival time, processor count and execution
time.  Replay follows the paper's methodology:

* arrival times are multiplied by a constant factor ``f`` -- "when f < 1,
  the inter-arrival times decrease, resulting in an increased system
  load".  The factor is derived from the requested *load* (jobs per time
  unit): ``f = 1 / (mean_interarrival * load)``.
* the processor count is shaped into the most square ``w x l`` sub-mesh
  request that fits the machine (Mache--Lo--Windisch methodology, the
  paper's ref [7]);
* the communication demand per processor, ``K_j``, is exponentially
  distributed with mean ``num_mes * trace_demand_multiplier`` exactly as
  for the stochastic workload (the paper's "unless specified otherwise"
  parameter table applies to both), but *quantile-matched to the recorded
  runtimes*: job ``j``'s demand is the exponential quantile of its
  runtime's rank within the trace.  Longer-recorded jobs therefore
  communicate more -- the correlation that makes the trace execution
  times meaningful and that SSD exploits -- while the marginal demand
  distribution stays the paper's ``Exp(num_mes)``.  The construction is
  fully deterministic (DESIGN.md section 2.3);
* the recorded runtime is SSD's service-demand key ("shortest execution
  times"); by the quantile matching it orders jobs identically to the
  communication demand.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import TIME_GRID, SimConfig
from repro.core.job import Job
from repro.mesh.geometry import shape_for_size
from repro.workload.base import Workload, quantize_time
from repro.workload.columnar import DEFAULT_BLOCK, JobBlock

@dataclass(frozen=True, slots=True)
class TraceJob:
    """One record of a real workload trace (times in trace seconds)."""

    arrival: float
    size: int
    runtime: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"trace job size must be positive, got {self.size}")
        if self.runtime <= 0:
            raise ValueError(f"trace job runtime must be positive, got {self.runtime}")
        if self.arrival < 0:
            raise ValueError(f"trace job arrival must be >= 0, got {self.arrival}")


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Summary statistics of a trace (the paper quotes these for SDSC)."""

    jobs: int
    mean_interarrival: float
    mean_size: float
    mean_runtime: float
    power_of_two_fraction: float
    max_size: int


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def trace_stats(jobs: Sequence[TraceJob]) -> TraceStats:
    """Compute the headline statistics of a trace."""
    if len(jobs) < 2:
        raise ValueError("need at least two jobs to compute inter-arrival stats")
    arrivals = [j.arrival for j in jobs]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    return TraceStats(
        jobs=len(jobs),
        mean_interarrival=sum(gaps) / len(gaps),
        mean_size=sum(j.size for j in jobs) / len(jobs),
        mean_runtime=sum(j.runtime for j in jobs) / len(jobs),
        power_of_two_fraction=sum(_is_power_of_two(j.size) for j in jobs)
        / len(jobs),
        max_size=max(j.size for j in jobs),
    )


@dataclass(frozen=True, slots=True)
class _ReplayRecord:
    """Everything a replay derives that does not depend on the load.

    The columns are read-only and shared by every workload built over
    the same trace object, prefix, mesh shape and demand parameters;
    only the scaled arrival column is derived per load.
    """

    #: the caller's trace object, pinned so its ``id`` is never reused
    trace: Sequence[TraceJob]
    #: the replayed prefix (a copy, so the caller's list is not aliased)
    prefix: list[TraceJob]
    digest: str
    stats: TraceStats
    arrivals: np.ndarray
    runtimes: np.ndarray
    job_id: np.ndarray
    width: np.ndarray
    length: np.ndarray
    messages: np.ndarray


#: one replay record per ``(trace object, prefix, mesh shape, demand
#: parameters)``, keyed by the trace's ``id`` and hit only when the
#: stored trace ``is`` the caller's.  The campaign replays one memoised
#: list per trace at every load and for every probe simulator; a trace
#: must not be edited in place once replayed.
_REPLAYS: dict[tuple, _ReplayRecord] = {}

#: serialises record builds, so a thread pool racing through first use
#: builds each record once
_REPLAY_LOCK = threading.Lock()


def _quantile_matched_demands(
    runtimes: np.ndarray, mean_messages: float, max_messages: int
) -> list[int]:
    """Per-job message counts: exponential marginal with mean
    ``mean_messages``, rank-correlated with the recorded runtimes."""
    # average ranks for ties, scaled into (0, 1)
    order = np.argsort(runtimes, kind="stable")
    ranks = np.empty(len(runtimes), dtype=np.float64)
    ranks[order] = np.arange(1, len(runtimes) + 1)
    quantiles = ranks / (len(runtimes) + 1)
    demands = -mean_messages * np.log1p(-quantiles)
    # round() already returns an int; no cast needed
    return [min(max(1, round(k)), max_messages) for k in demands]


def _shapes(sizes: np.ndarray, width: int, length: int) -> tuple:
    """Mache--Lo--Windisch ``(w, l)`` columns for ``sizes``, running
    :func:`shape_for_size` once per distinct size."""
    # sorted distinct sizes, as np.unique gives them, without its
    # first-use import of numpy.ma
    ordered = np.sort(sizes)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    uniq = ordered[distinct]
    shapes = [shape_for_size(int(s), width, length) for s in uniq]
    idx = np.searchsorted(uniq, sizes)
    return (
        np.array([s[0] for s in shapes], dtype=np.int64)[idx],
        np.array([s[1] for s in shapes], dtype=np.int64)[idx],
    )


def _build_record(
    trace: Sequence[TraceJob], max_jobs: int | None, config: SimConfig,
    mean_messages: float,
) -> _ReplayRecord:
    prefix = list(trace[:max_jobs]) if max_jobs else list(trace)
    if len(prefix) < 2:
        raise ValueError("trace replay needs at least two jobs")
    arrivals = np.array([tj.arrival for tj in prefix])
    sizes = np.array([tj.size for tj in prefix], dtype=np.int64)
    runtimes = np.array([tj.runtime for tj in prefix])
    h = hashlib.sha256()
    for col in (arrivals, sizes, runtimes):
        h.update(col.tobytes())
    width, length = _shapes(
        np.minimum(sizes, config.processors), config.width, config.length,
    )
    messages = np.array(
        _quantile_matched_demands(runtimes, mean_messages, config.max_messages),
        dtype=np.int64,
    )
    job_id = np.arange(1, len(prefix) + 1, dtype=np.int64)
    for col in (arrivals, runtimes, job_id, width, length, messages):
        col.flags.writeable = False
    return _ReplayRecord(
        trace=trace, prefix=prefix, digest=h.hexdigest()[:24],
        stats=trace_stats(prefix), arrivals=arrivals, runtimes=runtimes,
        job_id=job_id, width=width, length=length, messages=messages,
    )


def _replay_record(
    trace: Sequence[TraceJob], max_jobs: int | None, config: SimConfig,
    mean_messages: float,
) -> _ReplayRecord:
    """The replay record of ``trace``, built once per process (thread-safe)."""
    key = (
        id(trace), len(trace), max_jobs, config.width, config.length,
        mean_messages, config.max_messages,
    )
    record = _REPLAYS.get(key)
    if record is not None and record.trace is trace:
        return record
    with _REPLAY_LOCK:
        record = _REPLAYS.get(key)
        if record is None or record.trace is not trace:
            record = _build_record(trace, max_jobs, config, mean_messages)
            _REPLAYS[key] = record
        return record


class TraceWorkload(Workload):
    """Replay a trace at a chosen system load."""

    def __init__(
        self,
        config: SimConfig,
        trace: Sequence[TraceJob],
        load: float,
        max_jobs: int | None = None,
    ) -> None:
        super().__init__(config)
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        if not trace:
            raise ValueError("empty trace")
        self.load = load
        #: mean per-processor message count (DESIGN.md section 2.3)
        self.mean_messages = config.num_mes * config.trace_demand_multiplier
        self._record = _replay_record(trace, max_jobs, config, self.mean_messages)
        self.trace = self._record.prefix
        self.stats = self._record.stats
        #: the paper's arrival-time multiplier f.  A burst trace (all
        #: arrivals simultaneous) has no inter-arrival scale to stretch,
        #: so it replays unscaled.
        if self.stats.mean_interarrival > 0:
            self.factor = 1.0 / (self.stats.mean_interarrival * load)
        else:
            self.factor = 1.0
        self.name = "real-trace"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The deterministic replay stream (``seed`` is ignored).

        The scalar reference: it shapes every job with
        :func:`~repro.mesh.geometry.shape_for_size` itself rather than
        reading the replay record's shape columns.
        """
        cfg = self.config
        t0 = self.trace[0].arrival
        prev = 0.0
        messages = self._record.messages.tolist()
        for i, (tj, k) in enumerate(zip(self.trace, messages), start=1):
            arrival = quantize_time((tj.arrival - t0) * self.factor)
            prev = self._check_monotone(prev, arrival)
            size = min(tj.size, cfg.processors)
            w, l = shape_for_size(size, cfg.width, cfg.length)
            yield Job(
                job_id=i,
                arrival_time=arrival,
                width=w,
                length=l,
                messages=k,
                service_demand=tj.runtime,
                trace_runtime=tj.runtime,
            )

    def block_fingerprint(self) -> tuple:
        """Stream identity: trace content digest + every shaping knob."""
        cfg = self.config
        return (
            "trace", self._record.digest, len(self.trace), self.factor,
            cfg.width, cfg.length, cfg.processors,
            self.mean_messages, cfg.max_messages,
        )

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Views over this load's arrival column and the replay record's
        shared columns (``seed`` is ignored).

        Only the arrivals depend on the load: scaled by :attr:`factor`
        and snapped down onto the dyadic grid elementwise, exactly as
        :meth:`jobs` does job by job.
        """
        r = self._record
        scaled = (r.arrivals - r.arrivals[0]) * self.factor
        arrival = np.floor(scaled * TIME_GRID) / TIME_GRID
        bad = np.nonzero(np.diff(arrival) < 0)[0]
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"workload produced decreasing arrival times "
                f"({arrival[i + 1]} < {arrival[i]})"
            )
        arrival.flags.writeable = False
        block = JobBlock(
            job_id=r.job_id, arrival=arrival, width=r.width, length=r.length,
            messages=r.messages, demand=r.runtimes, runtime=r.runtimes,
        )
        for start in range(0, len(block), count):
            yield block.view(start, start + count)
