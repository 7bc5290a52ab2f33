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

#: parse-once-per-process memo of derived trace columns, keyed by the
#: workload's block fingerprint (trace digest + every shaping parameter)
_COLUMN_MEMO: dict[tuple, JobBlock] = {}

#: serialises column derivation so concurrent first use from a thread
#: pool derives each fingerprint once (columns are immutable afterwards)
_COLUMN_LOCK = threading.Lock()

#: load-independent derivations -- ``(TraceStats, demands)`` -- keyed by
#: the trace content digest plus the demand parameters; only the arrival
#: factor differs between the loads of one campaign
_DERIVED_MEMO: dict[tuple, tuple[TraceStats, tuple[int, ...]]] = {}

#: serialises derivation under concurrent first use, like _COLUMN_LOCK
_DERIVED_LOCK = threading.Lock()

#: the raw replay columns of one trace object -- ``(trace, replayed
#: prefix, arrivals, sizes, runtimes, digest)`` -- keyed by
#: ``(id(trace), len(trace), max_jobs)`` and used only when the stored
#: trace ``is`` the caller's, so a different trace can never hit (the
#: entry keeps the trace alive, so its id is never reused).  The campaign
#: replays one memoised list per trace at every load and for every probe
#: simulator; a trace must not be edited in place once replayed.
_RAW_MEMO: dict[tuple, tuple] = {}


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


def _raw_columns(trace: Sequence[TraceJob], max_jobs: int | None) -> tuple:
    """The replayed prefix, its arrival/size/runtime columns (read-only)
    and their content digest, built once per trace object."""
    key = (id(trace), len(trace), max_jobs)
    hit = _RAW_MEMO.get(key)
    if hit is not None and hit[0] is trace:
        return hit[1:]
    prefix = list(trace[:max_jobs]) if max_jobs else list(trace)
    if len(prefix) < 2:
        raise ValueError("trace replay needs at least two jobs")
    arrivals = np.array([tj.arrival for tj in prefix])
    sizes = np.array([tj.size for tj in prefix], dtype=np.int64)
    runtimes = np.array([tj.runtime for tj in prefix])
    h = hashlib.sha256()
    for col in (arrivals, sizes, runtimes):
        h.update(col.tobytes())
        col.flags.writeable = False
    raw = (prefix, arrivals, sizes, runtimes, h.hexdigest()[:24])
    _RAW_MEMO[key] = (trace, *raw)
    return raw


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
        (self.trace, self._arrivals, self._sizes, self._runtimes,
         self._digest) = _raw_columns(trace, max_jobs)
        self.load = load
        #: mean per-processor message count (DESIGN.md section 2.3)
        self.mean_messages = config.num_mes * config.trace_demand_multiplier
        self.stats, self._messages = self._derived()
        #: the paper's arrival-time multiplier f.  A burst trace (all
        #: arrivals simultaneous) has no inter-arrival scale to stretch,
        #: so it replays unscaled.
        if self.stats.mean_interarrival > 0:
            self.factor = 1.0 / (self.stats.mean_interarrival * load)
        else:
            self.factor = 1.0
        self.name = "real-trace"

    def _derived(self) -> tuple[TraceStats, tuple[int, ...]]:
        """Trace statistics and demands, derived once per process for a
        given trace content and demand parameters (thread-safe)."""
        cfg = self.config
        key = (
            self._digest, len(self.trace),
            cfg.num_mes, cfg.trace_demand_multiplier, cfg.max_messages,
        )
        hit = _DERIVED_MEMO.get(key)
        if hit is not None:
            return hit
        with _DERIVED_LOCK:
            hit = _DERIVED_MEMO.get(key)
            if hit is None:
                hit = (
                    trace_stats(self.trace),
                    tuple(self._quantile_matched_demands()),
                )
                _DERIVED_MEMO[key] = hit
            return hit

    def _quantile_matched_demands(self) -> list[int]:
        """Per-job message counts: exponential marginal with the paper's
        mean, rank-correlated with the recorded runtimes."""
        cfg = self.config
        runtimes = self._runtimes
        # average ranks for ties, scaled into (0, 1)
        order = np.argsort(runtimes, kind="stable")
        ranks = np.empty(len(runtimes), dtype=np.float64)
        ranks[order] = np.arange(1, len(runtimes) + 1)
        quantiles = ranks / (len(runtimes) + 1)
        demands = -self.mean_messages * np.log1p(-quantiles)
        # round() already returns an int; no cast needed
        return [
            min(max(1, round(k)), cfg.max_messages) for k in demands
        ]

    def jobs(self, seed: int) -> Iterator[Job]:
        """The deterministic replay stream (``seed`` is ignored)."""
        # replay is fully deterministic; the seed is accepted for
        # interface uniformity but unused
        cfg = self.config
        t0 = self.trace[0].arrival
        prev = 0.0
        for i, (tj, k) in enumerate(zip(self.trace, self._messages), start=1):
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
            "trace", self._digest, len(self.trace), self.factor,
            cfg.width, cfg.length, cfg.processors,
            self.mean_messages, cfg.max_messages,
        )

    def _columns(self) -> JobBlock:
        """The whole replay as one memoised column block.

        Derivation (quantised scaled arrivals, Mache--Lo--Windisch
        shaping via per-unique-size lookup, quantile-matched demands)
        runs once per process for a given fingerprint; later workload
        instances over the same trace and parameters reuse the arrays.
        Thread-safe: derivation serialises on a module lock, so a
        thread pool racing through first use computes each fingerprint
        once (the memoised columns are frozen read-only).
        """
        key = self.block_fingerprint()
        block = _COLUMN_MEMO.get(key)
        if block is not None:
            return block
        with _COLUMN_LOCK:
            block = _COLUMN_MEMO.get(key)
            if block is not None:
                return block
            return self._derive_columns(key)

    def _derive_columns(self, key: tuple) -> JobBlock:
        cfg = self.config
        scaled = (self._arrivals - self._arrivals[0]) * self.factor
        arrival = np.floor(scaled * TIME_GRID) / TIME_GRID
        bad = np.nonzero(np.diff(arrival) < 0)[0]
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"workload produced decreasing arrival times "
                f"({arrival[i + 1]} < {arrival[i]})"
            )
        sizes = np.minimum(self._sizes, cfg.processors)
        # sorted distinct sizes, as np.unique gives them, without its
        # first-use import of numpy.ma
        ordered = np.sort(sizes)
        distinct = np.empty(ordered.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        uniq = ordered[distinct]
        shapes = [shape_for_size(int(s), cfg.width, cfg.length) for s in uniq]
        idx = np.searchsorted(uniq, sizes)
        width = np.array([s[0] for s in shapes], dtype=np.int64)[idx]
        length = np.array([s[1] for s in shapes], dtype=np.int64)[idx]
        block = JobBlock(
            job_id=np.arange(1, len(self.trace) + 1, dtype=np.int64),
            arrival=arrival,
            width=width,
            length=length,
            messages=np.array(self._messages, dtype=np.int64),
            demand=self._runtimes.copy(),
            runtime=self._runtimes.copy(),
        )
        for col in (block.job_id, block.arrival, block.width, block.length,
                    block.messages, block.demand, block.runtime):
            col.flags.writeable = False
        _COLUMN_MEMO[key] = block
        return block

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Zero-copy views over the memoised columns (seed ignored)."""
        block = self._columns()
        for start in range(0, len(block), count):
            yield block.view(start, start + count)
