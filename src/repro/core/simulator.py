"""Simulation orchestrator: arrivals -> queue -> allocate -> traffic -> depart.

Wires the DES kernel, an allocation strategy, a scheduling strategy, the
wormhole network and a workload into one run, mirroring ProcSimity's main
loop:

* a job arrives and joins the scheduler's queue;
* the dispatcher considers queue heads in policy order; an allocation
  attempt that succeeds starts the job's all-to-all traffic, a failure
  stops dispatching (head-blocking, the paper's semantics);
* when the last packet of a job is delivered the job departs, its
  processors are freed, and the dispatcher runs again.

A run ends after ``config.jobs`` completions (the paper uses 1000) or at
``config.max_time`` for the saturation/utilization experiments.

Job lifecycle events are broadcast to a list of
:class:`~repro.core.hooks.SimObserver` objects
(``on_arrival``/``on_start``/``on_complete``/``on_busy_change``/
``on_end``).  The run's :class:`Metrics` is always the first observer;
extra observers (e.g. :class:`~repro.core.hooks.TrajectoryObserver` for
time-resolved queue/utilization series) attach via the ``observers``
argument.  Observers are passive, so attaching them never changes the
simulated trajectory.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.alloc.base import Allocator
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.events import Priority
from repro.core.hooks import SimObserver
from repro.core.job import Job
from repro.core.metrics import Metrics, RunResult
from repro.network import make_backend
from repro.network.topology import MeshTopology
from repro.network.traffic import AllToAllTraffic
from repro.sched.policies import Scheduler
from repro.workload.base import Workload
from repro.workload.columnar import job_stream


class Simulator:
    """One simulation run over a fixed strategy combination.

    ``config`` carries every run setting, including the network timing
    engine (:attr:`SimConfig.network_mode`); ``seed`` overrides
    ``config.seed`` for one replication.
    """

    def __init__(
        self,
        config: SimConfig,
        allocator: Allocator,
        scheduler: Scheduler,
        workload: Workload,
        seed: int | None = None,
        keep_jobs: bool = False,
        observers: Sequence[SimObserver] = (),
    ) -> None:
        if (allocator.width, allocator.length) != (config.width, config.length):
            raise ValueError(
                f"allocator mesh {allocator.width}x{allocator.length} does not "
                f"match config {config.width}x{config.length}"
            )
        self.config = config
        self.allocator = allocator
        self.scheduler = scheduler
        self.workload = workload
        self.engine = Engine()
        self.topology = MeshTopology(
            config.width, config.length, wrap=config.topology == "torus"
        )
        self.network = make_backend(
            config.network_mode,
            self.topology,
            self.engine,
            t_s=config.t_s,
            p_len=config.p_len,
        )
        self.seed = config.seed if seed is None else seed
        channel = None
        if config.channel is not None:
            from repro.network.channel import ChannelModel, parse_channel

            policy = parse_channel(config.channel)
            if not policy.trivial:
                # seeded off the run's lane seed on an independent
                # sub-stream, so the workload draws are untouched and the
                # same seed reproduces the same fates everywhere
                channel = ChannelModel(
                    policy,
                    config.arq,
                    self.seed,
                    config.p_len,
                    config.round_gap_factor * config.p_len,
                )
        self.traffic = AllToAllTraffic(
            self.network,
            self.engine,
            round_gap=config.round_gap_factor * config.p_len,
            channel=channel,
        )
        self.metrics = Metrics(
            config.processors, warmup_jobs=config.warmup_jobs, keep_jobs=keep_jobs
        )
        #: lifecycle observers; metrics always first so aggregates exist
        self.observers: tuple[SimObserver, ...] = (self.metrics, *observers)
        self._jobs: Iterator[Job] | None = None
        self._done = False
        self._arrived = 0
        self._started = 0

    # ------------------------------------------------------------------ run
    def run(self) -> RunResult:
        """Execute the run and return the aggregated metrics.

        The job stream comes through the block-buffered adapter
        (:func:`repro.workload.columnar.job_stream`): workloads with a
        native columnar form materialise jobs from (process-cached)
        column blocks, others keep the plain sequential iterator.
        Either way the jobs are identical to ``workload.jobs(seed)``.
        The run ends when the completion target is reached, the event
        heap drains, or ``config.max_time`` is hit.
        """
        self._jobs = job_stream(self.workload, self.seed)
        self._schedule_next_arrival()
        self.engine.run(until=self.config.max_time, stop=lambda: self._done)
        now = self.engine.now
        for obs in self.observers:
            obs.on_end(now)
        return self.metrics.result(now)

    @property
    def completed(self) -> int:
        """Jobs that have departed so far."""
        return self.metrics.completed

    # ------------------------------------------------------------- arrivals
    def _schedule_next_arrival(self) -> None:
        assert self._jobs is not None
        job = next(self._jobs, None)
        if job is None:
            return  # finite trace exhausted
        # guard against pathological workloads that jump backwards
        at = max(job.arrival_time, self.engine.now)
        self.engine.schedule_at(at, self._on_arrival, job, priority=Priority.ARRIVAL)

    def _on_arrival(self, job: Job) -> None:
        self._arrived += 1
        self.scheduler.add(job)
        now = self.engine.now
        queued = len(self.scheduler)
        for obs in self.observers:
            obs.on_arrival(now, job, queued)
        self._schedule_next_arrival()
        self._dispatch()

    # ------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        """Allocate queue heads until the policy window blocks."""
        allocator = self.allocator
        scheduler = self.scheduler
        progress = True
        while progress and len(scheduler):
            progress = False
            for job in scheduler.peek(self.config.scheduler_window):
                allocation = allocator.allocate(job.job_id, job.width, job.length)
                if allocation is not None:
                    scheduler.remove(job)
                    self._start(job, allocation)
                    progress = True
                    break

    def _start(self, job: Job, allocation) -> None:
        now = self.engine.now
        job.alloc_time = now
        job.allocation = allocation
        self._started += 1
        queued = len(self.scheduler)
        for obs in self.observers:
            obs.on_busy_change(now, allocation.size)
        for obs in self.observers:
            obs.on_start(now, job, queued)
        self.traffic.launch(job, now, self._on_complete)

    # ------------------------------------------------------------ departure
    def _on_complete(self, job: Job) -> None:
        now = self.engine.now
        job.depart_time = now
        assert job.allocation is not None
        self.allocator.release(job.allocation)
        for obs in self.observers:
            obs.on_busy_change(now, -job.allocation.size)
        for obs in self.observers:
            obs.on_complete(now, job)
        if self.metrics.completed >= self.config.jobs:
            self._done = True
            return
        self._dispatch()
