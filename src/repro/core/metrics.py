"""Run-level metric collection.

The paper's five performance parameters (section 5):

* **average turnaround time** -- arrival to departure, per job;
* **average service time** -- allocation to departure, per job;
* **average packet latency** -- injection to delivery, per packet;
* **average packet blocking time** -- time spent stalled in the network
  holding channels, per packet;
* **mean system utilization** -- time-weighted fraction of allocated
  processors.

Packet statistics are accumulated per job while it runs -- one
:meth:`~repro.core.job.Job.record_packet` per delivery under the
event-driven network backends, or a single bulk
:meth:`~repro.core.job.Job.record_packets` per launch under the
synchronous ones -- and merged here on completion, so the warm-up
exclusion treats a job and its packets atomically regardless of how the
samples were ingested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hooks import SimObserver
from repro.core.job import Job


@dataclass(frozen=True, slots=True)
class RunResult:
    """Aggregated output of one simulation run."""

    completed_jobs: int
    measured_jobs: int
    mean_turnaround: float
    mean_service: float
    mean_wait: float
    mean_packet_latency: float
    mean_packet_blocking: float
    utilization: float
    sim_time: float
    packets_delivered: int
    mean_fragments: float
    contiguity_rate: float
    queue_peak: int

    def metric(self, name: str) -> float:
        """Fetch a metric by experiment-registry name."""
        return getattr(self, name)


class Metrics(SimObserver):
    """Streaming accumulators for one run.

    Implements the :class:`~repro.core.hooks.SimObserver` interface and
    is the simulator's *default* observer: every run carries one, so the
    aggregate :class:`RunResult` always exists.  The pre-observer entry
    points (:meth:`on_queue_length`, :meth:`on_completion`) remain the
    implementation; the hook methods adapt to them.
    """

    __slots__ = (
        "processors",
        "warmup_jobs",
        "completed",
        "measured",
        "turnaround_sum",
        "service_sum",
        "wait_sum",
        "latency_sum",
        "blocking_sum",
        "packets",
        "busy_integral",
        "busy_procs",
        "last_change",
        "queue_peak",
        "fragments_sum",
        "contiguous_jobs",
        "per_job",
        "keep_jobs",
    )

    def __init__(
        self, processors: int, warmup_jobs: int = 0, keep_jobs: bool = False
    ) -> None:
        self.processors = processors
        self.warmup_jobs = warmup_jobs
        self.completed = 0
        self.measured = 0
        self.turnaround_sum = 0.0
        self.service_sum = 0.0
        self.wait_sum = 0.0
        self.latency_sum = 0.0
        self.blocking_sum = 0.0
        self.packets = 0
        self.busy_integral = 0.0
        self.busy_procs = 0
        self.last_change = 0.0
        self.queue_peak = 0
        self.fragments_sum = 0
        self.contiguous_jobs = 0
        self.per_job: list[Job] = []
        self.keep_jobs = keep_jobs

    # -------------------------------------------------------- utilization
    def on_busy_change(self, now: float, delta: int) -> None:
        """Processor occupancy changed by ``delta`` at time ``now``."""
        self.busy_integral += self.busy_procs * (now - self.last_change)
        self.busy_procs += delta
        self.last_change = now
        if not 0 <= self.busy_procs <= self.processors:
            raise AssertionError(
                f"busy processor count {self.busy_procs} out of range"
            )

    # ----------------------------------------------------------- lifecycle
    def on_arrival(self, now: float, job: Job, queue_length: int) -> None:
        self.on_queue_length(queue_length)

    def on_complete(self, now: float, job: Job) -> None:
        self.on_completion(job)

    def on_queue_length(self, length: int) -> None:
        if length > self.queue_peak:
            self.queue_peak = length

    def on_completion(self, job: Job) -> None:
        """A job departed; fold it into the aggregates unless warming up."""
        self.completed += 1
        if self.completed <= self.warmup_jobs:
            return
        self.measured += 1
        self.turnaround_sum += job.turnaround
        self.service_sum += job.service_time
        self.wait_sum += job.wait_time
        self.latency_sum += job.latency_sum
        self.blocking_sum += job.blocking_sum
        self.packets += job.packet_count
        if job.allocation is not None:
            self.fragments_sum += job.allocation.fragment_count
            if job.allocation.contiguous:
                self.contiguous_jobs += 1
        if self.keep_jobs:
            self.per_job.append(job)

    # -------------------------------------------------------------- output
    def result(self, now: float) -> RunResult:
        """Freeze the accumulators into a :class:`RunResult` (see
        :func:`run_result`)."""
        return run_result(
            self.processors, now,
            completed=self.completed,
            measured=self.measured,
            turnaround_sum=self.turnaround_sum,
            service_sum=self.service_sum,
            wait_sum=self.wait_sum,
            latency_sum=self.latency_sum,
            blocking_sum=self.blocking_sum,
            packets=self.packets,
            busy_integral=self.busy_integral,
            busy_procs=self.busy_procs,
            last_change=self.last_change,
            fragments_sum=self.fragments_sum,
            contiguous_jobs=self.contiguous_jobs,
            queue_peak=self.queue_peak,
        )


def utilization(
    processors: int, now: float, busy_integral: float, busy_procs: int,
    last_change: float,
) -> float:
    """Time-weighted mean utilization from time 0 to ``now``: the busy
    integral closed at ``now``, over the processor-time available."""
    if now <= 0:
        return 0.0
    integral = busy_integral + busy_procs * (now - last_change)
    return integral / (processors * now)


def run_result(
    processors: int,
    now: float,
    *,
    completed: int,
    measured: int,
    turnaround_sum: float,
    service_sum: float,
    wait_sum: float,
    latency_sum: float,
    blocking_sum: float,
    packets: int,
    busy_integral: float,
    busy_procs: int,
    last_change: float,
    fragments_sum: int,
    contiguous_jobs: int,
    queue_peak: int,
) -> RunResult:
    """Freeze one run's accumulators into a :class:`RunResult`.

    The one finaliser of both engines: :meth:`Metrics.result` and the
    SoA lane's :meth:`repro.alloc.soa_state.LaneState.result` pass their
    sums here, so their float operations are the same ones.

    **Zero-measured semantics:** a run can finish with ``measured ==
    0`` (every completion fell inside the warm-up window, or a
    ``max_time`` cut-off landed before the first measured completion).
    Every per-job mean -- turnaround, service, wait, fragments,
    contiguity rate -- and every per-packet mean then reports exactly
    ``0.0``, never ``nan`` or a division error: downstream consumers
    (campaign cache files, replication CIs) require all metric values
    to be finite and JSON-round-trippable.
    """
    n = max(measured, 1)  # all numerators are 0.0 when measured == 0
    pk = max(packets, 1)
    return RunResult(
        completed_jobs=completed,
        measured_jobs=measured,
        mean_turnaround=turnaround_sum / n,
        mean_service=service_sum / n,
        mean_wait=wait_sum / n,
        mean_packet_latency=latency_sum / pk,
        mean_packet_blocking=blocking_sum / pk,
        utilization=utilization(
            processors, now, busy_integral, busy_procs, last_change
        ),
        sim_time=now,
        packets_delivered=packets,
        mean_fragments=fragments_sum / n,
        contiguity_rate=contiguous_jobs / n,
        queue_peak=queue_peak,
    )
