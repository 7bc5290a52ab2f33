"""All-to-all job traffic (paper section 5).

"Each processor allocated to a job sends a packet to all other processors
allocated to the same job", and "the number of messages that are actually
generated by a given job is exponentially distributed with a mean
num_mes".  Per DESIGN.md section 2.2, each of the job's ``n`` processors
sends ``K_j`` packets whose destinations cycle through the other
processors in a balanced all-to-all exchange schedule (alternating-sign
growing offsets), one *round* per message.

Rounds are spaced ``round_gap`` time units apart -- the compute phase
between message exchanges of the ProcSimity job model.  The job's
*service time* spans from allocation until its last packet is delivered
(execution times are simulator outputs, not inputs).

The job's processors are the row-major node ids of its allocation
(``Allocation.nodes``), in allocation order, and the network backend
receives them unchanged, a round at a time: synchronous backends
(``fast``, ``batch``) resolve the whole launch through
:meth:`~repro.network.backend.NetworkBackend.inject_rounds` and report
aggregate :class:`~repro.network.backend.RoundStats` that are folded
into the job in bulk; event-driven backends (``causal``, ``sfb``)
receive one :meth:`~repro.network.backend.NetworkBackend.send` per
packet and deliver through engine callbacks.

A single-processor job has no partners; it performs the equivalent local
work (``K_j`` rounds) so its service time is non-zero, matching
ProcSimity's treatment of computation-only jobs.

When the run has a non-trivial :class:`~repro.network.channel.ChannelModel`,
launches detour through the lossy-channel drivers instead: the
synchronous resolver (:func:`repro.network.channel.resolve_launch`)
runs fates, timeouts and ARQ retransmission rounds over the backend's
reservations (in C on ``batch`` with a kernel, else through one
``transmit`` per attempt), and event-driven backends get a per-launch
:class:`~repro.network.channel.ChannelledEventLaunch`.  Both drivers
keep the launch's ARQ state in one
:class:`~repro.network.arq.LaunchArq`: flat lists over the launch's
``n * total`` packets, packet ``(i, k)`` (source ``i``, round ``k``) at
index ``i * total + k``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelModel

from repro.core.engine import Engine
from repro.core.events import Priority
from repro.core.job import Job
from repro.network.backend import NetworkBackend, PathTiming


def destination_offsets(n: int, messages: int) -> list[int]:
    """Cyclic-shift offsets of the exchange schedule, one per round.

    Round ``k`` sends processor ``i``'s packet to ``(i + offset_k) mod
    n``.  The offsets alternate between *near* rounds (partners 1, 2, 3,
    ... in allocation order, the locality-sensitive half of the exchange)
    and *far* rounds (partners sampled evenly across the opposite half of
    the ring, travelling in the opposite link direction).  This balanced
    slice of the canonical all-to-all keeps both properties the paper
    leans on:

    * near rounds reward allocations with large contiguous fragments
      (GABL's and MBS's big blocks);
    * far rounds cross *between* fragments of a scattered allocation --
      "the weak point for non-contiguous allocation";
    * every round is a permutation (no self-sends), and for
      ``K >= 2(n-1)`` every partner is reached.
    """
    if n < 2:
        return []
    span = n - 1
    offsets: list[int] = []
    near_mag = 0
    far_steps = (messages + 1) // 2
    far_stride = max(1, span // max(far_steps, 1))
    far_idx = 0
    for k in range(messages):
        if k % 2 == 0:
            # near round: partners 1, 2, 3, ... in allocation order
            near_mag = near_mag % span + 1
            offsets.append(near_mag)
        else:
            # far round: partners sampled evenly across the ring,
            # travelling in the opposite link direction
            mag = 1 + (span // 2 + far_idx * far_stride) % span
            far_idx += 1
            offsets.append(n - mag)
    return offsets


def destination_schedule(n: int, messages: int) -> list[list[int]]:
    """Destination index table: ``table[k][i]`` is the target of processor
    ``i``'s ``k``-th packet (see :func:`destination_offsets`)."""
    return [
        [(i + offset) % n for i in range(n)]
        for offset in destination_offsets(n, messages)
    ]


class AllToAllTraffic:
    """Launches a job's communication and reports its completion."""

    __slots__ = ("network", "engine", "round_gap", "channel")

    def __init__(
        self,
        network: NetworkBackend,
        engine: Engine,
        round_gap: float | None = None,
        channel: "ChannelModel | None" = None,
    ) -> None:
        self.network = network
        self.engine = engine
        #: lossy-channel model (None for the paper's perfect interconnect)
        self.channel = channel
        #: time between communication rounds (>= one packet injection)
        self.round_gap = (
            float(network.p_len) if round_gap is None else float(round_gap)
        )
        if self.round_gap < network.p_len:
            raise ValueError(
                f"round_gap {self.round_gap} shorter than packet injection "
                f"time {network.p_len}"
            )

    def launch(
        self, job: Job, now: float, on_complete: Callable[[Job], None]
    ) -> None:
        """Inject all of ``job``'s packets; ``on_complete(job)`` fires when
        the last one is delivered."""
        assert job.allocation is not None, "job must be allocated before launch"
        # Paging(size_index >= 1) grants whole pages; only the requested
        # w*l processors actually compute/communicate.
        nodes = job.allocation.nodes[: job.size]
        n = len(nodes)
        if n < 2:
            duration = job.messages * self.round_gap
            self.engine.schedule(
                duration, on_complete, job, priority=Priority.DEPARTURE
            )
            return
        offsets = destination_offsets(n, job.messages)
        if self.channel is not None:
            self._launch_channelled(job, nodes, offsets, now, on_complete)
        elif self.network.synchronous:
            stats = self.network.inject_rounds(nodes, offsets, now, self.round_gap)
            job.record_packets(
                stats.packets, stats.latency_sum, stats.blocking_sum
            )
            self.engine.schedule_at(
                stats.last_delivery, on_complete, job, priority=Priority.DEPARTURE
            )
        else:
            self._launch_event_driven(job, nodes, offsets, now, on_complete)

    # --------------------------------------------------- lossy-channel path
    def _launch_channelled(
        self,
        job: Job,
        nodes: tuple[int, ...],
        offsets: list[int],
        now: float,
        on_complete: Callable[[Job], None],
    ) -> None:
        from repro.network.channel import ChannelledEventLaunch, resolve_launch

        assert self.channel is not None
        if self.network.synchronous:
            result = resolve_launch(
                self.network,
                self.channel,
                nodes,
                offsets,
                now,
                self.round_gap,
            )
            stats = result.stats
            job.record_packets(
                stats.packets, stats.latency_sum, stats.blocking_sum
            )
            self.engine.schedule_at(
                stats.last_delivery, on_complete, job, priority=Priority.DEPARTURE
            )
        else:
            ChannelledEventLaunch(
                self.network,
                self.engine,
                self.channel,
                job,
                nodes,
                offsets,
                now,
                self.round_gap,
                on_complete,
                Priority.NETWORK,
            )

    # ---------------------------------------------------- event-driven path
    def _launch_event_driven(
        self,
        job: Job,
        nodes: tuple[int, ...],
        offsets: list[int],
        now: float,
        on_complete: Callable[[Job], None],
    ) -> None:
        n = len(nodes)
        job.pending_packets = len(offsets) * n

        def delivered(timing: PathTiming) -> None:
            job.record_packet(timing.latency, timing.blocking)
            job.pending_packets -= 1
            if job.pending_packets == 0:
                on_complete(job)

        def send_round(offset: int, at: float) -> None:
            for i in range(n):
                self.network.send(nodes[i], nodes[(i + offset) % n], at, delivered)

        for k, offset in enumerate(offsets):
            if k == 0:
                send_round(offset, now)
            else:
                self.engine.schedule(
                    k * self.round_gap,
                    send_round,
                    offset,
                    now + k * self.round_gap,
                    priority=Priority.NETWORK,
                )
