"""Event-driven wormhole network engines.

Timing model (DESIGN.md section 2.1).  A packet of ``P_len`` flits
crossing channel ``c`` at service start ``s``:

* the header pays the router decision ``t_s`` plus one link cycle, so it
  *arrives at the next channel* at ``s + t_s + 1``;
* the body streams behind at one flit per time unit; the router decision
  overlaps the body pipeline, so the channel itself is occupied for the
  ``P_len`` flit-cycles (``s .. s + P_len``);
* channels serve packets FIFO: a header arriving at time ``t`` starts
  service at ``max(t, channel_free_at)``; the difference is *blocking
  time* (contention), except on the injection channel where it is source
  queueing and excluded from the paper's packet statistics;
* delivery completes one ``P_len - 1`` flit-drain after the header
  finishes the ejection channel crossing.

Uncontended end-to-end latency for an ``h``-hop route is therefore
``(h + 2) * (t_s + 1) + P_len - 1`` (the ``+2`` are the injection and
ejection channels) -- asserted by the unit tests.

Four backends share this arithmetic (see :mod:`repro.network.backend`):

* ``fast`` -- the entire path is reserved when the packet is injected;
  one pure-Python loop per packet and a single completion event per job.
  Within a burst of simultaneous injections, channel grants follow
  reservation order rather than physical header-arrival order; with
  time-staggered injections the two orders coincide exactly (property-
  tested in ``test_network_properties``), and under synchronized bursts
  fast mode is conservative (over-reports contention) while preserving
  strategy rankings (validated by ``bench_abl_network_mode``).
* ``batch`` (:mod:`repro.network.batch`, the default) -- the same
  reservation discipline resolved a whole launch at a time by a compiled
  kernel (else by the ``fast`` loop itself); bit-identical to ``fast``.
* ``causal`` -- one event per hop; channels are reserved exactly when the
  header reaches them, giving exact FIFO-by-arrival arbitration.  Both
  of the above correspond to wormhole switching with buffers deep enough
  to absorb a stalled body.
* ``sfb`` -- single-flit-buffer wormhole: a worm *holds* every channel
  its body occupies (the trailing ``P_len`` channels behind the header)
  and releases a channel only when the body compresses past it; a
  blocked header therefore keeps all of them held -- the classic chained
  blocking of minimally-buffered wormhole switching.  Deadlock-free on
  the mesh because XY routing acquires channels in a global total order;
  refused on torus topologies (real tori need virtual channels).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.core.engine import Engine
from repro.core.events import Priority
from repro.network.backend import (
    NetworkBackend,
    PathTiming,
    RoundStats,
    register_backend,
)
from repro.network.topology import MeshTopology

__all__ = ["PathTiming", "FastBackend", "CausalBackend", "SFBBackend"]


@register_backend
class FastBackend(NetworkBackend):
    """Whole-path reservation at injection time (the reference engine)."""

    mode = "fast"
    synchronous = True

    # ------------------------------------------------------------ transmit
    def transmit(self, src: int, dst: int, now: float) -> PathTiming:
        """Reserve the whole XY path at once and return its timing.

        The packet is queued at the source at time ``now``; channel
        reservations follow the deterministic call order.
        """
        path = self._routes.get(src * self._node_count + dst)
        if path is None:
            path = self._route(src, dst)
        free_at = self.free_at
        hop = self.hop_cost
        occ = self.occupancy
        # injection channel: waiting here is source queueing, not blocking
        f = free_at[path[0]]
        start = now if now >= f else f
        free_at[path[0]] = start + occ
        t_inject = start
        t = start + hop  # header arrival at the first link channel
        blocking = 0.0
        for c in path[1:]:
            f = free_at[c]
            if f > t:
                blocking += f - t
                t = f
            free_at[c] = t + occ
            t += hop
        self.packets_sent += 1
        return PathTiming(t_inject, t + self.drain, blocking)

    # -------------------------------------------------------- round launch
    def inject_rounds(
        self,
        nodes: Sequence[int],
        offsets: Sequence[int],
        now: float,
        round_gap: float,
    ) -> RoundStats:
        """Reserve every round's packets in deterministic order."""
        n = len(nodes)
        transmit = self.transmit
        packets = 0
        latency_sum = 0.0
        blocking_sum = 0.0
        last_delivery = now
        for r, offset in enumerate(offsets):
            t_round = now + r * round_gap
            for i in range(n):
                timing = transmit(nodes[i], nodes[(i + offset) % n], t_round)
                packets += 1
                latency_sum += timing.latency
                blocking_sum += timing.blocking
                if timing.t_deliver > last_delivery:
                    last_delivery = timing.t_deliver
        return RoundStats(
            packets=packets,
            latency_sum=latency_sum,
            blocking_sum=blocking_sum,
            last_delivery=last_delivery,
        )


@register_backend
class CausalBackend(NetworkBackend):
    """One event per hop: exact FIFO-by-arrival channel arbitration."""

    mode = "causal"
    synchronous = False

    def send(
        self,
        src: int,
        dst: int,
        now: float,
        on_delivered: Callable[[PathTiming], None],
    ) -> None:
        self.packets_sent += 1
        packet = _Packet(path=self._route(src, dst), on_delivered=on_delivered)
        self._hop(packet, now)

    def _hop(self, packet: "_Packet", now: float) -> None:
        c = packet.path[packet.idx]
        f = self.free_at[c]
        start = now if now >= f else f
        if packet.idx == 0:
            packet.t_inject = start
        else:
            packet.blocking += start - now
        self.free_at[c] = start + self.occupancy
        packet.idx += 1
        next_t = start + self.hop_cost
        if packet.idx == len(packet.path):
            self.engine.schedule_at(
                next_t + self.drain,
                self._deliver,
                packet,
                priority=Priority.NETWORK,
            )
        else:
            self.engine.schedule_at(
                next_t, self._hop, packet, next_t, priority=Priority.NETWORK
            )

    def _deliver(self, packet: "_Packet") -> None:
        packet.on_delivered(
            PathTiming(
                t_inject=packet.t_inject,
                t_deliver=self.engine.now,
                blocking=packet.blocking,
            )
        )


@register_backend
class SFBBackend(NetworkBackend):
    """Single-flit-buffer wormhole: worms hold their body channels."""

    mode = "sfb"
    synchronous = False

    def __init__(
        self,
        topology: MeshTopology,
        engine: Engine,
        t_s: float = 3.0,
        p_len: int = 8,
    ) -> None:
        if topology.wrap:
            raise ValueError(
                "sfb (hold-and-wait wormhole) deadlocks on torus topologies; "
                "use fast, batch or causal mode"
            )
        super().__init__(topology, engine, t_s=t_s, p_len=p_len)
        # current holder and FIFO waiters per channel
        self._holder: list["_SFBWorm | None"] = [None] * topology.channel_count
        self._waiters: list[deque | None] = [None] * topology.channel_count

    def send(
        self,
        src: int,
        dst: int,
        now: float,
        on_delivered: Callable[[PathTiming], None],
    ) -> None:
        self.packets_sent += 1
        worm = _SFBWorm(path=self._route(src, dst), on_delivered=on_delivered)
        worm.t = now
        self._advance(worm)

    def _advance(self, worm: "_SFBWorm") -> None:
        """Advance the header, holding the trailing body channels.

        The worm's body spans at most ``P_len`` channels (one flit
        buffered per channel); acquiring channel ``j`` lets the tail leave
        channel ``j - P_len``, which is released at that moment.  A busy
        next channel suspends the worm in the channel's FIFO -- everything
        it holds stays held (chained blocking).
        """
        path = worm.path
        holder = self._holder
        free_at = self.free_at
        body_span = self.p_len
        while worm.idx < len(path):
            c = path[worm.idx]
            if holder[c] is not None:
                self._waiters_at(c).append(worm)
                worm.blocked_since = worm.t
                return
            f = free_at[c]
            start = worm.t if worm.t >= f else f
            if worm.idx == 0:
                worm.t_inject = start
            else:
                worm.blocking += start - worm.t
            holder[c] = worm
            worm.t = start + self.hop_cost
            worm.idx += 1
            if worm.idx > body_span:
                # tail compresses forward: the channel body_span behind
                # the header drains as the header starts this crossing
                self._release(path[worm.idx - 1 - body_span], start)
        self._deliver(worm)

    def _deliver(self, worm: "_SFBWorm") -> None:
        t_deliver = worm.t + self.drain
        path = worm.path
        last = len(path) - 1
        # remaining held channels drain at one flit per time unit
        for i in range(max(0, len(path) - self.p_len), len(path)):
            self._release(path[i], t_deliver - (last - i))
        # the advance loop may run ahead of the clock (future channel
        # reservations), so completion must be delivered as an event at
        # the actual arrival time
        self.engine.schedule_at(
            max(t_deliver, self.engine.now),
            worm.on_delivered,
            PathTiming(
                t_inject=worm.t_inject,
                t_deliver=t_deliver,
                blocking=worm.blocking,
            ),
            priority=Priority.NETWORK,
        )

    def _release(self, c: int, at: float) -> None:
        waiters = self._waiters[c]
        if waiters:
            at = max(at, self.engine.now)
            self.engine.schedule_at(
                at, self._grant, c, priority=Priority.NETWORK
            )
        else:
            self._holder[c] = None
            self.free_at[c] = at

    def _grant(self, c: int) -> None:
        waiters = self._waiters[c]
        assert waiters, "grant fired on a channel without waiters"
        worm: _SFBWorm = waiters.popleft()
        now = self.engine.now
        if worm.idx == 0:
            worm.t_inject = now
        else:
            worm.blocking += now - worm.blocked_since
        self._holder[c] = worm
        worm.t = now + self.hop_cost
        worm.idx += 1
        if worm.idx > self.p_len:
            self._release(worm.path[worm.idx - 1 - self.p_len], now)
        self._advance(worm)

    def _waiters_at(self, c: int) -> deque:
        w = self._waiters[c]
        if w is None:
            w = deque()
            self._waiters[c] = w
        return w

    def reset(self) -> None:
        super().reset()
        self._holder = [None] * self.topology.channel_count
        self._waiters = [None] * self.topology.channel_count


class _Packet:
    """Per-packet state for causal mode."""

    __slots__ = ("path", "idx", "t_inject", "blocking", "on_delivered")

    def __init__(
        self, path: tuple[int, ...], on_delivered: Callable[[PathTiming], None]
    ) -> None:
        self.path = path
        self.idx = 0
        self.t_inject = 0.0
        self.blocking = 0.0
        self.on_delivered = on_delivered


class _SFBWorm:
    """Per-packet state for single-flit-buffer mode (holds channels)."""

    __slots__ = (
        "path", "idx", "t", "t_inject", "blocking", "blocked_since",
        "on_delivered",
    )

    def __init__(
        self, path: tuple[int, ...], on_delivered: Callable[[PathTiming], None]
    ) -> None:
        self.path = path
        self.idx = 0
        self.t = 0.0
        self.t_inject = 0.0
        self.blocking = 0.0
        self.blocked_since = 0.0
        self.on_delivered = on_delivered
