"""Lossy interconnect channels under the transport backends.

The paper's wormhole model assumes lossless links.  A
:class:`ChannelPolicy` makes every packet *attempt* unreliable: it may
be dropped in flight, corrupted (fails its CRC at the ejection channel),
or delivered late.  Policies are written in a small spec grammar --
``+``-joined terms, whitespace-insensitive::

    loss:P                  drop each attempt with probability P
    corrupt:P               corrupt each attempt with probability P
    delay:fixed:T           add T time units to every delivery
    delay:exp:MEAN          add Exp(MEAN)-distributed extra latency
    delay:uniform:LO:HI     add U(LO, HI)-distributed extra latency

e.g. ``"loss:0.05 + delay:exp:0.1"``.  Lost and corrupted attempts
behave identically here: the worm still *occupies its full path* (the
reservation is made before the fate is known), consuming bandwidth, but
is never accepted by the receiver -- so loss and corruption compose into
one failure probability ``1 - (1-loss)(1-corrupt)``.  Recovery is the
ARQ protocol's job (:mod:`repro.network.arq`); a policy with a positive
failure rate therefore requires ``SimConfig.arq`` to be set.

**RNG seeding contract.**  Channel fates and delays are drawn from a
dedicated generator, ``default_rng((CHANNEL_STREAM, seed))``, a pure
function of the run's lane seed -- *not* from the workload's
``default_rng(seed)`` stream.  Enabling a channel therefore never
perturbs arrival times or job shapes, the per-run draw sequence is
deterministic, and the same seed reproduces the same fates under the
serial, thread and process executors alike.  When fates are the
stream's only draws (no delay, or ``delay:fixed``), the sampler takes
them ``FATE_BLOCK`` uniforms at a time: the draw order is unchanged,
the generator merely runs ahead of the last fate handed out.

**Fates stay in Python.**  On a ``batch`` backend with a loaded
kernel, :func:`resolve_launch` runs the launch's event loop, ARQ
protocol and reservations in C (:mod:`repro.network._native`), but the
C side draws nothing: it takes one outcome per attempt from buffers this
module fills through :meth:`ChannelSampler.fate` and
:meth:`ChannelSampler.delay`, in the per-attempt order above, and asks
for exactly as many outcomes as the attempts certain to come.  The
channel stream thus has one implementation, and the sampler's draws
-- their number, order and the generator's state after each launch --
are the same on every resolver.

**Trivial policies.**  ``"loss:0"`` (and any policy with zero failure
probability and no delay) is *trivial*: the simulator skips the channel
machinery entirely, so it is bit-identical to running with no channel at
all, across every backend and engine.  Non-trivial policies break the
bit-exact cross-backend invariant by design; equivalence is then gated
statistically (``tests/statgate.py``).

Per-packet *latency* spans from the first attempt's injection to the
accepted attempt's arrival; *blocking* sums the contention stalls of
every attempt, including failed ones.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import TIME_GRID
from repro.network import _native
from repro.network.arq import (
    ARQ_PROTOCOLS,
    NOT_YET,
    LaunchArq,
    attempts_exceeded,
)
from repro.network.backend import NetworkBackend, PathTiming, RoundStats

#: sub-stream tag ("CHNL") keeping channel draws off the workload stream
CHANNEL_STREAM = 0x43484E4C

_DELAY_KINDS = ("fixed", "exp", "uniform")

#: uniforms a :class:`ChannelSampler` draws at once when fates are the
#: stream's only draws (same doubles, same order as one-by-one draws)
FATE_BLOCK = 1024


@dataclass(frozen=True, slots=True)
class ChannelPolicy:
    """Per-link unreliability: drop/corrupt probabilities + extra delay."""

    loss: float = 0.0  #: per-attempt drop probability
    corrupt: float = 0.0  #: per-attempt corruption (CRC-failure) probability
    #: extra-delay distribution: ``()`` for none, ``("fixed", t)``,
    #: ``("exp", mean)`` or ``("uniform", lo, hi)``
    delay: tuple = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss probability must be in [0, 1): {self.loss}")
        if not 0.0 <= self.corrupt < 1.0:
            raise ValueError(
                f"corrupt probability must be in [0, 1): {self.corrupt}"
            )
        if self.delay:
            kind = self.delay[0]
            if not all(math.isfinite(v) for v in self.delay[1:]):
                raise ValueError(f"delay values must be finite: {self.delay}")
            if kind == "fixed":
                if len(self.delay) != 2 or self.delay[1] < 0:
                    raise ValueError(f"delay:fixed needs one value >= 0: {self.delay}")
            elif kind == "exp":
                if len(self.delay) != 2 or self.delay[1] <= 0:
                    raise ValueError(f"delay:exp needs a positive mean: {self.delay}")
            elif kind == "uniform":
                if len(self.delay) != 3 or not 0 <= self.delay[1] <= self.delay[2]:
                    raise ValueError(
                        f"delay:uniform needs 0 <= lo <= hi: {self.delay}"
                    )
            else:
                raise ValueError(
                    f"unknown delay kind {kind!r}; choose from {_DELAY_KINDS}"
                )

    @property
    def failure_rate(self) -> float:
        """Combined per-attempt failure probability."""
        return 1.0 - (1.0 - self.loss) * (1.0 - self.corrupt)

    @property
    def trivial(self) -> bool:
        """True when the policy cannot affect any packet."""
        if self.failure_rate > 0.0:
            return False
        return not self.delay or (self.delay[0] == "fixed" and self.delay[1] == 0)

    def spec(self) -> str:
        """Canonical spec string (parse -> spec round-trips).

        Every trivial policy -- any spelling the simulator would skip --
        canonicalises to ``"loss:0"``, so trivial configs cannot alias
        into distinct cache keys.
        """
        if self.trivial:
            return "loss:0"
        parts = []
        if self.loss:
            parts.append(f"loss:{_spec_number(self.loss)}")
        if self.corrupt:
            parts.append(f"corrupt:{_spec_number(self.corrupt)}")
        if self.delay:
            parts.append(
                "delay:" + ":".join(
                    [self.delay[0]] + [_spec_number(v) for v in self.delay[1:]]
                )
            )
        return "+".join(parts) if parts else "loss:0"


def _spec_number(v: float) -> str:
    """``v`` as a spec token that parses back to exactly ``v``.

    The short ``:g`` form where it round-trips (``0.08``, ``2``), else
    the shortest ``repr``; an exponent never carries a ``+``, which
    would split the spec's terms (``2e+06`` -> ``2e6``).
    """
    text = f"{v:g}"
    if float(text) != v:
        text = repr(v)
    mantissa, plus, exponent = text.partition("e+")
    return f"{mantissa}e{int(exponent)}" if plus else text


def parse_channel(spec: str) -> ChannelPolicy:
    """Parse a channel spec string (see module docstring for the grammar)."""
    loss = corrupt = None
    delay: tuple | None = None
    for term in str(spec).split("+"):
        parts = [p.strip() for p in term.split(":")]
        head = parts[0]
        if head == "loss" or head == "corrupt":
            if len(parts) != 2:
                raise ValueError(f"channel term {term.strip()!r}: expected {head}:P")
            try:
                p = float(parts[1])
            except ValueError:
                raise ValueError(
                    f"channel term {term.strip()!r}: {parts[1]!r} is not a number"
                ) from None
            if (loss if head == "loss" else corrupt) is not None:
                raise ValueError(f"duplicate channel term {head!r} in {spec!r}")
            if head == "loss":
                loss = p
            else:
                corrupt = p
        elif head == "delay":
            if delay is not None:
                raise ValueError(f"duplicate channel term 'delay' in {spec!r}")
            if len(parts) < 3 or parts[1] not in _DELAY_KINDS:
                raise ValueError(
                    f"channel term {term.strip()!r}: expected "
                    f"delay:{{{'|'.join(_DELAY_KINDS)}}}:PARAMS"
                )
            try:
                args = tuple(float(p) for p in parts[2:])
            except ValueError:
                raise ValueError(
                    f"channel term {term.strip()!r}: non-numeric delay parameter"
                ) from None
            delay = (parts[1], *args)
        else:
            raise ValueError(
                f"unknown channel term {term.strip()!r} in {spec!r}; "
                f"expected loss:P, corrupt:P or delay:KIND:PARAMS"
            )
    return ChannelPolicy(
        loss=loss or 0.0, corrupt=corrupt or 0.0, delay=delay or ()
    )


def canonical_channel(spec: str) -> str:
    """Normalised form of a channel spec (stable cache-key component)."""
    return parse_channel(spec).spec()


class ChannelSampler:
    """Per-run channel RNG: packet fates and extra delays.

    Draw order is one fate draw per attempt (when the failure rate is
    positive) plus one delay draw per *successful* attempt (when a
    random delay distribution is configured) -- a deterministic sequence
    given the run's event order.  Without a random delay the fates are
    the only draws, so :meth:`fate` takes them from a block of
    ``FATE_BLOCK`` uniforms drawn at once; ``rng.random(k)`` yields the
    same doubles in the same order as ``k`` scalar ``rng.random()``
    calls, so every fate is unchanged.  With an ``exp`` or ``uniform``
    delay the draws interleave and each fate is one scalar draw.
    """

    __slots__ = (
        "policy", "rng", "has_delay", "_failure", "_ahead", "_block", "_pos",
    )

    def __init__(self, policy: ChannelPolicy, seed: int) -> None:
        self.policy = policy
        self.rng = np.random.default_rng((CHANNEL_STREAM, int(seed) % 2**63))
        delay = policy.delay
        #: False when :meth:`delay` is always 0.0, so callers may skip it
        self.has_delay = bool(delay)
        self._failure = policy.failure_rate
        #: True when no delay draw interleaves with the fate draws
        self._ahead = not delay or delay[0] == "fixed"
        self._block: list[float] = []  #: drawn-ahead uniforms
        self._pos = FATE_BLOCK  #: next unused index into ``_block``

    def fate(self) -> bool:
        """True when the attempt survives the channel intact."""
        if self._failure == 0.0:
            return True
        if not self._ahead:
            return self.rng.random() >= self._failure
        pos = self._pos
        block = self._block
        if pos == FATE_BLOCK:
            block = self._block = self.rng.random(FATE_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return block[pos] >= self._failure

    def delay(self) -> float:
        """Extra delivery latency of a surviving attempt (grid-quantised)."""
        delay = self.policy.delay
        if not delay:
            return 0.0
        kind = delay[0]
        if kind == "fixed":
            d = delay[1]
        elif kind == "exp":
            d = self.rng.exponential(delay[1])
        else:  # uniform
            d = self.rng.uniform(delay[1], delay[2])
        return round(d * TIME_GRID) / TIME_GRID


class ChannelModel:
    """A policy + ARQ protocol bound to one run's seed.

    Built by the simulator when ``config.channel`` is non-trivial; holds
    the per-run :class:`ChannelSampler` and the timing constants shared
    by every launch of the run.  The loss-detection timeout is two round
    gaps (one round out, one ack back); resend streams are spaced one
    packet-injection time (``p_len``) apart.
    """

    __slots__ = ("policy", "arq", "sampler", "timeout", "spacing")

    def __init__(
        self, policy: ChannelPolicy, arq: str, seed: int, p_len: int,
        round_gap: float,
    ) -> None:
        if policy.failure_rate > 0.0 and arq not in ARQ_PROTOCOLS:
            raise ValueError(
                f"channel {policy.spec()!r} can fail packets and needs an "
                f"ARQ protocol; choose from {ARQ_PROTOCOLS}"
            )
        self.policy = policy
        self.arq = arq if arq in ARQ_PROTOCOLS else "selective-repeat"
        self.sampler = ChannelSampler(policy, seed)
        self.timeout = 2.0 * round_gap
        self.spacing = float(p_len)


@dataclass(slots=True)
class LaunchResult:
    """Resolved outcome of one channelled launch (synchronous path)."""

    stats: RoundStats
    #: acceptance time of packet ``(i, k)`` at ``accepts[i * total + k]``
    accepts: list[float]
    #: total physical transmission attempts (originals + resends)
    attempts: int


_SEND, _ARRIVE, _FAIL = 0, 1, 2


def resolve_launch(
    network: NetworkBackend,
    model: ChannelModel,
    nodes: Sequence[int],
    offsets: Sequence[int],
    now: float,
    round_gap: float,
) -> LaunchResult:
    """Resolve a whole channelled launch over a synchronous backend.

    Runs a small time-ordered event loop around the backend's packet
    reservations: original sends follow the application's round schedule
    (round-major, source-minor -- the same FIFO order as the lossless
    ``inject_rounds`` path), failed attempts surface as sender timeouts,
    and the ARQ protocol's retransmissions re-enter the send queue until
    every flow's packets are accepted.  ``network`` is a synchronous
    backend; ``nodes`` are the job's node ids, passed to it as-is.

    A ``batch`` backend with a loaded kernel resolves the launch in C
    (:func:`_resolve_compiled`); every other backend -- ``fast``,
    ``batch`` under ``REPRO_NATIVE=0``, a test's stub -- runs the Python
    loop (:func:`_resolve_python`).  Both draw every fate and delay
    through the run's :class:`ChannelSampler`, in the same order and the
    same number of times, and return the same result bit for bit.
    Draining with a packet undelivered, or a packet reaching
    :data:`~repro.network.arq.MAX_ATTEMPTS`, raises ``RuntimeError``.
    """
    if getattr(network, "kernel", None) is not None:
        return _resolve_compiled(network, model, nodes, offsets, now, round_gap)
    return _resolve_python(network, model, nodes, offsets, now, round_gap)


def _undelivered(i: int, k: int) -> RuntimeError:
    return RuntimeError(f"launch drained with (flow {i}, seq {k}) undelivered")


def _resolve_compiled(
    network, model: ChannelModel, nodes: Sequence[int],
    offsets: Sequence[int], now: float, round_gap: float,
) -> LaunchResult:
    """:func:`resolve_launch` on the compiled resolver
    (:class:`repro.network._native.LaunchResolve`).

    C runs the event loop, the heap, the ARQ protocol and the
    reservations; the fates and delays are still drawn here, through
    :meth:`ChannelSampler.fate` and :meth:`ChannelSampler.delay`, as a
    handshake.  Attempt ``m`` of the launch takes outcome ``m``,
    whichever packet it is: ``-1.0`` for a failed attempt, else the
    survivor's delay, drawn right after its fate.  The first buffer
    holds one outcome per packet, since every original is sent; when C
    runs out, it returns how many attempts are certain to come, and
    exactly that many are drawn next.  A launch is therefore one C call
    per generation of failures, and the sampler ends it in the state the
    Python loop leaves.
    """
    total = len(offsets)
    launch = _native.LaunchResolve(
        network, nodes, offsets, now, round_gap,
        ARQ_PROTOCOLS.index(model.arq), model.timeout, model.spacing,
    )
    sampler = model.sampler
    fate = sampler.fate
    delay = sampler.delay if sampler.has_delay else None
    need = launch.size
    while True:
        if delay is None:
            outcomes = [0.0 if fate() else -1.0 for _ in range(need)]
        else:
            outcomes = [delay() if fate() else -1.0 for _ in range(need)]
        code = launch.run(array("d", outcomes))
        if code <= 0:
            break
        need = code
    network.packets_sent += launch.attempts
    if code != _native.RESOLVE_DONE:
        i, k = divmod(launch.error_packet, total)
        if code == _native.RESOLVE_EXCEEDED:
            raise attempts_exceeded(model.arq, i, k)
        raise _undelivered(i, k)
    latency_sum, blocking_sum, last = launch.sums()
    stats = RoundStats(
        packets=launch.size,
        latency_sum=latency_sum,
        blocking_sum=blocking_sum,
        last_delivery=last,
    )
    return LaunchResult(stats=stats, accepts=launch.accepts(),
                        attempts=launch.attempts)


def _resolve_python(
    network: NetworkBackend,
    model: ChannelModel,
    nodes: Sequence[int],
    offsets: Sequence[int],
    now: float,
    round_gap: float,
) -> LaunchResult:
    """:func:`resolve_launch` as a Python loop over ``network.transmit``.

    The ``n * total`` original sends never enter the heap: a cursor
    streams them in schedule order beside it.  Their schedule indices
    are the lowest tie-break counters (heap entries count on from
    ``n * total``), so an original goes first whenever its send time is
    at most the heap's earliest -- the order one heap of every event
    would give.

    Each round of originals is therefore one uninterrupted burst: its
    ``n`` sends share one send time ``t``, an original wins a tie with
    the heap, and no send pushes an event earlier than ``t`` (an arrival
    at ``t_deliver + delay``, a timeout at ``t_inject + detect_delay``,
    both at least ``t_inject >= t``).  So the whole round is reserved by
    one call of the backend's ``round_reserver(nodes)`` (one
    ``transmit`` per source), and its results are walked in source order
    -- fates, delays and pushes in the per-packet order.
    Retransmissions reserve through ``transmit`` one at a time.

    Under a protocol that accepts on send
    (:attr:`LaunchArq.accepts_on_send`: stop-and-wait, selective-repeat)
    a surviving attempt is accepted when it is sent, at its arrival
    time, and pushes no arrival event; a surviving original also skips
    its attempt count and first-injection record, which only a failed
    one needs.  Go-back-n keeps one arrival event per surviving
    attempt, because its receiver's verdict depends on arrival order.
    Either way every attempt draws one fate, and a survivor one delay
    (none when the sampler has no delay), in the same order.

    Latencies are summed flow by flow, each in arrival order,
    ``(t_arrive, counter)``, which is the order the arrival events would
    pop in: one log of ``(i, t_arrive, counter, latency)`` per accepted
    packet is sorted once at the end.  Float addition does not
    associate, so off the time grid another order moves the sum.
    """
    n = len(nodes)
    total = len(offsets)
    transmit = network.transmit
    reserve_round = network.round_reserver(nodes)
    arq = LaunchArq(model.arq, n, total, model.timeout, model.spacing)
    on_send = arq.accepts_on_send
    accepted = arq.accepted
    first_inject = arq.first_inject
    #: ``(i, t_arrive, counter, latency)`` of each accepted packet
    log: list[tuple[int, float, int, float]] = []
    sampler = model.sampler
    fate = sampler.fate
    delay = sampler.delay if sampler.has_delay else None
    heappush = heapq.heappush
    heappop = heapq.heappop
    blocking_sum = 0.0
    attempts = 0

    heap: list[tuple[float, int, int, int, int, float]] = []
    ctr = n * total
    # cursor over the original sends: round next_k, sent at next_t
    next_k = 0
    next_t = now

    while True:
        if next_k < total and (not heap or next_t <= heap[0][0]):
            # one round of originals: a burst nothing interleaves with
            k, t = next_k, next_t
            next_k += 1
            next_t = now + next_k * round_gap
            attempts += n
            timings = reserve_round(offsets[k], t)
            if on_send:
                for i, (t_inject, t_deliver, blocking) in enumerate(timings):
                    blocking_sum += blocking
                    ctr += 1
                    if fate():
                        ta = t_deliver + delay() if delay else t_deliver
                        accepted[i * total + k] = ta
                        log.append((i, ta, ctr, ta - t_inject))
                    else:
                        # only a failed original is read again: its
                        # attempt count (backoff) and first injection
                        j = i * total + k
                        arq.attempts[j] = 1
                        first_inject[j] = t_inject
                        heappush(
                            heap,
                            (t_inject + arq.detect_delay(i, k), ctr, _FAIL, i, k, 0.0),
                        )
                continue
            for i, (t_inject, t_deliver, blocking) in enumerate(timings):
                # counts the attempt; nothing accepts a packet before
                # its original is sent
                if not arq.should_send(i, k):
                    raise RuntimeError(f"(flow {i}, seq {k}) accepted before sent")
                first_inject[i * total + k] = t_inject
                blocking_sum += blocking
                ctr += 1
                if fate():
                    ta = t_deliver + delay() if delay else t_deliver
                    heappush(heap, (ta, ctr, _ARRIVE, i, k, t_inject))
                else:
                    heappush(
                        heap, (t_inject + arq.detect_delay(i, k), ctr, _FAIL, i, k, 0.0)
                    )
            continue
        if not heap:
            break
        t, c, kind, i, k, aux = heappop(heap)
        if kind == _SEND:  # a retransmission: k's original went first
            if not arq.should_send(i, k):
                continue
            attempts += 1
            t_inject, t_deliver, blocking = transmit(
                nodes[i], nodes[(i + offsets[k]) % n], t
            )
            blocking_sum += blocking
            ctr += 1
            if fate():
                ta = t_deliver + delay() if delay else t_deliver
                if on_send:
                    j = i * total + k
                    accepted[j] = ta
                    log.append((i, ta, ctr, ta - first_inject[j]))
                else:
                    heappush(heap, (ta, ctr, _ARRIVE, i, k, t_inject))
            else:
                heappush(
                    heap, (t_inject + arq.detect_delay(i, k), ctr, _FAIL, i, k, 0.0)
                )
        elif kind == _ARRIVE:  # go-back-n only
            j = i * total + k
            if arq.on_arrival(i, k, t):
                log.append((i, t, c, t - first_inject[j]))
                continue
            if accepted[j] != NOT_YET:
                continue  # a duplicate of an earlier accept
            # out-of-order discard: the sender finds out via its own
            # (cumulative-ack) timeout for this attempt
            td = aux + arq.detect_delay(i, k)
            ctr += 1
            heappush(heap, (td if td > t else t, ctr, _FAIL, i, k, 0.0))
        else:  # _FAIL
            for t_send, s in arq.on_failure(i, k, t):
                ctr += 1
                heappush(heap, (t_send, ctr, _SEND, i, s, 0.0))
            j = i * total + k
            if accepted[j] == NOT_YET and not arq.pending[j]:
                # still unrecovered but outside the current resend window
                # (go-back-n): the retransmission timer re-arms until the
                # window slides over it
                ctr += 1
                heappush(heap, (t + arq.detect_delay(i, k), ctr, _FAIL, i, k, 0.0))

    if not arq.done:
        raise _undelivered(*divmod(accepted.index(NOT_YET), total))
    log.sort()
    latency_sum = 0.0
    last = now
    for _, ta, _, latency in log:
        latency_sum += latency
        if ta > last:
            last = ta
    stats = RoundStats(
        packets=n * total,
        latency_sum=latency_sum,
        blocking_sum=blocking_sum,
        last_delivery=last,
    )
    return LaunchResult(stats=stats, accepts=accepted, attempts=attempts)


class ChannelledEventLaunch:
    """Per-launch ARQ driver over an event-driven backend (causal/sfb).

    Runs the same :class:`LaunchArq` as :func:`resolve_launch`, but the
    simulation engine is the event loop: fates are drawn in each
    packet's delivery callback, failures schedule sender-timeout events,
    and retransmissions go back through ``network.send`` at their
    planned times.  Unlike :func:`resolve_launch` it does not accept on
    send: every protocol's surviving attempt reaches
    :meth:`LaunchArq.on_arrival` at its arrival time (at once when there
    is no extra delay), and the job records each packet as it is
    accepted.
    """

    __slots__ = (
        "network", "engine", "model", "job", "nodes", "offsets",
        "on_complete", "arq", "blocking", "priority",
    )

    def __init__(
        self, network, engine, model: ChannelModel, job,
        nodes: Sequence[int], offsets: Sequence[int], now: float,
        round_gap: float, on_complete, priority,
    ) -> None:
        n = len(nodes)
        total = len(offsets)
        self.network = network
        self.engine = engine
        self.model = model
        self.job = job
        self.nodes = nodes
        self.offsets = list(offsets)
        self.on_complete = on_complete
        self.arq = LaunchArq(model.arq, n, total, model.timeout, model.spacing)
        self.blocking = [0.0] * (n * total)  #: stalls of all attempts, per packet
        job.pending_packets = n * total
        self.priority = priority
        for k in range(total):
            if k == 0:
                self._send_round(0)
            else:
                engine.schedule_at(
                    now + k * round_gap, self._send_round, k, priority=priority
                )

    def _send_round(self, k: int) -> None:
        for i in range(len(self.nodes)):
            self._send(i, k)

    def _send(self, i: int, k: int) -> None:
        if not self.arq.should_send(i, k):
            return
        nodes = self.nodes
        self.network.send(
            nodes[i],
            nodes[(i + self.offsets[k]) % len(nodes)],
            self.engine.now,
            lambda timing, i=i, k=k: self._delivered(i, k, timing),
        )

    def _delivered(self, i: int, k: int, timing: PathTiming) -> None:
        arq = self.arq
        j = i * arq.total + k
        if arq.first_inject[j] == NOT_YET:
            arq.first_inject[j] = timing.t_inject
        self.blocking[j] += timing.blocking
        sampler = self.model.sampler
        if sampler.fate():
            extra = sampler.delay()
            if extra > 0.0:
                self.engine.schedule_at(
                    timing.t_deliver + extra,
                    self._arrive, i, k, timing.t_inject,
                    priority=self.priority,
                )
            else:
                self._arrive(i, k, timing.t_inject)
        else:
            td = timing.t_inject + arq.detect_delay(i, k)
            now = self.engine.now
            self.engine.schedule_at(
                td if td > now else now,
                self._fail, i, k,
                priority=self.priority,
            )

    def _arrive(self, i: int, k: int, t_inject: float) -> None:
        arq = self.arq
        j = i * arq.total + k
        now = self.engine.now
        if arq.on_arrival(i, k, now):
            self.job.record_packet(now - arq.first_inject[j], self.blocking[j])
            self.job.pending_packets -= 1
            if self.job.pending_packets == 0:
                self.on_complete(self.job)
            return
        if arq.accepted[j] != NOT_YET:
            return  # duplicate
        td = t_inject + arq.detect_delay(i, k)
        if td > now:
            self.engine.schedule_at(td, self._fail, i, k, priority=self.priority)
        else:
            self._fail(i, k)

    def _fail(self, i: int, k: int) -> None:
        arq = self.arq
        now = self.engine.now
        for t_send, s in arq.on_failure(i, k, now):
            self.engine.schedule_at(
                t_send, self._send, i, s, priority=self.priority
            )
        j = i * arq.total + k
        if arq.accepted[j] == NOT_YET and not arq.pending[j]:
            # go-back-n: timer re-arms until the window covers this seq
            self.engine.schedule_at(
                now + arq.detect_delay(i, k), self._fail, i, k,
                priority=self.priority,
            )
