"""Property-based tests (hypothesis) of the ARQ protocols.

:class:`~repro.network.arq.LaunchArq` is a pure state machine and
:func:`~repro.network.channel.resolve_launch` is a pure function of its
synchronous network and fate/delay sampler, so both are testable with a
*stub* transport (fixed latency, no contention) and *scripted* channel
fates -- hypothesis explores arbitrary drop/delay patterns and the
invariants must hold for every one of them:

* every packet is delivered exactly once per flow, whatever the drop
  pattern (all three protocols);
* go-back-n acceptance is in sequence order (the receiver has no
  reorder buffer);
* no drop pattern finishes *earlier* than the lossless run (originals
  follow the fixed round schedule, so failures only ever add work);
* on a perfect channel the protocols never act: all three produce
  identical delivery schedules, attempt-for-attempt;
* stop-and-wait and selective-repeat accepted when a surviving attempt
  is sent (the compiled resolver) give the same results as accepted at
  its arrival event (the Python loop), on a contended mesh;
* stop-and-wait throughput is monotone non-increasing in the loss rate
  (seed-averaged, on the real channel sampler);
* a launch that drains with a packet undelivered raises instead of
  returning a short latency sum.

:class:`~repro.network.channel.ChannelledEventLaunch`, the driver of the
event-driven backends, runs on a real :class:`~repro.core.engine.Engine`
over a stub transport that delivers each send ``STUB_LATENCY`` later:
under any drop/delay script it records every packet on the job exactly
once, go-back-n accepts in sequence order, and the launch completes.

A go-back-n receiver whose window never slides over a lost packet
(:func:`skipping_receiver`) re-arms its timer with no send; every
resolver, the compiled one included, stops it at the idle re-arm cap
without any test budget (:class:`TestIdleRearmCap`).

Every scripted launch runs under a :class:`LaunchBudget`: both stub
transports charge it per send, and each sender timer armed (a
:meth:`LaunchArq.detect_delay` call) is charged too, so a protocol that
livelocks -- resending for ever, or re-arming a timer whose window never
covers the lost packet -- fails its example within a few thousand steps
instead of hanging the suite.
"""

import math
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Engine
from repro.core.events import Priority
from repro import _toolchain
from repro.network.arq import (
    ARQ_PROTOCOLS,
    DEFAULT_WINDOW,
    GO_BACK_N,
    MAX_ATTEMPTS,
    NOT_YET,
    LaunchArq,
)
from repro.network import _native
from repro.network.backend import PathTiming, make_backend
from repro.network.channel import (
    ChannelledEventLaunch,
    ChannelModel,
    parse_channel,
    resolve_launch,
)
from repro.network.topology import MeshTopology

ROUND_GAP = 16.0
STUB_LATENCY = 4.0


class LaunchBudget:
    """Sends and armed sender timers a correct protocol stays under, for
    ``n`` flows of ``total`` packets and ``script`` scripted fates and
    delays: two go-back-n windows per original or scripted event.
    Searches with hypothesis ``target`` that maximised the steps (20 000
    examples, up to 12 packets a flow) reached under a quarter of it;
    one step past it fails the example as a livelock."""

    def __init__(self, n, total, script=0):
        self.limit = 2 * (n * total + script) * DEFAULT_WINDOW
        self.steps = 0

    def spend(self):
        self.steps += 1
        if self.steps > self.limit:
            raise AssertionError(
                f"more than {self.limit} sends and timer arms: "
                f"the ARQ protocol livelocks"
            )

    @contextmanager
    def timers(self):
        """Charge every sender timer armed inside the block."""
        detect_delay = LaunchArq.detect_delay

        def charged(arq, i, k):
            self.spend()
            return detect_delay(arq, i, k)

        with mock.patch.object(LaunchArq, "detect_delay", charged):
            yield


class StubNetwork:
    """Contention-free transport: inject immediately, fixed latency."""

    def __init__(self, budget):
        self.budget = budget

    def transmit(self, src, dst, now):
        self.budget.spend()
        return PathTiming(t_inject=now, t_deliver=now + STUB_LATENCY,
                          blocking=0.0)


class StubEventNetwork:
    """Contention-free event-driven transport: each send is delivered
    ``STUB_LATENCY`` after it is sent, through the engine."""

    synchronous = False

    def __init__(self, engine, budget):
        self.engine = engine
        self.budget = budget

    def send(self, src, dst, now, callback):
        self.budget.spend()
        timing = PathTiming(t_inject=now, t_deliver=now + STUB_LATENCY,
                            blocking=0.0)
        self.engine.schedule_at(timing.t_deliver, callback, timing,
                                priority=Priority.NETWORK)


class RecordingJob:
    """The job side of an event-driven launch: logs when each packet is
    recorded."""

    def __init__(self, engine):
        self.engine = engine
        self.pending_packets = 0
        self.record_times = []

    def record_packet(self, latency, blocking):
        assert latency >= STUB_LATENCY
        self.record_times.append(self.engine.now)


class ScriptedSampler:
    """Channel sampler whose fates/delays follow explicit scripts.

    Once a script is exhausted the channel turns perfect (every attempt
    succeeds, zero extra delay), which bounds every run: any finite drop
    pattern terminates.
    """

    #: the scripted delays must be drawn whatever the model's policy
    has_delay = True

    def __init__(self, fates=(), delays=()):
        self._fates = list(fates)
        self._delays = list(delays)

    def fate(self):
        return self._fates.pop(0) if self._fates else True

    def delay(self):
        return self._delays.pop(0) if self._delays else 0.0


def scripted_model(protocol, fates=(), delays=()):
    model = ChannelModel(
        parse_channel("loss:0.5"), protocol, seed=0, p_len=16,
        round_gap=ROUND_GAP,
    )
    model.sampler = ScriptedSampler(fates, delays)
    return model


def launch(protocol, n, total, fates=(), delays=()):
    budget = LaunchBudget(n, total, len(fates) + len(delays))
    with budget.timers():
        return resolve_launch(
            StubNetwork(budget), scripted_model(protocol, fates, delays),
            nodes=list(range(n)), offsets=[1] * total, now=0.0,
            round_gap=ROUND_GAP,
        )


def event_launch(protocol, n, total, fates=(), delays=()):
    """Run one :class:`ChannelledEventLaunch` to completion; return it,
    its job and the jobs its completion callback received."""
    engine = Engine()
    job = RecordingJob(engine)
    completed = []
    budget = LaunchBudget(n, total, len(fates) + len(delays))
    with budget.timers():
        driver = ChannelledEventLaunch(
            StubEventNetwork(engine, budget), engine,
            scripted_model(protocol, fates, delays), job, list(range(n)),
            [1] * total, 0.0, ROUND_GAP, completed.append, Priority.NETWORK,
        )
        engine.run()
    return driver, job, completed


protocols = st.sampled_from(ARQ_PROTOCOLS)
fate_scripts = st.lists(st.booleans(), max_size=64)
delay_scripts = st.lists(
    st.integers(min_value=0, max_value=512).map(lambda v: v / 8.0),
    max_size=48,
)


class TestDeliveryInvariants:
    @given(protocol=protocols, n=st.integers(1, 4), total=st.integers(1, 6),
           fates=fate_scripts, delays=delay_scripts)
    @settings(max_examples=120, deadline=None)
    def test_exactly_once_under_any_pattern(
        self, protocol, n, total, fates, delays
    ):
        result = launch(protocol, n, total, fates, delays)
        assert result.stats.packets == n * total
        assert len(result.accepts) == n * total
        assert NOT_YET not in result.accepts
        # attempts cover at least one physical send per packet, and a
        # resend for (at least) every scripted drop that was consumed
        assert result.attempts >= n * total

    @given(n=st.integers(1, 3), total=st.integers(2, 6),
           fates=fate_scripts, delays=delay_scripts)
    @settings(max_examples=120, deadline=None)
    def test_go_back_n_accepts_in_order(self, n, total, fates, delays):
        result = launch("go-back-n", n, total, fates, delays)
        for i in range(n):
            times = result.accepts[i * total:(i + 1) * total]
            assert all(a <= b for a, b in zip(times, times[1:]))

    @given(protocol=protocols, n=st.integers(1, 3), total=st.integers(1, 5),
           fates=fate_scripts)
    @settings(max_examples=120, deadline=None)
    def test_losses_never_finish_earlier(self, protocol, n, total, fates):
        """Originals follow the fixed round schedule, so a drop pattern
        can only add retransmissions -- the last delivery of any lossy
        run is at or after the lossless one's."""
        lossless = launch(protocol, n, total)
        lossy = launch(protocol, n, total, fates)
        assert lossy.stats.last_delivery >= lossless.stats.last_delivery
        assert lossy.attempts >= lossless.attempts

    @given(n=st.integers(1, 4), total=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_perfect_channel_is_protocol_invariant(self, n, total):
        """On a perfect, delay-free channel no protocol ever acts:
        identical accept schedules and exactly one attempt per packet,
        for all three protocols."""
        results = [launch(p, n, total) for p in ARQ_PROTOCOLS]
        baseline = results[0]
        assert baseline.attempts == n * total
        for other in results[1:]:
            assert other.accepts == baseline.accepts
            assert other.attempts == baseline.attempts
            assert other.stats == baseline.stats

    @given(n=st.integers(1, 3), total=st.integers(1, 6),
           delays=delay_scripts)
    @settings(max_examples=80, deadline=None)
    def test_lossless_delays_keep_saw_and_sr_identical(
        self, n, total, delays
    ):
        """Channel delays can reorder deliveries without any loss.
        Neither stop-and-wait nor selective-repeat discards out-of-order
        arrivals, so they stay schedule-identical; go-back-n may act
        (its receiver drops reordered packets), which is exactly why it
        is excluded here."""
        saw = launch("stop-and-wait", n, total, fates=(), delays=list(delays))
        sr = launch(
            "selective-repeat", n, total, fates=(), delays=list(delays)
        )
        assert saw.accepts == sr.accepts
        assert saw.attempts == sr.attempts == n * total
        assert saw.stats == sr.stats

    @given(protocol=st.sampled_from(["stop-and-wait", "selective-repeat"]),
           n=st.integers(2, 4), total=st.integers(1, 6),
           fates=fate_scripts, delays=delay_scripts)
    @settings(max_examples=120, deadline=None)
    def test_accept_on_send_equals_arrival_events(
        self, protocol, n, total, fates, delays
    ):
        """The compiled resolver accepts a surviving attempt of these
        protocols when it is sent; the Python loop accepts it at its
        arrival event.  Over one contended 2 x 2 mesh ring, the two agree
        on every acceptance, attempt and statistic."""
        if _native.load_kernel() is None:
            pytest.skip("no compiled reservation kernel")

        def run(mode):
            backend = make_backend(mode, MeshTopology(2, 2), Engine(),
                                   t_s=0.3, p_len=16)
            return resolve_launch(
                backend, scripted_model(protocol, fates, delays),
                nodes=list(range(n)), offsets=[1] * total, now=0.0,
                round_gap=ROUND_GAP,
            )

        on_send, events = run("batch"), run("fast")
        assert on_send.accepts == events.accepts
        assert on_send.attempts == events.attempts
        assert on_send.stats == events.stats

    @pytest.mark.parametrize("protocol", ARQ_PROTOCOLS)
    def test_undelivered_packet_raises(self, protocol, monkeypatch):
        """A protocol that marks a failed packet pending but never
        resends it leaves the launch to drain with that packet
        undelivered: the resolver names it instead of returning a
        latency sum short of it."""
        def never_resend(arq, i, k, t_detect):
            arq.pending[i * arq.total + k] = 1
            return []

        monkeypatch.setattr(LaunchArq, "on_failure", never_resend)
        with pytest.raises(RuntimeError, match=r"\(flow 1, seq 0\) undelivered"):
            launch(protocol, n=2, total=3, fates=[True, False])


class TestEventLaunchInvariants:
    @given(protocol=protocols, n=st.integers(1, 4), total=st.integers(1, 6),
           fates=fate_scripts, delays=delay_scripts)
    @settings(max_examples=120, deadline=None)
    def test_every_packet_recorded_once(
        self, protocol, n, total, fates, delays
    ):
        driver, job, completed = event_launch(
            protocol, n, total, fates, delays
        )
        accepted = driver.arq.accepted
        assert NOT_YET not in accepted
        # one record per accepted packet, made when it was accepted
        assert sorted(job.record_times) == sorted(accepted)
        assert job.pending_packets == 0
        assert completed == [job]

    @given(n=st.integers(1, 3), total=st.integers(2, 6),
           fates=fate_scripts, delays=delay_scripts)
    @settings(max_examples=120, deadline=None)
    def test_go_back_n_accepts_in_order(self, n, total, fates, delays):
        driver, _, completed = event_launch("go-back-n", n, total, fates,
                                            delays)
        assert len(completed) == 1
        accepted = driver.arq.accepted
        for i in range(n):
            times = accepted[i * total:(i + 1) * total]
            assert all(a <= b for a, b in zip(times, times[1:]))


class TestStopAndWaitThroughput:
    def test_monotone_non_increasing_in_loss(self):
        """Seed-averaged makespan grows (throughput falls) as the loss
        rate rises, on the real channel sampler."""
        n, total, seeds = 3, 5, range(12)

        def mean_makespan(loss: float) -> float:
            spans = []
            for seed in seeds:
                model = ChannelModel(
                    parse_channel(f"loss:{loss}"), "stop-and-wait",
                    seed=seed, p_len=16, round_gap=ROUND_GAP,
                )
                result = resolve_launch(
                    StubNetwork(LaunchBudget(n, total)), model,
                    nodes=list(range(n)),
                    offsets=[1] * total, now=0.0, round_gap=ROUND_GAP,
                )
                spans.append(result.stats.last_delivery)
            return sum(spans) / len(spans)

        makespans = [mean_makespan(p) for p in (0.0, 0.15, 0.35, 0.6)]
        assert all(a <= b for a, b in zip(makespans, makespans[1:]))
        assert makespans[0] < makespans[-1]


class TestLaunchArqStateMachine:
    @given(protocol=protocols, seq=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_arrival_rejected(self, protocol, seq):
        arq = LaunchArq(protocol, n=1, total=8, timeout=32.0, spacing=16.0)
        if protocol == "go-back-n":
            for s in range(seq + 1):
                assert arq.on_arrival(0, s, float(s))
        else:
            assert arq.on_arrival(0, seq, 1.0)
        t_first = arq.accepted[seq]
        assert not arq.on_arrival(0, seq, t_first + 99.0)
        assert arq.accepted[seq] == t_first

    def test_go_back_n_discards_out_of_order(self):
        arq = LaunchArq("go-back-n", n=1, total=3, timeout=32.0, spacing=16.0)
        assert not arq.on_arrival(0, 2, 1.0)  # ahead of the cursor: dropped
        assert arq.on_arrival(0, 0, 2.0)
        assert arq.on_arrival(0, 1, 3.0)
        assert arq.on_arrival(0, 2, 4.0)  # cursor caught up
        assert arq.done

    def test_go_back_n_resends_only_sent_seqs(self):
        """A go-back-n wave covers the window from the cursor, but only
        the seqs actually sent so far -- never one still unsent."""
        arq = LaunchArq("go-back-n", n=1, total=8, timeout=32.0, spacing=16.0)
        for seq in range(3):
            assert arq.should_send(0, seq)
        resends = arq.on_failure(0, 0, 100.0)
        assert resends == [(100.0, 0), (116.0, 1), (132.0, 2)]

    def test_send_suppressed_after_accept(self):
        arq = LaunchArq("selective-repeat", n=1, total=2, timeout=32.0,
                        spacing=16.0)
        assert arq.should_send(0, 0)
        assert arq.on_arrival(0, 0, 5.0)
        assert not arq.should_send(0, 0)

    def test_stop_and_wait_paces_resends(self):
        arq = LaunchArq("stop-and-wait", n=1, total=4, timeout=32.0,
                        spacing=16.0)
        for seq in range(4):
            arq.should_send(0, seq)
        sends = [arq.on_failure(0, seq, 100.0)[0][0] for seq in range(4)]
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert all(g >= arq.timeout for g in gaps)

    def test_backoff_doubles_and_caps(self):
        arq = LaunchArq("selective-repeat", n=1, total=1, timeout=8.0,
                        spacing=16.0)
        delays = []
        for _ in range(14):
            arq.should_send(0, 0)
            arq.pending[0] = 0
            delays.append(arq.detect_delay(0, 0))
        assert delays[0] == 8.0
        assert delays[1] == 16.0
        assert delays[-1] == delays[-2]  # capped

    def test_attempt_cap_raises(self):
        arq = LaunchArq("selective-repeat", n=1, total=1, timeout=1.0,
                        spacing=1.0)
        try:
            for _ in range(MAX_ATTEMPTS + 1):
                arq.should_send(0, 0)
                arq.pending[0] = 0
        except RuntimeError as exc:
            assert "exceeded" in str(exc)
        else:
            raise AssertionError("MAX_ATTEMPTS cap never tripped")


def skipping_receiver(arq, i, k, t_arrive):
    """A broken go-back-n receiver: it rejects only ``k < expected``, so
    a packet past a lost one jumps the cursor over it and the resend
    window never covers the lost packet again."""
    j = i * arq.total + k
    if arq.accepted[j] != NOT_YET:
        return False
    if arq.kind == GO_BACK_N:
        if k < arq.expected[i]:
            return False
        arq.expected[i] = k + 1
    arq.accepted[j] = t_arrive
    return True


#: the C resolver with :func:`skipping_receiver`'s receiver
SKIPPING_SOURCE = _native._SOURCE.replace(
    """            if (j - i * total == expected[i]) {
                expected[i]++;""",
    """            if (j - i * total >= expected[i]) {
                expected[i] = j - i * total + 1;""",
)


class TestIdleRearmCap:
    """A launch whose go-back-n window never slides over a lost packet
    re-arms that packet's timer for ever with no send.  The program
    itself stops it (no :class:`LaunchBudget` here): one flow of three
    packets whose first fate is a loss."""

    #: the stubs charge a budget; this one never runs out
    UNBOUNDED = LaunchBudget(0, 0)
    UNBOUNDED.limit = math.inf

    @pytest.fixture(autouse=True)
    def skipping(self, monkeypatch):
        monkeypatch.setattr(LaunchArq, "on_arrival", skipping_receiver)

    def test_python_resolver_raises(self):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"\(flow 0, seq 0\).*re-arm"):
            resolve_launch(
                StubNetwork(self.UNBOUNDED), scripted_model("go-back-n", [False]),
                nodes=[0], offsets=[1, 1, 1], now=0.0, round_gap=ROUND_GAP,
            )
        assert time.perf_counter() - t0 < 1.0

    def test_event_launch_raises(self):
        engine = Engine()
        job = RecordingJob(engine)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"\(flow 0, seq 0\).*re-arm"):
            ChannelledEventLaunch(
                StubEventNetwork(engine, self.UNBOUNDED), engine,
                scripted_model("go-back-n", [False]), job, [0], [1, 1, 1],
                0.0, ROUND_GAP, lambda job: None, Priority.NETWORK,
            )
            engine.run()
        assert time.perf_counter() - t0 < 1.0

    def test_compiled_resolver_raises_like_python(self):
        """The same receiver compiled into the C resolver stops at the
        same re-arm, after the same transmissions."""
        backend = make_backend("batch", MeshTopology(4, 4), Engine())
        if backend.kernel is None:
            pytest.skip("the network kernel is not available")
        kernel = _toolchain.build("reserve-skipping", SKIPPING_SOURCE)
        assert kernel is not None
        kernel.resolve_launch.restype = backend.kernel.resolve_launch.restype
        kernel.resolve_launch.argtypes = backend.kernel.resolve_launch.argtypes
        seen = []
        for kernel in (kernel, None):
            backend = make_backend("batch", MeshTopology(4, 4), Engine())
            backend.kernel = kernel
            with pytest.raises(RuntimeError, match="re-arm") as error:
                resolve_launch(backend, scripted_model("go-back-n", [False]),
                               [0, 5], [1, 1, 1], 0.0, ROUND_GAP)
            seen.append((str(error.value), backend.packets_sent))
        assert seen[0] == seen[1]
