"""Equivalence gates for the lossy-channel layer.

Two tiers, per the channel layer's contract
(:mod:`repro.network.channel`):

* **Same seed -> bit-exact.**  Channel fates come from a dedicated RNG
  stream that is a pure function of the replication seed, so the same
  lossy point must produce *identical* metrics whether it runs under the
  reference engine or the SoA engine's per-seed fallback path, and
  whether the campaign dispatches it serially, on a thread pool or on a
  process pool.
* **Disjoint seeds -> statistically identical.**  Across seed sets the
  runs are distinct samples of one distribution; the
  :mod:`tests.statgate` harness (Welch verdicts at ``alpha=0.01``) must
  find no directional difference between implementations -- and *must*
  flag genuinely different physics (higher loss) to prove the gate has
  teeth.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.experiments.campaign import (
    Campaign,
    PointSpec,
    Scale,
    run_spec_batch,
    run_spec_replication,
)
from repro.experiments.store import ResultCache
from repro.network import _native
from repro.network.arq import ARQ_PROTOCOLS, LaunchArq
from repro.network.backend import make_backend
from repro.network.channel import ChannelModel, parse_channel, resolve_launch
from repro.network.topology import MeshTopology
from repro.stats.compare import MetricSummary
from tests.statgate import assert_statistically_identical, replicate
from tests.test_arq_properties import (
    ScriptedSampler,
    delay_scripts,
    fate_scripts,
)

LOSSY = SimConfig(
    width=8, length=8, jobs=40, seed=3,
    channel="loss:0.1 + delay:exp:0.05", arq="selective-repeat",
)
EQ_SCALE = Scale("chan-eq", jobs=40, min_replications=2,
                 max_replications=2, trace_max_jobs=200)


def lossy_spec(config: SimConfig = LOSSY, **config_over) -> PointSpec:
    if config_over:
        config = config.with_(**config_over)
    return PointSpec(
        workload="uniform", load=0.02, alloc="GABL", sched="FCFS",
        scale=EQ_SCALE, config=config,
    )


class TestSameSeedBitExact:
    @pytest.mark.parametrize(
        "arq", ["stop-and-wait", "go-back-n", "selective-repeat"]
    )
    def test_reference_vs_soa_fallback(self, arq):
        """The SoA engine falls back to per-seed reference runs when a
        channel is active; the fallback must be bit-identical, per seed,
        to the plain reference engine under every ARQ protocol."""
        seeds = (3, 4, 5)
        ref = [
            run_spec_replication(lossy_spec(arq=arq), s) for s in seeds
        ]
        soa = run_spec_batch(lossy_spec(arq=arq, engine="soa"), seeds)
        assert ref == soa

    @pytest.mark.parametrize("executor_kind", ["thread", "process"])
    def test_executors_agree_with_serial(self, executor_kind, tmp_path):
        """One lossy campaign, three dispatch strategies, identical
        results: replication seeds and channel fates are pure functions
        of the spec, never of the worker that runs them."""
        def run(kind: str, jobs: int):
            campaign = Campaign(
                [lossy_spec(), lossy_spec(arq="go-back-n")]
            )
            results = campaign.run(
                jobs=jobs, executor_kind=kind,
                cache=ResultCache(tmp_path / kind),
            )
            return {spec.key(): dict(result)
                    for spec, result in results.items()}

        serial = run("serial", 1)
        other = run(executor_kind, 2)
        assert serial == other


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _resolve_launches(mode: str, channel: str, arq: str) -> list:
    """Three channelled all-to-all launches over one ``mode`` backend and
    one channel model, each result (stats, acceptance times, attempts)
    with every float as its IEEE-754 bytes, then the sampler's state."""
    # an inexact router delay, so every sum rounds; back-to-back rounds,
    # so packets contend for channels
    backend = make_backend(mode, MeshTopology(8, 8), Engine(), t_s=0.3,
                           p_len=8)
    gap = 8.0
    model = ChannelModel(parse_channel(channel), arq, seed=11, p_len=8,
                         round_gap=gap)
    out = []
    for nodes, now in (([5, 17, 3, 40, 22, 63, 0, 9], 0.0),
                       ([12, 13, 14, 15, 20, 21], 30.7),
                       ([63, 0, 7, 56], 31.3)):
        offsets = list(range(1, len(nodes)))
        result = resolve_launch(backend, model, nodes, offsets, now, gap)
        stats = result.stats
        out.append((
            stats.packets, _bits(stats.latency_sum),
            _bits(stats.blocking_sum), _bits(stats.last_delivery),
            [_bits(t) for t in result.accepts],
            result.attempts,
        ))
    sampler = model.sampler
    out.append((sampler.rng.bit_generator.state, sampler._pos,
                [_bits(f) for f in backend.free_at], backend.packets_sent))
    return out


@pytest.mark.parametrize("arq", ARQ_PROTOCOLS)
@pytest.mark.parametrize("channel", [
    "loss:0.2", "corrupt:0.2", "loss:0.1 + delay:exp:3",
    "corrupt:0.2 + delay:uniform:0.5:3", "loss:0.1 + delay:fixed:2.5",
])
def test_resolve_launch_batch_kernel_equals_fast(channel, arq, resolver_calls):
    """``resolve_launch`` over ``batch`` (the compiled resolver) equals
    ``resolve_launch`` over ``fast`` (the Python loop, one ``transmit``
    per attempt) bit for bit, and leaves the channel sampler in the same
    state: the same fates in the same order."""
    if _native.load_kernel() is None:
        pytest.skip("no compiled reservation kernel")
    fast = _resolve_launches("fast", channel, arq)
    assert all(attempts > packets for packets, *_, attempts in fast[:-1])
    assert resolver_calls.take()[0] == 0
    assert _resolve_launches("batch", channel, arq) == fast
    kernel_calls, transmits = resolver_calls.take()
    assert kernel_calls >= 3 and transmits == 0


def test_resolve_launch_batch_without_kernel_runs_python(
    resolver_calls, monkeypatch
):
    """Under ``REPRO_NATIVE=0`` a ``batch`` backend has no kernel, and
    its lossy launches run the Python loop over ``transmit``."""
    kernel = _native.load_kernel()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    _native.reset_kernel_cache()
    try:
        result = _resolve_launches("batch", "loss:0.2", "go-back-n")
    finally:
        monkeypatch.delenv("REPRO_NATIVE")
        _native.reset_kernel_cache()
    kernel_calls, transmits = resolver_calls.take()
    assert kernel_calls == 0
    assert transmits == sum(attempts for *_, attempts in result[:-1])
    if kernel is not None:
        assert result == _resolve_launches("batch", "loss:0.2", "go-back-n")


@pytest.mark.parametrize("arq", ARQ_PROTOCOLS)
def test_attempt_cap_raises_alike(arq):
    """A channel that fails every attempt drives a packet to
    ``MAX_ATTEMPTS``: both resolvers raise one error naming the same
    packet, after the same transmissions and the same draws."""
    seen = []
    for mode in ("fast", "batch"):
        backend = make_backend(mode, MeshTopology(4, 4), Engine())
        model = ChannelModel(parse_channel("loss:0.5"), arq, seed=5,
                             p_len=8, round_gap=8.0)
        model.sampler._failure = 1.0
        with pytest.raises(RuntimeError, match="exceeded") as error:
            resolve_launch(backend, model, [0, 5], [1], 0.0, 8.0)
        sampler = model.sampler
        seen.append((str(error.value), backend.packets_sent, sampler._pos,
                     sampler.rng.bit_generator.state))
    assert "(flow 0, seq 0)" in seen[0][0]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("arq", ARQ_PROTOCOLS)
def test_undelivered_code_raises_like_python(arq, monkeypatch):
    """The compiled resolver reports a launch that drained with a packet
    unaccepted as an error code naming the packet; ``resolve_launch``
    raises it as the Python loop raises its own."""
    def never_resend(state, i, k, t_detect):
        state.pending[i * state.total + k] = 1
        return []

    monkeypatch.setattr(LaunchArq, "on_failure", never_resend)
    model = ChannelModel(parse_channel("loss:0.5"), arq, seed=0, p_len=8,
                         round_gap=8.0)
    model.sampler = ScriptedSampler([True, False])
    with pytest.raises(RuntimeError) as python:
        resolve_launch(make_backend("fast", MeshTopology(4, 4), Engine()),
                       model, [0, 5], [1, 1, 1], 0.0, 8.0)

    def drained(launch, outcomes):
        launch.ints[_native.RESOLVE_INTS.index("err")] = 3  # (flow 1, seq 0)
        return _native.RESOLVE_UNDELIVERED

    monkeypatch.setattr(_native.LaunchResolve, "run", drained)
    backend = make_backend("batch", MeshTopology(4, 4), Engine())
    if backend.kernel is None:
        pytest.skip("no compiled reservation kernel")
    with pytest.raises(RuntimeError) as compiled:
        resolve_launch(backend, model, [0, 5], [1, 1, 1], 0.0, 8.0)
    assert str(compiled.value) == str(python.value)
    assert "(flow 1, seq 0) undelivered" in str(python.value)


def tenths(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda v: v / 10)


@st.composite
def channelled_launches(draw):
    """A mesh or torus of 1..9 x 1..9, a channel sampler -- a real policy
    or fate and delay scripts -- and a few launches sharing the mesh's
    reservation table: node lists repeat a shuffled subset up to three
    times, and offsets (none, for an empty launch) have any sign or size
    but never name the sender itself."""
    width = draw(st.integers(1, 9))
    length = draw(st.integers(1 if width > 1 else 2, 9))
    topo = MeshTopology(width, length, wrap=draw(st.booleans()))
    node_id = st.integers(0, topo.node_count - 1)
    launches = []
    now = 0.0
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.lists(node_id, min_size=2, max_size=6, unique=True))
        nodes = base * draw(st.integers(1, 3))
        m = len(base)
        # q * m + r with 0 < r < m: any sign, up to about 2**61
        offsets = draw(st.lists(
            st.builds(lambda q, r: q * m + r,
                      st.integers(-(2**58), 2**58), st.integers(1, m - 1)),
            min_size=0, max_size=4))
        now += draw(tenths(0, 400))
        launches.append((nodes, offsets, now))
    scripted = draw(st.booleans())
    if scripted:
        channel = (draw(fate_scripts), draw(delay_scripts))
    else:
        terms = [f"{draw(st.sampled_from(['loss', 'corrupt']))}:"
                 f"{draw(st.sampled_from([0.05, 0.2, 0.45]))}"]
        terms += draw(st.sampled_from(
            [[], ["delay:exp:2"], ["delay:fixed:1.5"],
             ["delay:uniform:0.5:3"]]))
        channel = "+".join(terms)
    return (topo, draw(tenths(0, 60)), draw(st.integers(1, 24)),
            draw(tenths(1, 200)), draw(st.sampled_from(ARQ_PROTOCOLS)),
            channel, launches)


def _resolve_case(mode: str, case) -> list:
    """Run a :func:`channelled_launches` case over one ``mode`` backend:
    each launch's stats, accepts and attempts with every float as its
    bytes, then the table, the packet count and the sampler's state."""
    topo, t_s, p_len, gap, arq, channel, launches = case
    backend = make_backend(mode, topo, Engine(), t_s=t_s, p_len=p_len)
    spec = "loss:0.5" if isinstance(channel, tuple) else channel
    model = ChannelModel(parse_channel(spec), arq, seed=7, p_len=p_len,
                         round_gap=gap)
    if isinstance(channel, tuple):
        model.sampler = ScriptedSampler(*channel)
    out = []
    for nodes, offsets, now in launches:
        result = resolve_launch(backend, model, nodes, offsets, now, gap)
        stats = result.stats
        out.append((
            stats.packets, _bits(stats.latency_sum),
            _bits(stats.blocking_sum), _bits(stats.last_delivery),
            [_bits(t) for t in result.accepts], result.attempts,
        ))
    sampler = model.sampler
    if isinstance(sampler, ScriptedSampler):
        state = (sampler._fates, sampler._delays)
    else:
        state = (sampler.rng.bit_generator.state, sampler._pos)
    out.append(([_bits(f) for f in backend.free_at], backend.packets_sent,
                state))
    return out


@settings(max_examples=150, deadline=None)
@given(channelled_launches())
def test_compiled_resolve_equals_python(case):
    """The compiled resolver (``batch`` with a kernel) equals the Python
    loop (``fast``) bit for bit on generated meshes, tori, node lists
    with repeats, offsets of any sign, all three protocols and both real
    and scripted channels: every statistic, acceptance time, attempt
    count and reservation, and the sampler left in the same state.  A
    scripted sampler works because C draws nothing itself."""
    if _native.load_kernel() is None:
        pytest.skip("no compiled reservation kernel")
    assert _resolve_case("batch", case) == _resolve_case("fast", case)


@pytest.mark.parametrize("arq", ["stop-and-wait", "selective-repeat"])
@pytest.mark.parametrize("channel", [
    "loss:0.2", "loss:0.1 + delay:exp:3", "corrupt:0.2 + delay:uniform:0.5:3",
    "loss:0.1 + delay:fixed:2.5",
])
def test_accept_on_send_equals_arrival_events(channel, arq):
    """The compiled resolver accepts a surviving attempt of these
    protocols when it is sent; the Python loop waits for one arrival
    event per surviving attempt.  Both give, bit for bit, the same fates
    and delays in the same order, the same reservations, the same
    acceptance times and the same latency sum, summed in arrival order."""
    if _native.load_kernel() is None:
        pytest.skip("no compiled reservation kernel")
    events = _resolve_launches("fast", channel, arq)
    assert all(attempts > packets for packets, *_, attempts in events[:-1])
    assert _resolve_launches("batch", channel, arq) == events


class TestDisjointSeedStatistics:
    def test_reference_vs_soa_fallback_statistically(self):
        """Fed *disjoint* seed sets, the two engines are independent
        samples of the same lossy model: the statistical gate must pass
        at alpha=0.01 on every campaign metric."""
        a = replicate(
            lambda seed: run_spec_replication(lossy_spec(), seed),
            seeds=range(100, 108),
        )
        b = replicate(
            lambda seed: run_spec_replication(lossy_spec(engine="soa"), seed),
            seeds=range(200, 208),
        )
        assert_statistically_identical(a, b, alpha=0.01)

    def test_gate_flags_different_loss_rates(self):
        """The gate is not vacuous: raising the loss rate changes the
        physics (more retransmissions, longer turnarounds) and must be
        flagged as a directional difference."""
        a = replicate(
            lambda seed: run_spec_replication(
                lossy_spec(channel="loss:0.02", arq="selective-repeat"), seed
            ),
            seeds=range(100, 106),
        )
        b = replicate(
            lambda seed: run_spec_replication(
                lossy_spec(channel="loss:0.35", arq="stop-and-wait"), seed
            ),
            seeds=range(200, 206),
        )
        with pytest.raises(AssertionError, match="statistically distinct"):
            assert_statistically_identical(a, b, alpha=0.01)


class TestStatgateHarness:
    """Unit coverage of the gate itself on synthetic summaries."""

    @staticmethod
    def summary(values):
        return {"m": MetricSummary.from_values(values)}

    def test_identical_summaries_pass(self):
        a = self.summary([1.0, 1.1, 0.9, 1.05])
        assert_statistically_identical(a, dict(a))

    def test_noise_within_alpha_passes(self):
        a = self.summary([10.0, 10.2, 9.8, 10.1, 9.9])
        b = self.summary([10.1, 9.9, 10.05, 10.0, 9.95])
        comparisons = assert_statistically_identical(a, b, alpha=0.01)
        assert [c.metric for c in comparisons] == ["m"]

    def test_clear_shift_fails(self):
        a = self.summary([10.0, 10.2, 9.8, 10.1, 9.9])
        b = self.summary([20.0, 20.2, 19.8, 20.1, 19.9])
        with pytest.raises(AssertionError, match="statistically distinct"):
            assert_statistically_identical(a, b, alpha=0.01)

    def test_rel_tol_dead_band(self):
        a = self.summary([100.0, 100.0, 100.0])
        b = self.summary([100.5, 100.5, 100.5])
        with pytest.raises(AssertionError):
            assert_statistically_identical(a, b)
        assert_statistically_identical(a, b, rel_tol=0.01)

    def test_metric_mismatch_is_an_error(self):
        a = self.summary([1.0, 2.0])
        with pytest.raises(ValueError, match="absent"):
            assert_statistically_identical(a, {})

    def test_replicate_requires_stable_metric_set(self):
        outputs = iter([{"m": 1.0}, {"other": 2.0}])
        with pytest.raises(ValueError, match="reported metrics"):
            replicate(lambda seed: next(outputs), seeds=[0, 1])

    def test_replicate_needs_seeds(self):
        with pytest.raises(ValueError, match="at least one seed"):
            replicate(lambda seed: {"m": 0.0}, seeds=[])
