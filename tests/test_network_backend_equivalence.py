"""The ``batch`` backend must be bit-identical to the ``fast`` reference.

The acceptance bar for the vectorised transport backend: identical
``RunResult`` metrics -- exact float equality, not approximate -- across
stochastic and trace workloads, multiple seeds, multiple allocators,
mesh and torus, through both paths the backend can take (the compiled
kernel, and the inherited reference loop under ``REPRO_NATIVE=0``).
"""

import dataclasses

import numpy as np
import pytest

from repro.alloc import make_allocator
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.simulator import Simulator
from repro.experiments.campaign import Scale, make_workload
from repro.network import _native
from repro.network.backend import make_backend
from repro.network.batch import BatchBackend
from repro.network.routing import xy_route
from repro.network.topology import MeshTopology
from repro.network.traffic import destination_offsets
from repro.sched import make_scheduler

SMALL = SimConfig(width=8, length=8, jobs=40, seed=3)
TRACE_SCALE = Scale("eq", jobs=40, min_replications=1, max_replications=1,
                    trace_max_jobs=200)


def run_sim(config: SimConfig, mode: str, workload: str, seed: int,
            alloc: str = "GABL"):
    config = config.with_(network_mode=mode)
    sim = Simulator(
        config,
        make_allocator(alloc, config.width, config.length),
        make_scheduler("FCFS"),
        make_workload(workload, config, 0.02, TRACE_SCALE),
        seed=seed,
    )
    return sim.run()


def assert_identical(a, b) -> None:
    diffs = [
        f.name
        for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]
    assert not diffs, f"metrics differ: {diffs}"


class TestRunLevelEquivalence:
    @pytest.mark.parametrize("workload", ["uniform", "exponential", "real"])
    @pytest.mark.parametrize("seed", [3, 77])
    def test_batch_equals_fast(self, workload, seed):
        fast = run_sim(SMALL, "fast", workload, seed)
        batch = run_sim(SMALL, "batch", workload, seed)
        assert_identical(fast, batch)
        assert fast.packets_delivered > 0

    @pytest.mark.parametrize("alloc", ["MBS", "Paging(0)"])
    def test_batch_equals_fast_other_allocators(self, alloc):
        fast = run_sim(SMALL, "fast", "uniform", 11, alloc=alloc)
        batch = run_sim(SMALL, "batch", "uniform", 11, alloc=alloc)
        assert_identical(fast, batch)

    def test_batch_equals_fast_on_torus(self):
        cfg = SMALL.with_(topology="torus")
        assert_identical(
            run_sim(cfg, "fast", "uniform", 5),
            run_sim(cfg, "batch", "uniform", 5),
        )

    def test_paper_mesh_real_workload(self):
        cfg = SimConfig(jobs=60, seed=9)  # the paper's 16x22 machine
        assert_identical(
            run_sim(cfg, "fast", "real", 9),
            run_sim(cfg, "batch", "real", 9),
        )

    @pytest.mark.parametrize("native", [True, False])
    def test_non_dyadic_timing_constants(self, native, monkeypatch):
        """A t_s off the dyadic grid (0.3 is not exactly representable)
        must not break bit-identity: the kernel and the reference loop
        share the exact operation order."""
        if not native:
            monkeypatch.setenv("REPRO_NATIVE", "0")
            _native.reset_kernel_cache()
        try:
            cfg = SMALL.with_(t_s=0.3)
            assert_identical(
                run_sim(cfg, "fast", "uniform", 21),
                run_sim(cfg, "batch", "uniform", 21),
            )
        finally:
            if not native:
                _native.reset_kernel_cache()


def launch_pair(n: int, messages: int, seeds: int, solver: str,
                monkeypatch):
    """Drive fast and batch backends through identical launches and
    compare timings channel-for-channel via the reservation table."""
    topo = MeshTopology(8, 8)
    fast = make_backend("fast", topo, Engine())
    if solver == "native":
        batch = make_backend("batch", topo, Engine())
        if batch._kernel is None:
            pytest.skip("no C compiler available")
    else:
        # the real fallback: a backend built with the kernel disabled
        monkeypatch.setenv("REPRO_NATIVE", "0")
        _native.reset_kernel_cache()
        try:
            batch = make_backend("batch", topo, Engine())
        finally:
            monkeypatch.undo()
            _native.reset_kernel_cache()
        assert batch._kernel is None
    rng = np.random.default_rng(seeds)
    now = 0.0
    for _ in range(seeds % 3 + 2):
        base = int(rng.integers(0, 64 - n))
        nodes = list(range(base, base + n))
        offsets = destination_offsets(n, messages)
        now = float(rng.integers(0, 50))
        a = fast.inject_rounds(nodes, offsets, now, 16.0)
        b = batch.inject_rounds(nodes, offsets, now, 16.0)
        assert a == b  # packets, latency_sum, blocking_sum, last_delivery
    assert np.array_equal(np.asarray(fast.free_at), batch.free_at)
    assert fast.packets_sent == batch.packets_sent


class TestLaunchLevelEquivalence:
    """Both batch paths agree with the reference, channel-for-channel."""

    @pytest.mark.parametrize("solver", ["native", "python"])
    @pytest.mark.parametrize("n,messages", [(2, 1), (5, 3), (24, 7), (40, 12)])
    def test_engines_match_reference(self, solver, n, messages, monkeypatch):
        launch_pair(n, messages, seeds=n + messages, solver=solver,
                    monkeypatch=monkeypatch)


class TestKernelRouteWalk:
    """The compiled kernel walks its own XY routes; on every node pair
    it must reserve exactly the channels of :func:`xy_route`, with the
    reference timings."""

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("dims", [(8, 8), (6, 5), (1, 9), (5, 1)])
    def test_all_pairs_follow_xy_route(self, wrap, dims):
        topo = MeshTopology(*dims, wrap=wrap)
        fast = make_backend("fast", topo, Engine())
        batch = make_backend("batch", topo, Engine())
        if batch._kernel is None:
            pytest.skip("compiled kernel unavailable")
        now = 0.0
        for src in range(topo.node_count):
            for dst in range(src + 1, topo.node_count):
                # one launch per pair (src -> dst and dst -> src), far
                # enough after the last that every channel is free again
                now += 1000.0
                pair = [src, dst]
                a = fast.inject_rounds(pair, [1], now, 16.0)
                b = batch.inject_rounds(pair, [1], now, 16.0)
                assert a == b, (src, dst)
                touched = set(
                    np.flatnonzero(np.asarray(batch.free_at) >= now).tolist()
                )
                expected = set(xy_route(topo, src, dst))
                expected |= set(xy_route(topo, dst, src))
                assert touched == expected, (src, dst, wrap, dims)
        assert np.array_equal(np.asarray(fast.free_at), batch.free_at)


class TestReservationTable:
    def test_transmit_returns_plain_floats(self):
        """With the kernel, ``free_at`` is an ``array('d')``, so the
        per-packet ``transmit`` of the lossy path computes on Python
        floats, not NumPy scalars."""
        topo = MeshTopology(8, 8)
        batch = make_backend("batch", topo, Engine())
        if batch._kernel is None:
            pytest.skip("compiled kernel unavailable")
        batch.inject_rounds(list(range(16)), [1, 5], 0.0, 16.0)
        timing = batch.transmit(0, 63, 4.0)
        assert timing.blocking > 0.0  # read reservations the kernel wrote
        assert [type(v) for v in timing] == [float, float, float]
        batch.reset()
        assert [type(v) for v in batch.transmit(63, 0, 0.0)] == [float] * 3


class TestTrivialChannelEquivalence:
    """A trivial channel policy must be invisible, bit for bit.

    ``channel="loss:0"`` (zero failure probability, no delay) makes the
    simulator skip the channel machinery entirely, so it must be
    *exactly* the unset-channel run -- across all four network modes and
    both execution engines.  This is the boundary between the repo's
    bit-exact invariant (trivial policies) and the statistical gate
    (non-trivial ones, ``tests/test_channel_equivalence.py``).
    """

    SCALE = Scale("ch-eq", jobs=40, min_replications=1,
                  max_replications=1, trace_max_jobs=200)

    @classmethod
    def point_metrics(cls, mode: str, engine: str, channel: str | None):
        from repro.experiments.campaign import (
            PointSpec, run_spec_batch, run_spec_replication,
        )
        spec = PointSpec(
            workload="uniform", load=0.02, alloc="GABL", sched="FCFS",
            scale=cls.SCALE,
            config=SMALL.with_(engine=engine, channel=channel,
                               network_mode=mode),
        )
        if engine == "soa":
            return run_spec_batch(spec, (3,))[0]
        return run_spec_replication(spec, 3)

    @pytest.mark.parametrize("mode", ["fast", "batch", "causal", "sfb"])
    @pytest.mark.parametrize("engine", ["reference", "soa"])
    def test_loss0_bit_identical_to_no_channel(self, mode, engine):
        assert self.point_metrics(mode, engine, None) == \
            self.point_metrics(mode, engine, "loss:0")

    def test_trivial_spellings_canonicalise(self):
        from repro.network.channel import canonical_channel
        for spelling in ("loss:0", "corrupt:0", "loss:0 + delay:fixed:0"):
            assert canonical_channel(spelling) == "loss:0"


class TestWorkloadStreamIsolation:
    """Enabling a channel must not perturb the workload RNG stream.

    Channel fates/delays draw from a dedicated
    ``default_rng((CHANNEL_STREAM, seed))`` generator, never from the
    workload's ``default_rng(seed)``: the *arrival process* (times and
    job shapes) of a lossy run is identical to the lossless run's.
    """

    def arrivals(self, channel: str | None, arq: str | None):
        from repro.core.hooks import SimObserver

        class Log(SimObserver):
            __slots__ = ("events",)

            def __init__(self):
                self.events = []

            def on_arrival(self, now, job, queue_length):
                self.events.append(
                    (now, job.arrival_time, job.width, job.length,
                     job.messages)
                )

        log = Log()
        cfg = SMALL.with_(channel=channel, arq=arq)
        sim = Simulator(
            cfg,
            make_allocator("GABL", cfg.width, cfg.length),
            make_scheduler("FCFS"),
            make_workload("uniform", cfg, 0.02, TRACE_SCALE),
            seed=17,
            observers=(log,),
        )
        sim.run()
        return log.events

    def test_lossy_channel_leaves_arrival_process_untouched(self):
        clean = self.arrivals(None, None)
        lossy = self.arrivals(
            "loss:0.15 + delay:exp:0.1", "selective-repeat"
        )
        # the lossy run takes longer to complete its job quota, so it can
        # observe *more* arrivals -- but the stream itself (times and job
        # shapes) must agree event-for-event on the shared prefix
        shared = min(len(clean), len(lossy))
        assert shared >= SMALL.jobs
        assert clean[:shared] == lossy[:shared]


class TestNativeGating:
    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        _native.reset_kernel_cache()
        try:
            backend = BatchBackend(MeshTopology(4, 4), Engine())
            assert backend._kernel is None
            stats = backend.inject_rounds(
                [0, 1, 2], destination_offsets(3, 2), 0.0, 16.0
            )
            assert stats.packets == 6
        finally:
            _native.reset_kernel_cache()

    def test_kernel_memoised(self):
        _native.reset_kernel_cache()
        assert _native.load_kernel() is _native.load_kernel()
