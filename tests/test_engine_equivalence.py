"""SoA engine equivalence: lockstep batches == per-run reference, bit-for-bit.

The contract under test: ``repro.core.soa.run_point_batch`` -- through
the compiled lane driver when available, and through per-seed reference
runs otherwise -- produces ``RunResult`` metrics *exactly* equal to
running each replication through ``Simulator.run()``, across allocators
x schedulers x workloads x seeds x topologies, including
lockstep-specific shapes (uneven lane termination,
replication-controller batches).
"""

from __future__ import annotations

import dataclasses
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import soa
from repro.core import _soa_native as native
from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.soa import run_point_batch
from repro.experiments.campaign import (
    Campaign,
    PointSpec,
    Scale,
    build_simulator,
    run_spec_batch,
    run_spec_replication,
)
from repro.experiments.store import ResultCache
from repro.stats.replication import ReplicationController

SMOKE = Scale.by_name("smoke")
#: small-mesh scale so the full strategy sweep stays fast
TINY_SCALE = Scale("tiny", jobs=40, min_replications=1, max_replications=1,
                   trace_max_jobs=200)
TINY = SimConfig(width=8, length=8, jobs=40, seed=3)
#: non-square, non-power-of-two mesh: multiple MBS cover roots and a
#: width/length asymmetry that exercises GABL's rotation fallback
ODD = SimConfig(width=6, length=10, jobs=40, seed=3)

ALLOCS = ("GABL", "Paging(0)", "MBS")
SCHEDS = ("FCFS", "SSD")


def _spec(alloc="GABL", sched="FCFS", workload="uniform", load=0.7,
          config=TINY, scale=TINY_SCALE, **cfg):
    if cfg:
        config = config.with_(**cfg)
    return PointSpec(workload=workload, load=load, alloc=alloc, sched=sched,
                     scale=scale, config=config)


def _reference(spec, seeds):
    return [build_simulator(spec, s).run() for s in seeds]


def _batch(spec, seeds):
    return run_point_batch(lambda seed: build_simulator(spec, seed), seeds)


def assert_equal_results(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert dataclasses.asdict(r) == dataclasses.asdict(g)


def result_bits(result):
    """A ``RunResult`` with every float as its IEEE-754 bytes, so a
    signed zero or a NaN payload cannot hide behind ``==``."""
    return {k: struct.pack("<d", v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(result).items()}


class TestStrategySweep:
    @pytest.mark.parametrize("alloc", ALLOCS)
    @pytest.mark.parametrize("sched", SCHEDS)
    @pytest.mark.parametrize("workload", ("uniform", "exponential"))
    def test_alloc_sched_workload(self, alloc, sched, workload):
        spec = _spec(alloc, sched, workload)
        seeds = [1, 2, 3]
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))

    @pytest.mark.parametrize("alloc", ALLOCS)
    @pytest.mark.parametrize("topology", ("mesh", "torus"))
    def test_topology_odd_mesh(self, alloc, topology):
        spec = _spec(alloc, "SSD", config=ODD, topology=topology)
        seeds = [5, 6]
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))

    def test_paper_mesh_real_trace(self):
        spec = _spec("MBS", "FCFS", workload="real", config=PAPER_CONFIG,
                     scale=SMOKE)
        seeds = [1]
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))

    @pytest.mark.parametrize("kw", (
        {"warmup_jobs": 10},
        {"scheduler_window": 3},
        {"max_time": 300.0},
        {"round_gap_factor": 1.0},
    ))
    def test_config_variants(self, kw):
        spec = _spec("GABL", "SSD", **kw)
        seeds = [1, 2]
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))

    def test_saturating_load(self):
        spec = _spec("MBS", "FCFS", load=2.5)
        seeds = [1, 2]
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))


class TestLockstepShapes:
    def test_uneven_lane_termination(self):
        # a max_time horizon ends lanes at different event counts; each
        # lane must stop exactly where its solo run does
        spec = _spec("Paging(0)", "FCFS", max_time=250.0, jobs=10_000,
                     scale=Scale("open", jobs=10_000, min_replications=1,
                                 max_replications=1, trace_max_jobs=200))
        seeds = [1, 2, 3, 4]
        ref = _reference(spec, seeds)
        assert len({r.sim_time for r in ref} | {r.completed_jobs for r in ref}) > 2
        assert_equal_results(ref, _batch(spec, seeds))

    def test_single_seed_batch(self):
        spec = _spec()
        assert_equal_results(_reference(spec, [9]), _batch(spec, [9]))

    def test_empty_batch(self):
        assert _batch(_spec(), []) == []

    def test_unsupported_allocator_falls_back(self):
        spec = _spec(alloc="FF")
        seeds = [1, 2]
        probe = build_simulator(spec, seeds[0])
        assert not soa.native_supported(probe)
        assert_equal_results(_reference(spec, seeds), _batch(spec, seeds))

    def test_native_disabled_env(self, monkeypatch):
        # REPRO_NATIVE=0 must force the fallback and change nothing
        spec = _spec("MBS", "SSD")
        seeds = [1, 2]
        ref = _reference(spec, seeds)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset_kernel_cache()
        try:
            assert native.load_kernel() is None
            assert not soa.native_supported(build_simulator(spec, seeds[0]))
            assert_equal_results(ref, _batch(spec, seeds))
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            native.reset_kernel_cache()

    @pytest.mark.parametrize("alloc", ALLOCS)
    def test_leaked_processor_raises_within_one_refill(self, alloc,
                                                       monkeypatch):
        # a lane whose free count drifts from its busy count must fail
        # cleanly at the next soa_advance return, not refill forever
        if native.load_kernel() is None:
            pytest.skip("no compiled lane driver")
        feeds = []

        class LeakyLane(soa.LaneState):
            def __init__(self, *args):
                super().__init__(*args)
                if self.seed == 2:
                    self.I[native.I_FREE] -= 1

            def feed(self):
                feeds.append(self.seed)
                super().feed()

        monkeypatch.setattr(soa, "LaneState", LeakyLane)
        with pytest.raises(RuntimeError, match=(
            rf"lost track of processors: (\d+) free \+ (\d+) busy != 64 "
            rf"\(seed 2, {re.escape(alloc)}/SSD\)"
        )) as err:
            _batch(_spec(alloc, "SSD"), [1, 2, 3])
        free, busy = map(int, re.search(r"(\d+) free \+ (\d+) busy",
                                        str(err.value)).groups())
        assert free + busy == 63
        assert feeds.count(2) <= 2  # the first feed and at most one refill


class TestCampaignIntegration:
    def test_run_spec_batch_matches_per_seed(self):
        spec = _spec("GABL", "SSD", workload="exponential")
        seeds = (1, 2, 3)
        assert run_spec_batch(spec, seeds) == [
            run_spec_replication(spec, s) for s in seeds
        ]

    def test_engine_shares_cache_key(self):
        a = _spec(config=TINY.with_(engine="reference"))
        b = _spec(config=TINY.with_(engine="soa"))
        assert a.key() == b.key()

    def test_replication_controller_batches(self):
        # a 9-seed warm-up batch driven through the lockstep path must
        # reproduce per-seed runs fed one at a time exactly: same
        # replication count, same samples, same means
        spec = _spec(
            workload="exponential",
            scale=Scale("reps", jobs=25, min_replications=3,
                        max_replications=9, trace_max_jobs=200),
        )
        metrics = ("mean_turnaround", "utilization")

        def controller(min_replications):
            return ReplicationController(
                metrics, min_replications=min_replications,
                max_replications=9, base_seed=spec.config.seed,
                max_relative_error=1e-9,  # never converges early
            )

        seq = controller(3)
        while seeds := seq.next_seeds():
            seq.add_batch([run_spec_replication(spec, s) for s in seeds])
        lock = controller(9)
        batches = 0
        while seeds := lock.next_seeds():
            lock.add_batch(run_spec_batch(spec, seeds))
            batches += 1
        assert batches == 1
        assert lock.completed == seq.completed == 9
        a, b = seq.result(), lock.result()
        assert a.replications == b.replications
        for m in metrics:
            assert a.metrics[m].mean == b.metrics[m].mean
            assert a.metrics[m].values == b.metrics[m].values

    def test_campaign_end_to_end_equal(self, tmp_path):
        def run(engine):
            camp = Campaign.sweep(
                workloads=("uniform",), loads=(0.5, 1.5),
                allocs=("GABL", "MBS"), scheds=("FCFS",),
                scale=TINY_SCALE, config=TINY.with_(engine=engine),
            )
            cache = ResultCache(str(tmp_path / engine))
            return {s.label(): dict(r)
                    for s, r in camp.run(cache=cache).items()}

        assert run("reference") == run("soa")


#: meshes past the small generated shapes: the paper's 16 x 22, rows
#: one bit short of and exactly one 64-bit word wide (multi-step ``runs``
#: shifts and the full-word mask), and more rows than a word has bits
WIDE_MESHES = ((16, 22), (63, 5), (64, 3), (5, 70))


@st.composite
def lane_points(draw):
    """A point of any lane allocator (GABL, Paging(0), MBS) on a
    generated mesh: shapes 1..6 x 1..6 (1 x N and N x 1 included), where
    uniform and exponential request sides hit the mesh bounds often, or
    one of :data:`WIDE_MESHES`, at loads 2**-9 .. 2**-1 -- for the small
    meshes the queue starts to grow (the saturation knee) near 2**-6,
    and GABL decomposes on the wide ones at every such load."""
    width, length = draw(st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.sampled_from(WIDE_MESHES),
    ))
    config = SimConfig(
        width=width, length=length,
        topology=draw(st.sampled_from(("mesh", "torus"))),
        jobs=30, seed=1,
    )
    return _spec(
        draw(st.sampled_from(ALLOCS)), draw(st.sampled_from(SCHEDS)),
        draw(st.sampled_from(("uniform", "exponential"))),
        load=2.0 ** draw(st.integers(-9, -1)), config=config,
        scale=Scale("gen", jobs=30, min_replications=1, max_replications=1,
                    trace_max_jobs=200),
    )


@settings(max_examples=60, deadline=None)
@given(lane_points(), st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                               unique=True))
def test_generated_lane_points_equal_reference(spec, seeds):
    """Reference == soa for GABL, Paging(0) and MBS under FCFS and SSD,
    bit for bit on every ``RunResult`` field, over generated meshes,
    sides and loads: the lane driver's allocators must pick the cells
    ``repro.alloc`` picks -- for GABL, the rectangles the bit-row
    searches of ``repro.mesh.rectfind`` find."""
    if native.load_kernel() is not None:
        assert soa.native_supported(build_simulator(spec, seeds[0]))
    ref = [result_bits(r) for r in _reference(spec, seeds)]
    assert ref == [result_bits(r) for r in _batch(spec, seeds)]


@pytest.mark.parametrize("width,length", WIDE_MESHES)
@pytest.mark.parametrize("sched", SCHEDS)
def test_wide_mesh_gabl_decomposes_and_equals_reference(width, length,
                                                        sched):
    """The generated wide meshes do reach GABL's decomposition on the
    lane (contiguity below 1), bit for bit with the reference."""
    spec = _spec("GABL", sched, load=2.0 ** -5, jobs=30,
                 config=SimConfig(width=width, length=length, seed=1),
                 scale=Scale("gen", jobs=30, min_replications=1,
                             max_replications=1, trace_max_jobs=200))
    if native.load_kernel() is not None:
        assert soa.native_supported(build_simulator(spec, 1))
    ref = _reference(spec, [1, 2])
    assert all(r.contiguity_rate < 1.0 for r in ref)
    assert [result_bits(r) for r in ref] == [
        result_bits(r) for r in _batch(spec, [1, 2])
    ]


@pytest.mark.parametrize("alloc", ALLOCS)
def test_mesh_wider_than_a_word(alloc):
    """GABL's lane keeps one 64-bit word per mesh row, so a 65-wide GABL
    point runs through per-seed reference runs; Paging(0) and MBS never
    read the rows and stay on the lane.  Both give the reference's
    results."""
    spec = _spec(alloc, "FCFS", load=2.0 ** -5,
                 config=SimConfig(width=65, length=3, jobs=30, seed=1))
    if native.load_kernel() is not None:
        assert soa.native_supported(build_simulator(spec, 1)) == (
            alloc != "GABL")
    assert_equal_results(_reference(spec, [1, 2]), _batch(spec, [1, 2]))


def test_kernel_refuses_a_wide_gabl_lane():
    """Driven directly, the compiled driver rejects a GABL lane wider
    than 64 before touching its bit rows."""
    kernel = native.load_kernel()
    if kernel is None:
        pytest.skip("no compiled lane driver")
    spec = _spec("GABL", "FCFS",
                 config=SimConfig(width=65, length=3, jobs=30, seed=1))
    probe = build_simulator(spec, 1)
    lane = soa.LaneState(probe.config, probe.workload, 1,
                         soa.ALLOC_KINDS["GABL"], soa.SCHED_KINDS["FCFS"])
    lane.feed()
    assert kernel.soa_advance(lane.ptable, lane.ci_ptr, lane.cf_ptr) == -97
