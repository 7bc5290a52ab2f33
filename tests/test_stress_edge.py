"""Stress and edge-case tests: pathological workloads, degenerate
configurations, and end-to-end conservation under random traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import make_allocator
from repro.core.config import SimConfig
from repro.core.simulator import Simulator
from repro.sched import make_scheduler
from repro.workload.stochastic import StochasticWorkload
from repro.workload.trace import TraceJob, TraceWorkload


def run_trace(trace, cfg=None, alloc="GABL", sched="FCFS", mode="fast"):
    cfg = (cfg or SimConfig(width=8, length=8, jobs=len(trace), seed=3)
           ).with_(network_mode=mode)
    sim = Simulator(
        cfg,
        make_allocator(alloc, cfg.width, cfg.length),
        make_scheduler(sched),
        TraceWorkload(cfg, trace, load=0.05),
        keep_jobs=True,
    )
    result = sim.run()
    return sim, result


class TestPathologicalWorkloads:
    def test_all_unit_jobs(self):
        trace = [TraceJob(arrival=float(i), size=1, runtime=10.0)
                 for i in range(40)]
        sim, result = run_trace(trace)
        assert result.completed_jobs == 40
        # unit jobs never communicate: no packets, service is local work
        assert result.packets_delivered == 0
        assert result.mean_service > 0

    def test_all_full_machine_jobs(self):
        trace = [TraceJob(arrival=float(i), size=64, runtime=10.0)
                 for i in range(5)]
        sim, result = run_trace(trace)
        assert result.completed_jobs == 5
        # strictly serial execution: each waits for the previous
        jobs = sorted(sim.metrics.per_job, key=lambda j: j.job_id)
        for a, b in zip(jobs, jobs[1:]):
            assert b.alloc_time >= a.depart_time

    def test_simultaneous_arrivals(self):
        trace = [TraceJob(arrival=1.0, size=(i % 8) + 1, runtime=5.0)
                 for i in range(30)]
        # all arrive at the same instant; the queue must drain in order
        sim, result = run_trace(trace)
        assert result.completed_jobs == 30

    def test_alternating_huge_and_tiny(self):
        trace = []
        for i in range(20):
            size = 64 if i % 2 == 0 else 1
            trace.append(TraceJob(arrival=float(i), size=size, runtime=5.0))
        _, result = run_trace(trace)
        assert result.completed_jobs == 20

    @pytest.mark.parametrize("alloc", ["GABL", "Paging(0)", "MBS", "ANCA"])
    def test_machine_sized_burst_all_allocators(self, alloc):
        trace = [TraceJob(arrival=0.5, size=60, runtime=3.0) for _ in range(6)]
        _, result = run_trace(trace, alloc=alloc)
        assert result.completed_jobs == 6


class TestDegenerateConfigs:
    def test_one_by_one_mesh(self):
        cfg = SimConfig(width=1, length=1, jobs=5, seed=1)
        sim = Simulator(
            cfg,
            make_allocator("Paging(0)", 1, 1),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.01),
        )
        result = sim.run()
        assert result.completed_jobs == 5
        assert result.packets_delivered == 0  # nowhere to send

    def test_one_row_mesh(self):
        cfg = SimConfig(width=16, length=1, jobs=20, seed=1)
        sim = Simulator(
            cfg,
            make_allocator("GABL", 16, 1),
            make_scheduler("SSD"),
            StochasticWorkload(cfg, load=0.01),
        )
        result = sim.run()
        assert result.completed_jobs == 20
        assert result.mean_packet_latency > 0

    def test_single_job_run(self):
        cfg = SimConfig(width=8, length=8, jobs=1, seed=1)
        sim = Simulator(
            cfg,
            make_allocator("MBS", 8, 8),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.01),
        )
        result = sim.run()
        assert result.completed_jobs == 1

    def test_minimal_packet_size(self):
        cfg = SimConfig(width=8, length=8, jobs=10, seed=1, p_len=1)
        sim = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.01),
        )
        result = sim.run()
        assert result.completed_jobs == 10

    def test_zero_router_delay(self):
        cfg = SimConfig(width=8, length=8, jobs=10, seed=1, t_s=0.0)
        sim = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.01),
        )
        result = sim.run()
        assert result.completed_jobs == 10


class TestConservationProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 64), min_size=3, max_size=25),
        runtimes=st.lists(st.floats(1.0, 1e4), min_size=25, max_size=25),
        alloc=st.sampled_from(["GABL", "Paging(0)", "MBS", "ANCA", "Random"]),
        sched=st.sampled_from(["FCFS", "SSD"]),
    )
    def test_every_job_departs_and_grid_drains(self, sizes, runtimes, alloc, sched):
        trace = [
            TraceJob(arrival=float(i * 3), size=s, runtime=runtimes[i])
            for i, s in enumerate(sizes)
        ]
        sim, result = run_trace(trace, alloc=alloc, sched=sched)
        assert result.completed_jobs == len(trace)
        # with everything departed the machine must be empty again
        assert sim.allocator.free_count == 64
        sim.allocator.grid.validate()
        # per-job sanity
        for job in sim.metrics.per_job:
            assert job.depart_time is not None
            assert job.turnaround >= job.service_time > 0

    @settings(max_examples=6, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 64), min_size=3, max_size=12),
        mode=st.sampled_from(["fast", "causal", "sfb"]),
    )
    def test_all_network_modes_conserve(self, sizes, mode):
        trace = [
            TraceJob(arrival=float(i * 5), size=s, runtime=10.0)
            for i, s in enumerate(sizes)
        ]
        sim, result = run_trace(trace, mode=mode)
        assert result.completed_jobs == len(trace)
        assert sim.allocator.free_count == 64

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_stochastic_run_invariants(self, seed):
        cfg = SimConfig(width=8, length=8, jobs=25, seed=seed)
        sim = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("SSD"),
            StochasticWorkload(cfg, load=0.03),
        )
        result = sim.run()
        assert result.completed_jobs == 25
        assert 0.0 <= result.utilization <= 1.0
        assert result.mean_turnaround >= result.mean_service
        assert result.mean_packet_latency >= result.mean_packet_blocking
