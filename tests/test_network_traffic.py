"""Unit tests for the all-to-all traffic generator."""

import pytest

from repro.alloc.base import Allocation
from repro.core.engine import Engine
from repro.core.job import Job
from repro.mesh.geometry import SubMesh
from repro.network.backend import make_backend
from repro.network.topology import MeshTopology
from repro.network.traffic import AllToAllTraffic, destination_schedule


class TestDestinationSchedule:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 36, 98])
    @pytest.mark.parametrize("k", [1, 2, 5, 11, 200])
    def test_rounds_are_permutations_without_self(self, n, k):
        table = destination_schedule(n, k)
        assert len(table) == k
        for row in table:
            assert sorted(row) == list(range(n))
            assert all(row[i] != i for i in range(n))

    def test_single_processor_empty(self):
        assert destination_schedule(1, 5) == []
        assert destination_schedule(0, 5) == []

    def test_full_exchange_covers_all_partners(self):
        """With K >= 2(n-1) rounds every partner is reached."""
        n = 6
        table = destination_schedule(n, 2 * (n - 1))
        partners = {row[0] for row in table}  # targets of processor 0
        assert partners == set(range(1, n))

    def test_near_rounds_are_nearest_partners(self):
        table = destination_schedule(10, 4)
        # rounds 0 and 2 are near rounds with offsets 1 and 2
        assert table[0][0] == 1
        assert table[2][0] == 2

    def test_far_rounds_cross_the_ring(self):
        table = destination_schedule(10, 2)
        # round 1 is a far round: offset around half the ring, backwards
        offset = table[1][0]
        assert offset not in (1, 2, 9)


def _run_job(cells, messages, mode, round_gap=None):
    """Launch one job's traffic on an 8x8 mesh, one processor per
    ``(x, y)`` cell, and run to completion."""
    engine = Engine()
    topo = MeshTopology(8, 8)
    net = make_backend(mode, topo, engine)
    traffic = AllToAllTraffic(net, engine, round_gap=round_gap)
    submeshes = tuple(SubMesh(x, y, x, y) for x, y in cells)
    nodes = tuple(n for s in submeshes for n in s.node_ids(8))
    job = Job(job_id=1, arrival_time=0.0, width=1, length=len(cells),
              messages=messages)
    job.allocation = Allocation(1, submeshes, nodes)
    done = []
    traffic.launch(job, 0.0, lambda j: done.append(engine.now))
    engine.run()
    assert len(done) == 1
    return job, done[0], net


class TestLaunch:
    @pytest.mark.parametrize("mode", ["fast", "causal"])
    def test_packet_count(self, mode):
        cells = [(0, 0), (1, 0), (2, 0)]
        job, _, net = _run_job(cells, messages=4, mode=mode)
        assert job.packet_count == 3 * 4
        assert net.packets_sent == 12

    @pytest.mark.parametrize("mode", ["fast", "causal"])
    def test_completion_after_last_delivery(self, mode):
        cells = [(0, 0), (4, 4)]
        job, t_done, _ = _run_job(cells, messages=1, mode=mode)
        # one round of 2 packets, 8 hops each: done at base latency
        assert t_done == pytest.approx((8 + 2) * 4 + 7)

    def test_round_gap_spaces_rounds(self):
        cells = [(0, 0), (4, 0)]
        _, fast_done, _ = _run_job(cells, messages=3, mode="fast",
                                   round_gap=100.0)
        # last round injected at t=200
        assert fast_done == pytest.approx(200 + (4 + 2) * 4 + 7)

    def test_modes_agree_on_totals(self):
        cells = [(x, y) for x in range(3) for y in range(3)]
        jf, tf, _ = _run_job(cells, messages=5, mode="fast")
        jc, tc, _ = _run_job(cells, messages=5, mode="causal")
        assert jf.packet_count == jc.packet_count
        assert tf == pytest.approx(tc, rel=0.2)
        assert jf.latency_sum == pytest.approx(jc.latency_sum, rel=0.2)

    def test_single_processor_job_local_work(self):
        engine = Engine()
        topo = MeshTopology(8, 8)
        net = make_backend("fast", topo, engine)
        traffic = AllToAllTraffic(net, engine, round_gap=16.0)
        job = Job(job_id=1, arrival_time=0.0, width=1, length=1, messages=6)
        s = SubMesh(2, 2, 2, 2)
        job.allocation = Allocation(1, (s,), tuple(s.node_ids(8)))
        done = []
        traffic.launch(job, 0.0, lambda j: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(6 * 16.0)]
        assert job.packet_count == 0

    def test_round_gap_validation(self):
        engine = Engine()
        net = make_backend("fast", MeshTopology(4, 4), engine, p_len=8)
        with pytest.raises(ValueError):
            AllToAllTraffic(net, engine, round_gap=4.0)

    def test_paging_internal_fragment_excluded(self):
        """Traffic must only use the first w*l nodes of an allocation."""
        engine = Engine()
        topo = MeshTopology(8, 8)
        net = make_backend("fast", topo, engine)
        traffic = AllToAllTraffic(net, engine)
        # job requested 1x2=2 procs but was granted 4 (a 2x2 page)
        s = SubMesh(0, 0, 1, 1)
        job = Job(job_id=1, arrival_time=0.0, width=1, length=2, messages=3)
        job.allocation = Allocation(1, (s,), tuple(s.node_ids(8)))
        done = []
        traffic.launch(job, 0.0, lambda j: done.append(True))
        engine.run()
        assert job.packet_count == 2 * 3  # only 2 communicating procs
