"""Tests for the torus topology extension and the single-flit-buffer
(sfb) wormhole mode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.network.routing import xy_route, xy_route_nodes
from repro.network.backend import make_backend
from repro.network.topology import Direction, MeshTopology


def node(x, y, w=8):
    """Row-major node id of ``(x, y)`` on a ``w``-wide mesh."""
    return y * w + x


class TestTorusTopology:
    def test_wraparound_links_exist(self):
        t = MeshTopology(4, 4, wrap=True)
        east_edge = node(3, 1, w=4)
        assert t.link_exists(east_edge, Direction.EAST)
        assert t.neighbour(east_edge, Direction.EAST) == node(0, 1, w=4)
        north_edge = node(2, 3, w=4)
        assert t.neighbour(north_edge, Direction.NORTH) == node(2, 0, w=4)

    def test_mesh_has_no_wrap(self):
        t = MeshTopology(4, 4, wrap=False)
        assert not t.link_exists(node(3, 1, w=4), Direction.EAST)

    def test_distance_wraps(self):
        t = MeshTopology(8, 8, wrap=True)
        assert t.distance(node(0, 0), node(7, 0)) == 1
        assert t.distance(node(0, 0), node(4, 0)) == 4
        assert t.distance(node(1, 1), node(6, 7)) == 3 + 2
        m = MeshTopology(8, 8, wrap=False)
        assert m.distance(node(0, 0), node(7, 0)) == 7


class TestTorusRouting:
    def test_route_takes_short_way(self):
        t = MeshTopology(8, 8, wrap=True)
        path = xy_route(t, node(0, 0), node(7, 0))
        assert len(path) == 3  # inj + one wrap link + ej
        _, direction = t.channel_owner(path[1])
        assert direction == Direction.WEST  # 0 -> 7 is one hop westwards

    def test_tie_breaks_positive(self):
        t = MeshTopology(8, 8, wrap=True)
        path = xy_route(t, node(0, 0), node(4, 0))
        dirs = {t.channel_owner(c)[1] for c in path[1:-1]}
        assert dirs == {Direction.EAST}

    def test_nodes_walk_wraps(self):
        t = MeshTopology(4, 4, wrap=True)
        nodes = xy_route_nodes(t, node(3, 3, w=4), node(0, 0, w=4))
        assert nodes == [node(3, 3, w=4), node(0, 3, w=4), node(0, 0, w=4)]

    @settings(max_examples=60, deadline=None)
    @given(
        sx=st.integers(0, 7), sy=st.integers(0, 7),
        dx=st.integers(0, 7), dy=st.integers(0, 7),
    )
    def test_route_length_is_torus_distance(self, sx, sy, dx, dy):
        src, dst = node(sx, sy), node(dx, dy)
        if src == dst:
            return
        t = MeshTopology(8, 8, wrap=True)
        path = xy_route(t, src, dst)
        assert len(path) == t.distance(src, dst) + 2

    @settings(max_examples=40, deadline=None)
    @given(
        sx=st.integers(0, 7), sy=st.integers(0, 7),
        dx=st.integers(0, 7), dy=st.integers(0, 7),
    )
    def test_torus_never_longer_than_mesh(self, sx, sy, dx, dy):
        src, dst = node(sx, sy), node(dx, dy)
        if src == dst:
            return
        torus = MeshTopology(8, 8, wrap=True)
        mesh = MeshTopology(8, 8, wrap=False)
        assert len(xy_route(torus, src, dst)) <= len(xy_route(mesh, src, dst))


def make_sfb(w=8, l=8, t_s=3.0, p_len=8):
    engine = Engine()
    net = make_backend(
        "sfb", MeshTopology(w, l), engine, t_s=t_s, p_len=p_len
    )
    return net, engine


class TestSFBMode:
    def test_uncontended_latency_matches_causal(self):
        net, engine = make_sfb()
        seen = []
        net.send(node(0, 0), node(3, 4), 0.0, seen.append)
        engine.run()
        assert len(seen) == 1
        assert seen[0].latency == pytest.approx((7 + 2) * 4 + 7)
        assert seen[0].blocking == 0.0

    def test_injection_held_longer_than_deep_buffer(self):
        """With 1-flit buffers the tail leaves the injection channel only
        when the header is P_len channels ahead -- so a source's second
        packet starts later than in the deep-buffer modes."""
        net, engine = make_sfb()
        seen = []
        # long path: 14 hops, so injection releases when the header is
        # p_len=8 channels in
        net.send(node(0, 0), node(7, 7), 0.0, lambda t: seen.append(t))
        net.send(node(0, 0), node(7, 7), 0.0, lambda t: seen.append(t))
        engine.run()
        assert len(seen) == 2
        # deep-buffer modes inject the second packet at t=8; sfb must wait
        # for 8 header hops (8 * 4 = 32)
        assert seen[1].t_inject == pytest.approx(32.0)

    def test_chained_blocking_holds_upstream_channels(self):
        """A worm blocked downstream keeps its upstream channels; a cross
        worm needing one of them must wait (the wormhole tree-saturation
        effect that deep buffers absorb)."""
        net, engine = make_sfb(p_len=8)
        order = []
        # worm A: long eastward route on row 0
        net.send(node(0, 0), node(7, 0), 0.0, lambda t: order.append(("A", t)))
        # worm B: same route injected just after -> queues behind A's
        # held channels for a long time
        net.send(node(1, 0), node(6, 0), 0.0, lambda t: order.append(("B", t)))
        engine.run()
        a = dict(order)["A"]
        b = dict(order)["B"]
        assert b.blocking > 0.0

    def test_torus_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError, match="torus"):
            make_backend("sfb", MeshTopology(4, 4, wrap=True), engine)

    def test_reset_clears_holders(self):
        net, engine = make_sfb()
        net.send(node(0, 0), node(5, 5), 0.0, lambda t: None)
        net.reset()
        assert all(h is None for h in net._holder)
        seen = []
        net.send(node(0, 0), node(5, 5), 0.0, seen.append)
        engine.run()
        assert seen[0].blocking == 0.0

    def test_many_packets_all_deliver(self):
        """Saturation storm: every node sends across the mesh; the engine
        must drain without deadlock (XY total order) and deliver all."""
        net, engine = make_sfb(w=6, l=6)
        seen = []
        for y in range(6):
            for x in range(6):
                src, dst = node(x, y, w=6), node(5 - x, 5 - y, w=6)
                if dst == src:
                    continue
                net.send(src, dst, 0.0, seen.append)
        engine.run()
        assert len(seen) == 36
        assert all(t.t_deliver > 0 for t in seen)


class TestSimulatorIntegration:
    def test_torus_config_runs(self):
        from repro.alloc import make_allocator
        from repro.core.simulator import Simulator
        from repro.sched import make_scheduler
        from repro.workload.stochastic import StochasticWorkload

        cfg = SimConfig(width=8, length=8, jobs=25, seed=4, topology="torus")
        sim = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.02),
        )
        r = sim.run()
        assert r.completed_jobs == 25

    def test_torus_latency_below_mesh(self):
        """Wraparound shortens routes, so mean latency drops.  Asserted
        in causal mode (exact arbitration); fast mode's conservative
        reservation ordering can inflate blocking on the wrap links, so
        there only the base (uncontended) component is compared."""
        from repro.alloc import make_allocator
        from repro.core.simulator import Simulator
        from repro.sched import make_scheduler
        from repro.workload.stochastic import StochasticWorkload

        def run(topology, mode):
            cfg = SimConfig(width=8, length=8, jobs=30, seed=4,
                            topology=topology, network_mode=mode)
            sim = Simulator(
                cfg,
                make_allocator("Random", 8, 8, seed=1),
                make_scheduler("FCFS"),
                StochasticWorkload(cfg, load=0.02),
            )
            r = sim.run()
            return r.mean_packet_latency, r.mean_packet_blocking

        t_lat, t_blk = run("torus", "causal")
        m_lat, m_blk = run("mesh", "causal")
        assert t_lat < m_lat
        # base component is shorter in fast mode too
        tf_lat, tf_blk = run("torus", "fast")
        mf_lat, mf_blk = run("mesh", "fast")
        assert tf_lat - tf_blk < mf_lat - mf_blk

    def test_sfb_config_runs_and_blocks_more(self):
        from repro.alloc import make_allocator
        from repro.core.simulator import Simulator
        from repro.sched import make_scheduler
        from repro.workload.stochastic import StochasticWorkload

        def run(mode):
            cfg = SimConfig(width=8, length=8, jobs=25, seed=4,
                            network_mode=mode)
            sim = Simulator(
                cfg,
                make_allocator("GABL", 8, 8),
                make_scheduler("FCFS"),
                StochasticWorkload(cfg, load=0.015),
            )
            return sim.run()

        sfb = run("sfb")
        causal = run("causal")
        assert sfb.completed_jobs == causal.completed_jobs
        # chained blocking can only add stall time
        assert sfb.mean_packet_blocking >= causal.mean_packet_blocking

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            SimConfig(topology="hypercube")
