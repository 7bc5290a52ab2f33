"""Unit tests for the wormhole engine: latency formulas, contention,
blocking accounting, and fast/causal mode agreement."""

import threading
import time

import pytest

from repro.core.engine import Engine
from repro.network import backend as backend_module
from repro.network.backend import make_backend
from repro.network.routing import xy_route
from repro.network.topology import MeshTopology
from repro.network.wormhole import PathTiming


def node(x, y):
    """Row-major node id of ``(x, y)`` on the 8-wide test mesh."""
    return y * 8 + x


def make_net(mode="fast", t_s=3.0, p_len=8, w=8, l=8):
    engine = Engine()
    topo = MeshTopology(w, l)
    return make_backend(mode, topo, engine, t_s=t_s, p_len=p_len), engine


class TestUncontendedLatency:
    @pytest.mark.parametrize("src,dst,hops", [
        (node(0, 0), node(1, 0), 1),
        (node(0, 0), node(3, 4), 7),
        (node(7, 7), node(0, 0), 14),
    ])
    def test_latency_formula_fast(self, src, dst, hops):
        """Uncontended latency is (h+2)(t_s+1) + P_len - 1."""
        net, _ = make_net()
        t = net.transmit(src, dst, now=0.0)
        assert t.t_inject == 0.0
        assert t.latency == pytest.approx((hops + 2) * 4 + 7)
        assert t.blocking == 0.0

    def test_latency_formula_causal(self):
        net, engine = make_net(mode="causal")
        seen: list[PathTiming] = []
        net.send(node(0, 0), node(3, 4), 0.0, seen.append)
        engine.run()
        assert len(seen) == 1
        assert seen[0].latency == pytest.approx((7 + 2) * 4 + 7)
        assert seen[0].blocking == 0.0

    def test_parameter_scaling(self):
        net, _ = make_net(t_s=1.0, p_len=4)
        t = net.transmit(node(0, 0), node(2, 0), 0.0)
        assert t.latency == pytest.approx((2 + 2) * 2 + 3)


class TestContention:
    def test_shared_channel_serializes(self):
        """Two packets over the same link: the second blocks p_len units."""
        net, _ = make_net()
        a = net.transmit(node(0, 0), node(2, 0), 0.0)
        b = net.transmit(node(0, 1), node(2, 1), 0.0)
        assert a.blocking == 0.0 and b.blocking == 0.0  # disjoint rows
        c = net.transmit(node(0, 0), node(2, 0), 0.0)
        # same source: injection wait is source queueing (not blocking),
        # but the worm then trails the first one link-by-link with no
        # further stalls
        assert c.t_inject == pytest.approx(8.0)
        assert c.blocking == pytest.approx(0.0)

    def test_cross_traffic_blocks(self):
        """A packet crossing a busy channel accrues blocking time."""
        net, _ = make_net()
        net.transmit(node(0, 0), node(3, 0), 0.0)  # holds east links row 0
        t = net.transmit(node(1, 1), node(2, 0), 0.0)
        # its second hop (east on row 0 after going south... XY: east first
        # on row 1, then south into contested row 0) -- actually XY goes
        # east at y=1 then south; the ejection at (2,0) is free, so no
        # blocking expected here
        assert t.blocking == 0.0
        u = net.transmit(node(0, 0), node(3, 0), 0.0)
        # same path as the first packet: injection queueing 8, and the
        # links are timed so the worm streams behind -- no link stall
        assert u.t_inject == pytest.approx(8.0)

    def test_head_on_blocking_measured(self):
        net, _ = make_net()
        # saturate one link with many packets from different sources
        # (via distinct injection channels converging on the same link)
        t1 = net.transmit(node(0, 0), node(2, 0), 0.0)
        t2 = net.transmit(node(1, 0), node(3, 0), 0.0)
        # t2's east link (1->2) is held by t1 [4, 12); t2's header arrives
        # at 4 -> no wait (t1 acquired it at 4? t1: inj [0,8), link0->1
        # [4,12), link1->2 [8,16)); t2: inj [0,8), link1->2 arrival at 4,
        # but free_at=16 after t1 -> wait
        assert t2.blocking > 0.0

    def test_blocking_conserves_latency(self):
        """latency == base + blocking for any single packet."""
        net, _ = make_net()
        for i in range(5):
            t = net.transmit(node(0, 0), node(4, 3), 0.0)
            hops = 7
            assert t.latency == pytest.approx((hops + 2) * 4 + 7 + t.blocking)


class TestModesAgree:
    def test_single_packet_identical(self):
        fast, _ = make_net(mode="fast")
        causal, engine = make_net(mode="causal")
        ft = fast.transmit(node(0, 0), node(5, 5), 0.0)
        out = []
        causal.send(node(0, 0), node(5, 5), 0.0, out.append)
        engine.run()
        assert out[0].latency == pytest.approx(ft.latency)
        assert out[0].t_deliver == pytest.approx(ft.t_deliver)

    def test_disjoint_packets_identical(self):
        pairs = [(node(0, y), node(7, y)) for y in range(4)]
        fast, _ = make_net(mode="fast")
        fast_results = [fast.transmit(s, d, 0.0) for s, d in pairs]
        causal, engine = make_net(mode="causal")
        out = []
        for s, d in pairs:
            causal.send(s, d, 0.0, out.append)
        engine.run()
        for f, c in zip(fast_results, out):
            assert c.latency == pytest.approx(f.latency)

    def test_staggered_arrivals_agree_exactly(self):
        """When injections are spread in time, reservation order equals
        arrival order and the two modes match channel-for-channel."""
        pairs = []
        for y in range(4):
            for x in range(3):
                pairs.append((node(x, y), node(7 - x, y)))
        fast, _ = make_net(mode="fast")
        f_total = sum(
            fast.transmit(s, d, i * 10.0).blocking
            for i, (s, d) in enumerate(pairs)
        )
        causal, engine = make_net(mode="causal")
        out = []
        for i, (s, d) in enumerate(pairs):
            causal.send(s, d, i * 10.0, out.append)
        engine.run()
        c_total = sum(t.blocking for t in out)
        assert f_total == pytest.approx(c_total)

    def test_synchronized_burst_fast_is_conservative(self):
        """Simultaneous injections: fast mode's whole-path reservations
        serialize more aggressively than causal header-by-header progress,
        so fast over-reports blocking -- never under-reports (the bias
        direction DESIGN.md 2.1 documents)."""
        pairs = []
        for y in range(4):
            for x in range(3):
                pairs.append((node(x, y), node(7 - x, y)))
        fast, _ = make_net(mode="fast")
        f_total = sum(fast.transmit(s, d, 0.0).blocking for s, d in pairs)
        causal, engine = make_net(mode="causal")
        out = []
        for s, d in pairs:
            causal.send(s, d, 0.0, out.append)
        engine.run()
        c_total = sum(t.blocking for t in out)
        assert f_total >= c_total


class TestStateManagement:
    def test_reset(self):
        net, _ = make_net()
        net.transmit(node(0, 0), node(3, 3), 0.0)
        assert net.packets_sent == 1
        net.reset()
        assert net.packets_sent == 0
        t = net.transmit(node(0, 0), node(3, 3), 0.0)
        assert t.blocking == 0.0

    def test_invalid_mode(self):
        engine = Engine()
        with pytest.raises(ValueError):
            make_backend("warp", MeshTopology(4, 4), engine)


class TestRouteMemo:
    """XY routes depend only on the mesh shape, so every backend of one
    ``(width, length, wrap)`` in the process shares one route memo."""

    @pytest.fixture(autouse=True)
    def routed(self, monkeypatch):
        """Fresh memos, and every ``xy_route`` computation recorded."""
        monkeypatch.setattr(backend_module, "_ROUTE_MEMOS", {})
        calls = []
        real = backend_module.xy_route

        def counting(topology, src, dst):
            calls.append((topology.width, topology.length, topology.wrap,
                          src, dst))
            time.sleep(0)  # yield the GIL: racing threads interleave here
            return real(topology, src, dst)

        monkeypatch.setattr(backend_module, "xy_route", counting)
        return calls

    def test_two_backends_of_one_shape_compute_each_route_once(self, routed):
        a, _ = make_net(w=4, l=4)
        b, _ = make_net(mode="batch", w=4, l=4)
        pairs = [(0, 15), (15, 0), (5, 6), (0, 15)]
        for now in (0.0, 10.0):
            for src, dst in pairs:
                assert a.transmit(src, dst, now) == b.transmit(src, dst, now)
        assert len(routed) == 3
        assert a._routes is b._routes
        path = a._routes[0 * 16 + 15]
        assert isinstance(path, tuple)
        assert list(path) == xy_route(MeshTopology(4, 4), 0, 15)

    def test_other_shape_or_wrap_gets_its_own_routes(self, routed):
        mesh, _ = make_net(w=4, l=4)
        wider = make_backend("fast", MeshTopology(5, 4), Engine())
        torus = make_backend("fast", MeshTopology(4, 4, wrap=True), Engine())
        for net in (mesh, wider, torus):
            net.transmit(0, 3, 0.0)
        assert sorted(routed) == [(4, 4, False, 0, 3), (4, 4, True, 0, 3),
                                  (5, 4, False, 0, 3)]
        assert len({id(net._routes) for net in (mesh, wider, torus)}) == 3
        # the torus wraps west in one hop; the mesh goes three hops east
        assert len(torus._routes[3]) == 3
        assert len(mesh._routes[3]) == 5

    def test_registered_shapes_are_bounded(self, routed):
        first, _ = make_net(w=2, l=2)
        for w in range(3, 3 + backend_module._ROUTE_MEMO_SHAPES):
            make_net(w=w, l=2)
        assert len(backend_module._ROUTE_MEMOS) == backend_module._ROUTE_MEMO_SHAPES
        assert (2, 2, False) not in backend_module._ROUTE_MEMOS
        # a backend keeps routing through the memo it was built with
        assert first.transmit(0, 3, 0.0).latency == pytest.approx(4 * 4 + 7)

    def test_concurrent_transmit_on_one_shape(self, routed):
        """Eight threads, one backend each on one shape, released
        together: each sees the timings of a serial run, and every
        route is computed exactly once."""
        shape = (6, 5)
        n = shape[0] * shape[1]
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]

        def run(net, order):
            return [net.transmit(s, d, float(t)) for t, (s, d) in enumerate(order)]

        orders = [pairs[::-1] if k % 2 else pairs for k in range(8)]
        expected = [
            run(make_backend("fast", MeshTopology(*shape), Engine()), order)
            for order in orders[:2]
        ]
        backend_module._ROUTE_MEMOS.clear()
        routed.clear()
        nets = [make_backend("fast", MeshTopology(*shape), Engine())
                for _ in range(8)]
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(k):
            barrier.wait()
            results[k] = run(nets[k], orders[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for k, result in enumerate(results):
            assert result == expected[k % 2]
        assert sorted(routed) == sorted((*shape, False, s, d) for s, d in pairs)
