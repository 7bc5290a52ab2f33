"""Property-style tests of the wormhole engines' documented agreements.

The ``fast`` docstring claims that with *time-staggered* injections its
whole-path reservation order coincides exactly with ``causal`` mode's
FIFO-by-arrival arbitration: when each packet is injected after the
previous packet's header has finished every channel crossing, arrival
order at every shared channel equals reservation order, so the two
engines must agree packet-for-packet -- not just on aggregates -- even
while channels are still occupied by earlier packets' bodies (a long
``p_len`` keeps real cross-packet contention in play).  This was an
untested prose claim; here it is enforced as a property over randomly
generated packet sets.

The ``batch`` backend's whole-launch kernel is held to the ``fast``
reference loop the same way: bit-identical launch statistics and
reservation tables over generated shapes, node subsets and offsets.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.network.backend import make_backend
from repro.network.topology import MeshTopology

WIDTH = LENGTH = 8
#: long packets relative to the flight time => heavy channel occupancy
P_LEN = 48
T_S = 1.0

node = st.integers(0, WIDTH * LENGTH - 1)

packet = st.tuples(node, node).filter(lambda sd: sd[0] != sd[1])


def staggered_times(packets: list[tuple[int, int]]) -> list[float]:
    """Injection times at which every earlier header has finished.

    Packet ``i + 1`` is injected when packet ``i``'s header finishes its
    final channel crossing (``t_deliver - drain`` on ``fast``, source
    queueing included), by which time every earlier header has finished
    too, so every reservation is physically decided before the next
    packet asks for a channel --
    while channels stay occupied for ``P_LEN`` cycles, far longer, so
    later packets still block on earlier ones.  A fixed spacing of one
    uncontended flight is not enough: a packet that queues at its
    source can still be routing its header when the next one starts.
    """
    fast = make_backend("fast", MeshTopology(WIDTH, LENGTH), Engine(),
                        t_s=T_S, p_len=P_LEN)
    times = []
    at = 0.0
    for src, dst in packets:
        times.append(at)
        at = fast.transmit(src, dst, at).t_deliver - fast.drain
    return times


@settings(max_examples=60, deadline=None)
@given(st.lists(packet, min_size=1, max_size=14))
# packet 3 queues at its source until t=132 and routes its header until
# t=152: a fixed stagger injected packet 4 at t=144, mid-route
@example(packets=[(3, 0), (2, 0), (2, 0), (2, 1), (0, 1)])
def test_fast_equals_causal_on_staggered_injections(packets):
    topo = MeshTopology(WIDTH, LENGTH)
    fast = make_backend("fast", topo, Engine(), t_s=T_S, p_len=P_LEN)
    times = staggered_times(packets)
    fast_timings = [
        fast.transmit(src, dst, at)
        for (src, dst), at in zip(packets, times)
    ]

    engine = Engine()
    causal = make_backend("causal", topo, engine, t_s=T_S, p_len=P_LEN)
    causal_timings: list = [None] * len(packets)

    def collect(i):
        # deliveries may complete out of injection order; index by packet
        return lambda timing: causal_timings.__setitem__(i, timing)

    for i, ((src, dst), at) in enumerate(zip(packets, times)):
        engine.schedule_at(at, causal.send, src, dst, at, collect(i))
    engine.run()

    assert None not in causal_timings
    # exact agreement, packet for packet -- including blocking accounting
    assert causal_timings == fast_timings


@settings(max_examples=40, deadline=None)
@given(st.lists(packet, min_size=1, max_size=14))
def test_batch_equals_fast_on_staggered_injections(packets):
    """The batch backend's single-packet path shares the reference
    arithmetic, so it inherits the staggered agreement with causal."""
    topo = MeshTopology(WIDTH, LENGTH)
    fast = make_backend("fast", topo, Engine(), t_s=T_S, p_len=P_LEN)
    batch = make_backend("batch", topo, Engine(), t_s=T_S, p_len=P_LEN)
    times = staggered_times(packets)
    for (src, dst), at in zip(packets, times):
        assert batch.transmit(src, dst, at) == fast.transmit(src, dst, at)


def tenths(lo: int, hi: int):
    """Decimal fractions such as 0.3 or 7.1, which float64 rounds, so
    every sum and comparison in the recurrence is exercised inexactly."""
    return st.integers(lo, hi).map(lambda k: k / 10)


@st.composite
def launch_sequences(draw):
    """A mesh or torus of 1..9 x 1..9 (at least 2 nodes) and a few
    consecutive launches sharing its reservation table: each over a
    shuffled, not necessarily contiguous node subset, with offsets of
    any sign or size that never name the sender itself."""
    width = draw(st.integers(1, 9))
    length = draw(st.integers(1 if width > 1 else 2, 9))
    topo = MeshTopology(width, length, wrap=draw(st.booleans()))
    launches = []
    now = 0.0
    for _ in range(draw(st.integers(1, 4))):
        nodes = draw(st.lists(st.integers(0, topo.node_count - 1),
                              min_size=2, max_size=topo.node_count,
                              unique=True))
        n = len(nodes)
        offsets = draw(st.lists(
            st.integers(-(2**63), 2**63 - 1).filter(lambda o: o % n != 0),
            min_size=1, max_size=5,
        ))
        now += draw(tenths(0, 900))
        launches.append((nodes, offsets, now, draw(tenths(1, 400))))
    return topo, draw(tenths(0, 60)), draw(tenths(10, 160)), launches


def stats_bits(stats):
    """``RoundStats`` with every float as its IEEE-754 bytes: ``==``
    alone cannot tell a blocking sum of -0.0 from +0.0."""
    return {k: struct.pack("<d", v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(stats).items()}


def assert_batch_matches_fast(topo, t_s, p_len, launches):
    fast = make_backend("fast", topo, Engine(), t_s=t_s, p_len=p_len)
    batch = make_backend("batch", topo, Engine(), t_s=t_s, p_len=p_len)
    for nodes, offsets, now, gap in launches:
        assert stats_bits(batch.inject_rounds(nodes, offsets, now, gap)) == \
            stats_bits(fast.inject_rounds(nodes, offsets, now, gap))
    assert np.array_equal(np.asarray(fast.free_at), np.asarray(batch.free_at))
    assert batch.packets_sent == fast.packets_sent


def edge_case(width, length, wrap, nodes, offsets):
    return (MeshTopology(width, length, wrap=wrap), 0.3, 7.1,
            [(nodes, offsets, 0.0, 1.7), (nodes[::-1], offsets, 5.3, 0.9)])


@settings(max_examples=150, deadline=None)
@given(launch_sequences())
@example(edge_case(1, 9, False, [8, 0, 3, 5], [1, -2, 7]))
@example(edge_case(9, 1, True, [2, 7, 0, 4, 8], [-1, 3, 2**40]))
@example(edge_case(2, 2, True, [3, 0, 2, 1], [1, 2, 3, -5]))
def test_batch_launches_equal_fast_launches(case):
    """``batch.inject_rounds`` (the compiled XY walk, when built) agrees
    with the ``fast`` reference loop bit for bit, launch after launch,
    on every shape and node order the kernel's strided walk can meet."""
    assert_batch_matches_fast(*case)


def test_negative_offset_launch_equals_fast():
    """A negative offset selects ``nodes[(i + offset) % n]`` with
    Python's ``%``; the kernel must never index before the node list."""
    topo = MeshTopology(4, 4)
    nodes = list(range(16))
    assert_batch_matches_fast(topo, 3.0, 8, [
        (nodes, [-1], 0.0, 16.0),
        (nodes, [1, -5, 3], 40.0, 16.0),
    ])


@pytest.mark.parametrize("mode", ("fast", "batch"))
def test_contention_free_blocking_is_positive_zero(mode):
    """A launch that never stalls accrues a blocking sum of +0.0, sign
    bit clear: the compiled walk adds ``s - t == +0.0`` on every
    unstalled hop, which must leave the +0.0 it starts from alone."""
    backend = make_backend(mode, MeshTopology(4, 4), Engine())
    stats = backend.inject_rounds([0, 5], [1], 0.0, 16.0)
    assert struct.pack("<d", stats.blocking_sum) == struct.pack("<d", 0.0)


def test_contended_blocking_bits_equal_fast():
    """Every node of a 4 x 4 mesh sends in one burst of rounds, so
    packets stall; ``batch`` gives the bits ``fast`` gives."""
    nodes = list(range(16))
    stats = [make_backend(mode, MeshTopology(4, 4), Engine())
             .inject_rounds(nodes, [1, 5, -3, 8], 0.0, 2.0)
             for mode in ("fast", "batch")]
    assert stats[0].blocking_sum > 0.0
    assert stats_bits(stats[0]) == stats_bits(stats[1])


def test_repeated_nodes_launch_equals_fast():
    """A node list longer than the mesh (ids repeated, no self-sends)
    gets a coordinate scratch of its own size, not a heap overrun."""
    topo = MeshTopology(2, 1)
    fast = make_backend("fast", topo, Engine())
    batch = make_backend("batch", topo, Engine())
    nodes = [0, 1] * 3
    assert batch.inject_rounds(nodes, [1, 3, -1], 0.0, 16.0) == \
        fast.inject_rounds(nodes, [1, 3, -1], 0.0, 16.0)
    assert np.array_equal(np.asarray(fast.free_at), np.asarray(batch.free_at))
    if batch.kernel is not None:
        assert len(batch._xy) >= 2 * len(nodes)
