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
"""

from hypothesis import given, settings
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


def staggered_times(n: int) -> list[float]:
    """Injection times spaced by one worst-case header flight.

    ``(max_hops + 2) * hop_cost`` bounds how long any header needs to
    finish all its channel crossings, so packet ``i + 1`` is always
    injected after packet ``i``'s reservations are physically decided --
    while channels stay occupied for ``P_LEN`` cycles, far longer, so
    later packets still block on earlier ones.
    """
    flight = (WIDTH + LENGTH + 2) * (T_S + 1.0)
    return [i * flight for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.lists(packet, min_size=1, max_size=14))
def test_fast_equals_causal_on_staggered_injections(packets):
    topo = MeshTopology(WIDTH, LENGTH)
    fast = make_backend("fast", topo, Engine(), t_s=T_S, p_len=P_LEN)
    times = staggered_times(len(packets))
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
    times = staggered_times(len(packets))
    for (src, dst), at in zip(packets, times):
        assert batch.transmit(src, dst, at) == fast.transmit(src, dst, at)
