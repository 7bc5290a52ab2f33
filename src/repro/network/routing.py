"""XY dimension-ordered routing.

Wormhole-switched meshes use deterministic XY routing: a packet first
travels along the x dimension to the destination column, then along y.
Channels are therefore acquired in a fixed total order (x-channels before
y-channels for any single packet), which makes the mesh deadlock-free --
the property that justifies the hold-and-wait wormhole protocol.

On a torus (``topology.wrap``) each dimension independently takes the
shorter way around (ties break towards the positive direction).  Note
that hold-and-wait wormhole switching on a torus needs virtual channels
to stay deadlock-free; the reservation-based engines used here do not
hold-and-wait, and the single-flit-buffer engine refuses torus
topologies (see :mod:`repro.network.wormhole`).
"""

from __future__ import annotations

from repro.network.topology import Direction, MeshTopology


def _dimension_steps(src: int, dst: int, size: int, wrap: bool) -> tuple[int, int]:
    """(number of hops, signed direction) along one dimension."""
    if dst == src:
        return 0, 1
    forward = (dst - src) % size
    backward = (src - dst) % size
    if not wrap:
        return (dst - src, 1) if dst > src else (src - dst, -1)
    if forward <= backward:
        return forward, 1
    return backward, -1


def xy_route(topology: MeshTopology, src: int, dst: int) -> list[int]:
    """Channel path from node ``src`` to node ``dst``: injection, links, ejection."""
    if src == dst:
        raise ValueError("no route from a node to itself")
    W, L, wrap = topology.width, topology.length, topology.wrap
    path: list[int] = [src * 6 + Direction.INJ]

    y, x = divmod(src, W)
    dst_y, dst_x = divmod(dst, W)
    hops, step = _dimension_steps(x, dst_x, W, wrap)
    channel_dir = Direction.EAST if step > 0 else Direction.WEST
    for _ in range(hops):
        path.append((y * W + x) * 6 + channel_dir)
        x = (x + step) % W
    hops, step = _dimension_steps(y, dst_y, L, wrap)
    channel_dir = Direction.NORTH if step > 0 else Direction.SOUTH
    for _ in range(hops):
        path.append((y * W + x) * 6 + channel_dir)
        y = (y + step) % L

    assert y * W + x == dst
    path.append(dst * 6 + Direction.EJ)
    return path


def xy_route_nodes(topology: MeshTopology, src: int, dst: int) -> list[int]:
    """Node ids visited by the XY route (inclusive of endpoints)."""
    W, L, wrap = topology.width, topology.length, topology.wrap
    nodes: list[int] = [src]
    y, x = divmod(src, W)
    dst_y, dst_x = divmod(dst, W)
    hops, step = _dimension_steps(x, dst_x, W, wrap)
    for _ in range(hops):
        x = (x + step) % W
        nodes.append(y * W + x)
    hops, step = _dimension_steps(y, dst_y, L, wrap)
    for _ in range(hops):
        y = (y + step) % L
        nodes.append(y * W + x)
    return nodes
