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

from repro.mesh.geometry import Coord
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


def xy_route(topology: MeshTopology, src: Coord, dst: Coord) -> list[int]:
    """Channel index path from ``src`` to ``dst``: injection, links, ejection."""
    if src == dst:
        raise ValueError("no route from a node to itself")
    W, L, wrap = topology.width, topology.length, topology.wrap
    src_id = src.y * W + src.x
    dst_id = dst.y * W + dst.x
    path: list[int] = [src_id * 6 + Direction.INJ]

    x, y = src.x, src.y
    hops, step = _dimension_steps(src.x, dst.x, W, wrap)
    channel_dir = Direction.EAST if step > 0 else Direction.WEST
    for _ in range(hops):
        path.append((y * W + x) * 6 + channel_dir)
        x = (x + step) % W
    hops, step = _dimension_steps(src.y, dst.y, L, wrap)
    channel_dir = Direction.NORTH if step > 0 else Direction.SOUTH
    for _ in range(hops):
        path.append((y * W + x) * 6 + channel_dir)
        y = (y + step) % L

    assert y * W + x == dst_id
    path.append(dst_id * 6 + Direction.EJ)
    return path


def xy_route_nodes(topology: MeshTopology, src: Coord, dst: Coord) -> list[Coord]:
    """Node sequence visited by the XY route (inclusive of endpoints)."""
    W, L, wrap = topology.width, topology.length, topology.wrap
    nodes: list[Coord] = [src]
    x, y = src.x, src.y
    hops, step = _dimension_steps(src.x, dst.x, W, wrap)
    for _ in range(hops):
        x = (x + step) % W
        nodes.append(Coord(x, y))
    hops, step = _dimension_steps(src.y, dst.y, L, wrap)
    for _ in range(hops):
        y = (y + step) % L
        nodes.append(Coord(x, y))
    return nodes


def route_hops(src: Coord, dst: Coord) -> int:
    """Link-hop count of the mesh XY route (the Manhattan distance)."""
    return abs(src.x - dst.x) + abs(src.y - dst.y)

