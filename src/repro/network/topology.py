"""Physical structure of the wormhole-switched 2D mesh.

Every processor is connected to its neighbours by bidirectional links
(paper Fig. 1), modelled as two opposed unidirectional *channels*.  Each
node additionally owns an *injection* channel (processor into router) and
an *ejection* channel (router into processor); packets from one source
serialise at its injection channel exactly as in ProcSimity.

Nodes are the row-major ids ``y * W + x`` that allocations carry
(:meth:`repro.mesh.geometry.SubMesh.node_ids`); ``divmod(node, W)``
recovers ``(y, x)`` where a coordinate is needed.  Channels are
identified by dense integer indices (``node_id * 6 + dir``) so the
simulator can keep per-channel state in flat arrays.
"""

from __future__ import annotations

import enum


class Direction(enum.IntEnum):
    """Channel classes per node."""

    INJ = 0  #: processor -> router
    EJ = 1  #: router -> processor
    EAST = 2  #: to (x+1, y)
    WEST = 3  #: to (x-1, y)
    NORTH = 4  #: to (x, y+1)
    SOUTH = 5  #: to (x, y-1)


_CHANNELS_PER_NODE = len(Direction)


class MeshTopology:
    """Node and channel arithmetic for a ``W x L`` mesh or torus.

    With ``wrap=True`` the boundary links wrap around (a 2D torus) --
    the paper's stated future-work direction ("it would be interesting
    to assess the performance of the allocation strategies on other
    common multicomputer networks, such as torus networks").  The
    channel index space is identical; wrapping only changes which links
    exist and how routes are computed.
    """

    __slots__ = ("width", "length", "wrap")

    def __init__(self, width: int, length: int, wrap: bool = False) -> None:
        if width <= 0 or length <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {width}x{length}")
        self.width = width
        self.length = length
        self.wrap = wrap

    # ------------------------------------------------------------ nodes
    @property
    def node_count(self) -> int:
        return self.width * self.length

    @property
    def channel_count(self) -> int:
        return self.node_count * _CHANNELS_PER_NODE

    # --------------------------------------------------------- channels
    def channel(self, node_id: int, direction: Direction) -> int:
        """Dense channel index for ``direction`` out of ``node_id``."""
        return node_id * _CHANNELS_PER_NODE + direction

    def channel_owner(self, channel: int) -> tuple[int, Direction]:
        """Inverse of :meth:`channel`.

        No simulator path calls it; the routing tests use it with
        :meth:`neighbour` as the oracle that walks a route hop by hop.
        """
        return channel // _CHANNELS_PER_NODE, Direction(channel % _CHANNELS_PER_NODE)

    def link_exists(self, node_id: int, direction: Direction) -> bool:
        """Whether the directional link exists (boundaries wrap on a torus)."""
        if self.wrap:
            return True
        y, x = divmod(node_id, self.width)
        if direction == Direction.EAST:
            return x + 1 < self.width
        if direction == Direction.WEST:
            return x - 1 >= 0
        if direction == Direction.NORTH:
            return y + 1 < self.length
        if direction == Direction.SOUTH:
            return y - 1 >= 0
        return True  # INJ/EJ always exist

    def neighbour(self, node_id: int, direction: Direction) -> int:
        """Node on the other end of a directional link.

        No simulator path calls it; the routing tests use it with
        :meth:`channel_owner` as the oracle that walks a route hop by hop.
        """
        if not self.link_exists(node_id, direction):
            raise ValueError(f"no {direction.name} link at node {node_id}")
        W, L = self.width, self.length
        y, x = divmod(node_id, W)
        if direction == Direction.EAST:
            return y * W + (x + 1) % W
        if direction == Direction.WEST:
            return y * W + (x - 1) % W
        if direction == Direction.NORTH:
            return (y + 1) % L * W + x
        if direction == Direction.SOUTH:
            return (y - 1) % L * W + x
        raise ValueError(f"{direction.name} is not a link direction")

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes on this topology."""
        sy, sx = divmod(src, self.width)
        ty, tx = divmod(dst, self.width)
        dx, dy = abs(sx - tx), abs(sy - ty)
        if self.wrap:
            dx = min(dx, self.width - dx)
            dy = min(dy, self.length - dy)
        return dx + dy
