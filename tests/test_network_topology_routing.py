"""Unit tests for mesh topology and XY routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.geometry import SubMesh
from repro.network.routing import xy_route, xy_route_nodes
from repro.network.topology import Direction, MeshTopology


@pytest.fixture
def topo() -> MeshTopology:
    return MeshTopology(4, 4)


def node(x, y, w=4):
    """Row-major node id of ``(x, y)`` on a ``w``-wide mesh."""
    return y * w + x


class TestTopology:
    def test_counts(self, topo):
        assert topo.node_count == 16
        assert topo.channel_count == 96  # 6 per node

    def test_whole_mesh_ids_are_dense(self, topo):
        whole = SubMesh(0, 0, topo.width - 1, topo.length - 1)
        assert whole.node_ids(topo.width) == list(range(topo.node_count))

    def test_channel_roundtrip(self, topo):
        for nid in (0, 7, 15):
            for d in Direction:
                ch = topo.channel(nid, d)
                assert topo.channel_owner(ch) == (nid, d)

    def test_link_exists_boundaries(self, topo):
        origin = node(0, 0)
        assert topo.link_exists(origin, Direction.EAST)
        assert topo.link_exists(origin, Direction.NORTH)
        assert not topo.link_exists(origin, Direction.WEST)
        assert not topo.link_exists(origin, Direction.SOUTH)
        corner = node(3, 3)
        assert not topo.link_exists(corner, Direction.EAST)
        assert not topo.link_exists(corner, Direction.NORTH)

    def test_neighbour(self, topo):
        n = node(1, 1)
        assert topo.neighbour(n, Direction.EAST) == node(2, 1)
        assert topo.neighbour(n, Direction.NORTH) == node(1, 2)
        assert topo.neighbour(n, Direction.WEST) == node(0, 1)
        assert topo.neighbour(n, Direction.SOUTH) == node(1, 0)

    def test_neighbour_off_mesh_raises(self, topo):
        with pytest.raises(ValueError):
            topo.neighbour(node(0, 0), Direction.WEST)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4)


class TestXYRoute:
    def test_structure(self, topo):
        src, dst = node(0, 0), node(2, 1)
        path = xy_route(topo, src, dst)
        # injection + 2 east + 1 north + ejection
        assert len(path) == 5
        assert path[0] == topo.channel(src, Direction.INJ)
        assert path[-1] == topo.channel(dst, Direction.EJ)

    def test_x_before_y(self, topo):
        path = xy_route(topo, node(0, 0), node(2, 2))
        dirs = [topo.channel_owner(c)[1] for c in path[1:-1]]
        assert dirs == [
            Direction.EAST, Direction.EAST, Direction.NORTH, Direction.NORTH
        ]

    def test_westward_and_southward(self, topo):
        path = xy_route(topo, node(3, 3), node(1, 1))
        dirs = [topo.channel_owner(c)[1] for c in path[1:-1]]
        assert dirs == [
            Direction.WEST, Direction.WEST, Direction.SOUTH, Direction.SOUTH
        ]

    def test_adjacent(self, topo):
        path = xy_route(topo, node(1, 1), node(2, 1))
        assert len(path) == 3

    def test_self_route_rejected(self, topo):
        with pytest.raises(ValueError):
            xy_route(topo, node(1, 1), node(1, 1))

    @settings(max_examples=80, deadline=None)
    @given(
        sx=st.integers(0, 15), sy=st.integers(0, 21),
        dx=st.integers(0, 15), dy=st.integers(0, 21),
    )
    def test_length_is_manhattan_plus_two(self, sx, sy, dx, dy):
        src, dst = node(sx, sy, w=16), node(dx, dy, w=16)
        if src == dst:
            return
        topo = MeshTopology(16, 22)
        path = xy_route(topo, src, dst)
        assert len(path) == abs(sx - dx) + abs(sy - dy) + 2

    @settings(max_examples=50, deadline=None)
    @given(
        sx=st.integers(0, 7), sy=st.integers(0, 7),
        dx=st.integers(0, 7), dy=st.integers(0, 7),
    )
    def test_channels_unique(self, sx, sy, dx, dy):
        """Minimal routes never revisit a channel (deadlock-freedom basis)."""
        src, dst = node(sx, sy, w=8), node(dx, dy, w=8)
        if src == dst:
            return
        topo = MeshTopology(8, 8)
        path = xy_route(topo, src, dst)
        assert len(set(path)) == len(path)


class TestRouteNodes:
    def test_node_walk(self):
        topo = MeshTopology(4, 4)
        nodes = xy_route_nodes(topo, node(0, 0), node(2, 1))
        assert nodes == [
            node(0, 0), node(1, 0), node(2, 0), node(2, 1)
        ]

    def test_hops(self):
        topo = MeshTopology(8, 8)
        assert topo.distance(node(0, 0, w=8), node(3, 4, w=8)) == 7


class TestRouteAllPairs:
    """Every XY route is a minimal, link-by-link walk over the topology."""

    @pytest.mark.parametrize("wrap", [False, True])
    # (6, 5): an even torus ring, where both ways round tie, next to an
    # odd one; (1, 9) and (5, 1): degenerate single-row/column meshes
    @pytest.mark.parametrize("dims", [(8, 8), (6, 5), (1, 9), (5, 1)])
    def test_channels_walk_the_node_path(self, wrap, dims):
        topo = MeshTopology(*dims, wrap=wrap)
        x_dirs = {Direction.EAST, Direction.WEST}
        for s in range(topo.node_count):
            for d in range(topo.node_count):
                if s == d:
                    continue
                path = xy_route(topo, s, d)
                assert path[0] == topo.channel(s, Direction.INJ)
                assert path[-1] == topo.channel(d, Direction.EJ)
                assert len(path) == topo.distance(s, d) + 2
                at, walk, dirs = s, [s], []
                for ch in path[1:-1]:
                    owner, direction = topo.channel_owner(ch)
                    assert owner == at and topo.link_exists(at, direction)
                    at = topo.neighbour(at, direction)
                    walk.append(at)
                    dirs.append(direction in x_dirs)
                assert at == d, (s, d, wrap, dims)
                # dimension order: every x hop precedes every y hop
                assert dirs == sorted(dirs, reverse=True)
                assert walk == xy_route_nodes(topo, s, d)
