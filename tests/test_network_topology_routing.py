"""Unit tests for mesh topology and XY routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.geometry import Coord
from repro.network.routing import route_hops, xy_route, xy_route_nodes
from repro.network.topology import Direction, MeshTopology


@pytest.fixture
def topo() -> MeshTopology:
    return MeshTopology(4, 4)


class TestTopology:
    def test_counts(self, topo):
        assert topo.node_count == 16
        assert topo.channel_count == 96  # 6 per node

    def test_node_roundtrip(self, topo):
        for nid in range(topo.node_count):
            assert topo.node_id(topo.coord_of(nid)) == nid

    def test_channel_roundtrip(self, topo):
        for nid in (0, 7, 15):
            for d in Direction:
                ch = topo.channel(nid, d)
                assert topo.channel_owner(ch) == (nid, d)

    def test_link_exists_boundaries(self, topo):
        origin = topo.node_id(Coord(0, 0))
        assert topo.link_exists(origin, Direction.EAST)
        assert topo.link_exists(origin, Direction.NORTH)
        assert not topo.link_exists(origin, Direction.WEST)
        assert not topo.link_exists(origin, Direction.SOUTH)
        corner = topo.node_id(Coord(3, 3))
        assert not topo.link_exists(corner, Direction.EAST)
        assert not topo.link_exists(corner, Direction.NORTH)

    def test_neighbour(self, topo):
        n = topo.node_id(Coord(1, 1))
        assert topo.neighbour(n, Direction.EAST) == topo.node_id(Coord(2, 1))
        assert topo.neighbour(n, Direction.NORTH) == topo.node_id(Coord(1, 2))
        assert topo.neighbour(n, Direction.WEST) == topo.node_id(Coord(0, 1))
        assert topo.neighbour(n, Direction.SOUTH) == topo.node_id(Coord(1, 0))

    def test_neighbour_off_mesh_raises(self, topo):
        with pytest.raises(ValueError):
            topo.neighbour(topo.node_id(Coord(0, 0)), Direction.WEST)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4)


class TestXYRoute:
    def test_structure(self, topo):
        path = xy_route(topo, Coord(0, 0), Coord(2, 1))
        # injection + 2 east + 1 north + ejection
        assert len(path) == 5
        src_id = topo.node_id(Coord(0, 0))
        dst_id = topo.node_id(Coord(2, 1))
        assert path[0] == topo.channel(src_id, Direction.INJ)
        assert path[-1] == topo.channel(dst_id, Direction.EJ)

    def test_x_before_y(self, topo):
        path = xy_route(topo, Coord(0, 0), Coord(2, 2))
        dirs = [topo.channel_owner(c)[1] for c in path[1:-1]]
        assert dirs == [
            Direction.EAST, Direction.EAST, Direction.NORTH, Direction.NORTH
        ]

    def test_westward_and_southward(self, topo):
        path = xy_route(topo, Coord(3, 3), Coord(1, 1))
        dirs = [topo.channel_owner(c)[1] for c in path[1:-1]]
        assert dirs == [
            Direction.WEST, Direction.WEST, Direction.SOUTH, Direction.SOUTH
        ]

    def test_adjacent(self, topo):
        path = xy_route(topo, Coord(1, 1), Coord(2, 1))
        assert len(path) == 3

    def test_self_route_rejected(self, topo):
        with pytest.raises(ValueError):
            xy_route(topo, Coord(1, 1), Coord(1, 1))

    @settings(max_examples=80, deadline=None)
    @given(
        sx=st.integers(0, 15), sy=st.integers(0, 21),
        dx=st.integers(0, 15), dy=st.integers(0, 21),
    )
    def test_length_is_manhattan_plus_two(self, sx, sy, dx, dy):
        src, dst = Coord(sx, sy), Coord(dx, dy)
        if src == dst:
            return
        topo = MeshTopology(16, 22)
        path = xy_route(topo, src, dst)
        assert len(path) == src.manhattan(dst) + 2

    @settings(max_examples=50, deadline=None)
    @given(
        sx=st.integers(0, 7), sy=st.integers(0, 7),
        dx=st.integers(0, 7), dy=st.integers(0, 7),
    )
    def test_channels_unique(self, sx, sy, dx, dy):
        """Minimal routes never revisit a channel (deadlock-freedom basis)."""
        src, dst = Coord(sx, sy), Coord(dx, dy)
        if src == dst:
            return
        topo = MeshTopology(8, 8)
        path = xy_route(topo, src, dst)
        assert len(set(path)) == len(path)


class TestRouteNodes:
    def test_node_walk(self):
        topo = MeshTopology(4, 4)
        nodes = xy_route_nodes(topo, Coord(0, 0), Coord(2, 1))
        assert nodes == [
            Coord(0, 0), Coord(1, 0), Coord(2, 0), Coord(2, 1)
        ]

    def test_hops(self):
        assert route_hops(Coord(0, 0), Coord(3, 4)) == 7


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
            src = topo.coord_of(s)
            for d in range(topo.node_count):
                if s == d:
                    continue
                dst = topo.coord_of(d)
                path = xy_route(topo, src, dst)
                assert path[0] == topo.channel(s, Direction.INJ)
                assert path[-1] == topo.channel(d, Direction.EJ)
                assert len(path) == topo.distance(src, dst) + 2
                node, walk, dirs = s, [src], []
                for ch in path[1:-1]:
                    owner, direction = topo.channel_owner(ch)
                    assert owner == node and topo.link_exists(node, direction)
                    node = topo.neighbour(node, direction)
                    walk.append(topo.coord_of(node))
                    dirs.append(direction in x_dirs)
                assert node == d, (src, dst, wrap, dims)
                # dimension order: every x hop precedes every y hop
                assert dirs == sorted(dirs, reverse=True)
                assert walk == xy_route_nodes(topo, src, dst)
