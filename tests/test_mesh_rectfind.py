"""Unit + property tests for repro.mesh.rectfind against brute force."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import MeshGrid
from repro.mesh.rectfind import (
    all_suitable_bases,
    find_suitable_submesh,
    largest_free_rect,
    largest_free_rect_bounded,
)
from tests.conftest import (
    brute_force_largest_bounded,
    brute_force_suitable,
    random_occupancy,
    submesh_free,
)


class TestFindSuitable:
    def test_empty_grid(self, grid8):
        s = find_suitable_submesh(grid8, 3, 4)
        assert s == SubMesh.from_base(0, 0, 3, 4)

    def test_full_size(self, grid8):
        assert find_suitable_submesh(grid8, 8, 8) is not None

    def test_too_big(self, grid8):
        assert find_suitable_submesh(grid8, 9, 1) is None
        assert find_suitable_submesh(grid8, 1, 9) is None

    def test_invalid_request(self, grid8):
        with pytest.raises(ValueError):
            find_suitable_submesh(grid8, 0, 3)

    def test_row_major_first(self, grid8):
        # block the origin so the first fit moves right
        grid8.allocate_nodes([Coord(0, 0)], 1)
        s = find_suitable_submesh(grid8, 2, 2)
        assert s == SubMesh.from_base(1, 0, 2, 2)

    def test_wraps_to_next_row(self, grid8):
        # block all of row 0
        grid8.allocate_submesh(SubMesh.from_base(0, 0, 8, 1), 1)
        s = find_suitable_submesh(grid8, 2, 2)
        assert s == SubMesh.from_base(0, 1, 2, 2)

    def test_paper_fig1_scenario(self):
        """Fig. 1: no 2x2 contiguous sub-mesh among 4 scattered free nodes."""
        g = MeshGrid(4, 4)
        free = {Coord(0, 3), Coord(3, 3), Coord(1, 1), Coord(2, 0)}
        busy = [
            Coord(x, y) for y in range(4) for x in range(4)
            if Coord(x, y) not in free
        ]
        g.allocate_nodes(busy, 1)
        assert g.free_count == 4
        assert find_suitable_submesh(g, 2, 2) is None

    @settings(max_examples=60, deadline=None)
    @given(
        density=st.floats(0.0, 0.9),
        seed=st.integers(0, 1000),
        w=st.integers(1, 8),
        l=st.integers(1, 8),
    )
    def test_matches_brute_force(self, density, seed, w, l):
        g = MeshGrid(8, 8)
        random_occupancy(g, density, seed)
        assert find_suitable_submesh(g, w, l) == brute_force_suitable(g, w, l)


class TestAllSuitableBases:
    def test_empty_grid_count(self, grid8):
        bases = all_suitable_bases(grid8, 3, 3)
        assert len(bases) == 6 * 6

    def test_order_row_major(self, grid8):
        bases = all_suitable_bases(grid8, 7, 7)
        assert bases == [Coord(0, 0), Coord(1, 0), Coord(0, 1), Coord(1, 1)]

    def test_oversize_empty(self, grid8):
        assert all_suitable_bases(grid8, 9, 9) == []

    def test_every_base_is_free(self, grid8):
        random_occupancy(grid8, 0.4, 3)
        for b in all_suitable_bases(grid8, 2, 3):
            assert submesh_free(grid8, SubMesh.from_base(b.x, b.y, 2, 3))


class TestLargestFreeRect:
    def test_empty_grid(self, grid8):
        r = largest_free_rect(grid8)
        assert r is not None and r.area == 64

    def test_full_grid(self, grid8):
        grid8.allocate_submesh(SubMesh.from_base(0, 0, 8, 8), 1)
        assert largest_free_rect(grid8) is None

    def test_l_shape(self):
        # busy block leaves an L: best free rect is 8x4 = 32
        g = MeshGrid(8, 8)
        g.allocate_submesh(SubMesh.from_base(4, 4, 4, 4), 1)
        r = largest_free_rect(g)
        assert r is not None and r.area == 32

    def test_returned_rect_is_free(self, grid8):
        random_occupancy(grid8, 0.3, 11)
        r = largest_free_rect(grid8)
        assert r is not None
        assert submesh_free(grid8, r)

    @settings(max_examples=60, deadline=None)
    @given(density=st.floats(0.0, 0.95), seed=st.integers(0, 1000))
    def test_area_matches_brute_force(self, density, seed):
        g = MeshGrid(8, 8)
        random_occupancy(g, density, seed)
        r = largest_free_rect(g)
        expected = brute_force_largest_bounded(g)
        if expected == 0:
            assert r is None
        else:
            assert r is not None and r.area == expected


class TestLargestBounded:
    def test_side_bounds(self, grid8):
        r = largest_free_rect_bounded(grid8, max_w=3, max_l=5)
        assert r is not None
        assert r.width <= 3 and r.length <= 5
        assert r.area == 15

    def test_area_bound(self, grid8):
        r = largest_free_rect_bounded(grid8, max_area=10)
        assert r is not None
        assert r.area <= 10

    def test_area_bound_one(self, grid8):
        r = largest_free_rect_bounded(grid8, max_area=1)
        assert r is not None and r.area == 1

    def test_zero_area_bound(self, grid8):
        assert largest_free_rect_bounded(grid8, max_area=0) is None

    def test_respects_occupancy(self, grid8):
        random_occupancy(grid8, 0.5, 5)
        r = largest_free_rect_bounded(grid8, max_w=4, max_l=4, max_area=9)
        if r is not None:
            assert submesh_free(grid8, r)
            assert r.width <= 4 and r.length <= 4 and r.area <= 9

    @settings(max_examples=80, deadline=None)
    @given(
        density=st.floats(0.0, 0.95),
        seed=st.integers(0, 500),
        mw=st.integers(1, 8),
        ml=st.integers(1, 8),
        ma=st.integers(1, 64),
    )
    def test_bounded_matches_brute_force(self, density, seed, mw, ml, ma):
        g = MeshGrid(8, 8)
        random_occupancy(g, density, seed)
        r = largest_free_rect_bounded(g, mw, ml, ma)
        expected = brute_force_largest_bounded(g, mw, ml, ma)
        if expected == 0:
            assert r is None
        else:
            assert r is not None
            assert r.area == expected
            assert submesh_free(g, r)
            assert r.width <= mw and r.length <= ml and r.area <= ma


class TestExists:
    def test_exists_on_empty(self, grid8):
        assert find_suitable_submesh(grid8, 8, 8) == SubMesh(0, 0, 7, 7)

    def test_not_exists_when_blocked(self, grid8):
        grid8.allocate_nodes([Coord(4, 4)], 1)
        assert find_suitable_submesh(grid8, 8, 8) is None
