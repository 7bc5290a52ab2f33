"""Unit tests for repro.mesh.geometry (paper section 2 definitions)."""

import pytest
from hypothesis import given, strategies as st

from repro.mesh.geometry import Coord, SubMesh, clip_side, shape_for_size


class TestCoord:
    def test_fields(self):
        c = Coord(3, 5)
        assert c.x == 3 and c.y == 5

    def test_tuple_behaviour(self):
        assert Coord(1, 2) == (1, 2)


class TestSubMesh:
    def test_paper_example(self):
        """(0, 0, 2, 1) is the 3x2 sub-mesh S of the paper's Fig. 1."""
        s = SubMesh(0, 0, 2, 1)
        assert s.width == 3
        assert s.length == 2
        assert s.area == 6
        assert s.base == Coord(0, 0)
        assert s.end == Coord(2, 1)

    def test_from_base(self):
        s = SubMesh.from_base(1, 2, 3, 4)
        assert s == SubMesh(1, 2, 3, 5)
        assert s.width == 3 and s.length == 4

    def test_single_node(self):
        s = SubMesh(5, 5, 5, 5)
        assert s.area == 1
        assert s.node_ids(8) == [5 * 8 + 5]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SubMesh(3, 0, 2, 0)
        with pytest.raises(ValueError):
            SubMesh(0, 3, 0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SubMesh(-1, 0, 2, 2)

    def test_zero_side_rejected(self):
        with pytest.raises(ValueError):
            SubMesh.from_base(0, 0, 0, 3)

    def test_nodes_row_major(self):
        s = SubMesh(1, 1, 2, 2)
        # (1, 1), (2, 1), (1, 2), (2, 2) on a 4-wide mesh
        assert s.node_ids(4) == [5, 6, 9, 10]

    def test_nodes_count_is_area(self):
        s = SubMesh.from_base(2, 3, 4, 5)
        assert len(s.node_ids(8)) == s.area == 20

    @given(
        x=st.integers(0, 9), y=st.integers(0, 9),
        w=st.integers(1, 6), l=st.integers(1, 6), pad=st.integers(0, 3),
    )
    def test_node_ids_are_row_major_cells(self, x, y, w, l, pad):
        """``divmod(id, W)`` recovers exactly the member cells, y outer."""
        s = SubMesh.from_base(x, y, w, l)
        width = x + w + pad
        cells = [divmod(n, width) for n in s.node_ids(width)]
        assert cells == [
            (cy, cx) for cy in range(y, y + l) for cx in range(x, x + w)
        ]

    def test_immutability(self):
        s = SubMesh(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            s.x1 = 5

    @given(
        x=st.integers(0, 10), y=st.integers(0, 10),
        w=st.integers(1, 10), l=st.integers(1, 10),
    )
    def test_from_base_roundtrip(self, x, y, w, l):
        s = SubMesh.from_base(x, y, w, l)
        assert (s.width, s.length) == (w, l)
        assert s.base == Coord(x, y)
        assert s.area == w * l


class TestClipSide:
    def test_in_range(self):
        assert clip_side(5.4, 10) == 5

    def test_below(self):
        assert clip_side(0.01, 10) == 1
        assert clip_side(-3.0, 10) == 1

    def test_above(self):
        assert clip_side(99.0, 10) == 10

    def test_rounding(self):
        assert clip_side(4.5, 10) == 4  # banker's rounding via round()
        assert clip_side(4.6, 10) == 5


class TestShapeForSize:
    def test_exact_square(self):
        assert shape_for_size(16, 16, 22) == (4, 4)

    def test_single(self):
        assert shape_for_size(1, 16, 22) == (1, 1)

    def test_prime(self):
        w, l = shape_for_size(13, 16, 22)
        assert w * l >= 13
        assert w <= 16 and l <= 22

    def test_full_machine(self):
        w, l = shape_for_size(352, 16, 22)
        assert (w, l) == (16, 22)

    def test_too_big(self):
        with pytest.raises(ValueError):
            shape_for_size(353, 16, 22)

    def test_non_positive(self):
        with pytest.raises(ValueError):
            shape_for_size(0, 16, 22)

    @given(size=st.integers(1, 352))
    def test_covers_and_minimal_waste(self, size):
        w, l = shape_for_size(size, 16, 22)
        assert 1 <= w <= 16 and 1 <= l <= 22
        assert w * l >= size
        # waste is at most one side length minus one
        assert w * l - size < max(w, l)

    @given(size=st.integers(1, 64))
    def test_square_inputs_square_outputs(self, size):
        """Perfect squares within caps shape to squares."""
        root = int(size ** 0.5)
        if root * root == size and root <= 8:
            assert shape_for_size(size, 8, 8) == (root, root)
