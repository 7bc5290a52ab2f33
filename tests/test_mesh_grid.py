"""Unit tests for repro.mesh.grid (occupancy state)."""

import numpy as np
import pytest

from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import FREE, MeshGrid
from tests.conftest import owned_by, owner_at, submeshes_disjoint


class TestConstruction:
    def test_dimensions(self):
        g = MeshGrid(16, 22)
        assert g.width == 16 and g.length == 22
        assert g.size == 352
        assert g.free_count == 352

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshGrid(0, 5)
        with pytest.raises(ValueError):
            MeshGrid(5, -1)


class TestNodeIds:
    def test_row_major(self):
        g = MeshGrid(4, 4)
        assert SubMesh(0, 0, 3, 3).node_ids(g.width) == list(range(g.size))

    def test_ids_index_the_occupancy_grid(self):
        """Node ids are flat indices into the grid's row-major state."""
        g = MeshGrid(5, 7)
        s = SubMesh(1, 2, 3, 5)
        g.allocate_submesh(s, 7)
        assert np.flatnonzero(~g.free_mask()).tolist() == s.node_ids(g.width)


class TestAllocateRelease:
    def test_submesh_cycle(self, grid8):
        s = SubMesh.from_base(1, 1, 3, 2)
        grid8.allocate_submesh(s, 42)
        assert grid8.free_count == 64 - 6
        assert owner_at(grid8, Coord(1, 1)) == 42
        assert not grid8.is_free(Coord(3, 2))
        assert grid8.is_free(Coord(4, 1))
        grid8.release_submesh(s, 42)
        assert grid8.free_count == 64
        grid8.validate()

    def test_double_allocation_rejected(self, grid8):
        s = SubMesh.from_base(0, 0, 2, 2)
        grid8.allocate_submesh(s, 1)
        with pytest.raises(ValueError, match="double allocation"):
            grid8.allocate_submesh(SubMesh.from_base(1, 1, 2, 2), 2)
        grid8.validate()

    def test_release_wrong_owner_rejected(self, grid8):
        s = SubMesh.from_base(0, 0, 2, 2)
        grid8.allocate_submesh(s, 1)
        with pytest.raises(ValueError, match="not owned"):
            grid8.release_submesh(s, 2)

    def test_release_free_rejected(self, grid8):
        with pytest.raises(ValueError, match="not owned"):
            grid8.release_submesh(SubMesh.from_base(0, 0, 1, 1), 1)

    def test_out_of_bounds_rejected(self, grid8):
        with pytest.raises(ValueError):
            grid8.allocate_submesh(SubMesh.from_base(7, 7, 2, 2), 1)

    def test_allocate_nodes(self, grid8):
        nodes = [Coord(0, 0), Coord(5, 5), Coord(7, 0)]
        grid8.allocate_nodes(nodes, 9)
        assert grid8.free_count == 61
        assert owner_at(grid8, Coord(5, 5)) == 9
        grid8.validate()

    def test_nodes_double_alloc_atomic(self, grid8):
        grid8.allocate_nodes([Coord(1, 1)], 1)
        with pytest.raises(ValueError):
            grid8.allocate_nodes([Coord(0, 0), Coord(1, 1)], 2)
        # atomicity: the non-conflicting node must not have been taken
        assert grid8.is_free(Coord(0, 0))
        grid8.validate()

    def test_owned_by(self, grid8):
        s = SubMesh.from_base(2, 3, 2, 1)
        grid8.allocate_submesh(s, 7)
        assert owned_by(grid8, 7) == [Coord(2, 3), Coord(3, 3)]
        assert owned_by(grid8, 8) == []

    def test_version_bumps(self, grid8):
        v0 = grid8.version
        grid8.allocate_nodes([Coord(0, 0)], 1)
        assert grid8.version > v0

    def test_reset(self, grid8):
        grid8.allocate_submesh(SubMesh.from_base(0, 0, 4, 4), 1)
        grid8.reset()
        assert grid8.free_count == 64
        assert owner_at(grid8, Coord(0, 0)) == FREE

    def test_busy_and_free_counts_partition_the_mesh(self, grid8):
        steps = [
            ("alloc", SubMesh.from_base(0, 0, 3, 2), 1),
            ("alloc", SubMesh.from_base(4, 4, 4, 4), 2),
            ("release", SubMesh.from_base(0, 0, 3, 2), 1),
            ("alloc", SubMesh.from_base(0, 0, 1, 8), 3),
        ]
        expected_busy = [6, 22, 16, 24]
        for (op, s, job), busy in zip(steps, expected_busy):
            if op == "alloc":
                grid8.allocate_submesh(s, job)
            else:
                grid8.release_submesh(s, job)
            assert grid8.size - grid8.free_count == busy
            grid8.validate()

    def test_partial_release_rejected_atomically(self, grid8):
        """A release that covers cells the job does not own changes
        nothing: owners, free count and version stay as they were."""
        grid8.allocate_submesh(SubMesh.from_base(0, 0, 2, 2), 1)
        grid8.allocate_submesh(SubMesh.from_base(2, 0, 2, 2), 2)
        v0, free0 = grid8.version, grid8.free_count
        with pytest.raises(ValueError, match="not owned"):
            grid8.release_submesh(SubMesh.from_base(0, 0, 4, 2), 1)
        assert grid8.version == v0
        assert grid8.free_count == free0
        assert owner_at(grid8, Coord(0, 0)) == 1
        assert owner_at(grid8, Coord(3, 1)) == 2
        grid8.validate()

    def test_failed_allocation_leaves_version(self, grid8):
        grid8.allocate_submesh(SubMesh.from_base(0, 0, 2, 2), 1)
        v0 = grid8.version
        with pytest.raises(ValueError):
            grid8.allocate_submesh(SubMesh.from_base(1, 1, 2, 2), 2)
        with pytest.raises(ValueError):
            grid8.allocate_nodes([Coord(5, 5), Coord(0, 0)], 3)
        assert grid8.version == v0
        assert owned_by(grid8, 2) == [] and owned_by(grid8, 3) == []

    def test_validate_checks_rows_against_owner_map(self, grid8):
        """A bit row that disagrees with the owner map is drift, even
        when the free count still matches."""
        grid8.allocate_submesh(SubMesh.from_base(1, 2, 3, 2), 4)
        grid8.validate()
        grid8.rows[2] ^= 0b11  # (0,2) now busy, (1,2) free: count unchanged
        with pytest.raises(AssertionError, match="row 2 drift"):
            grid8.validate()

    def test_rows_are_free_bitmasks(self, grid8):
        grid8.allocate_submesh(SubMesh.from_base(2, 1, 3, 2), 5)
        assert grid8.rows[0] == 0xFF
        assert grid8.rows[1] == grid8.rows[2] == 0xFF & ~0b11100
        grid8.release_submesh(SubMesh.from_base(2, 1, 3, 2), 5)
        assert grid8.rows == [0xFF] * 8

    def test_coordinate_queries_bounds_checked(self, grid8):
        for c in (Coord(8, 0), Coord(0, 8)):
            with pytest.raises(ValueError, match="outside"):
                grid8.is_free(c)
        with pytest.raises(ValueError, match="outside"):
            grid8.allocate_nodes([Coord(0, 9)], 1)
        assert grid8.free_count == 64


class TestQueries:
    def test_free_mask_shape(self, grid8):
        mask = grid8.free_mask()
        assert mask.shape == (8, 8)  # (L, W)
        assert mask.all()

    def test_free_mask_indexing(self, grid8):
        grid8.allocate_nodes([Coord(2, 5)], 1)  # x=2, y=5
        mask = grid8.free_mask()
        assert not mask[5, 2]
        assert mask[2, 5]

    def test_in_bounds(self, grid8):
        assert grid8.in_bounds(SubMesh.from_base(0, 0, 8, 8))
        assert grid8.in_bounds(SubMesh.from_base(7, 7, 1, 1))
        assert not grid8.in_bounds(SubMesh.from_base(7, 0, 2, 1))
        assert not grid8.in_bounds(SubMesh.from_base(0, 6, 1, 3))

    def test_ascii_art(self):
        g = MeshGrid(3, 2)
        g.allocate_nodes([Coord(0, 0)], 1)
        art = g.ascii_art()
        rows = art.split("\n")
        assert rows[-1] == "#.."  # y=0 printed last
        assert rows[0] == "..."


class TestDisjointHelper:
    """The helper the allocator tests' disjointness checks rely on."""

    def test_disjoint(self):
        assert submeshes_disjoint(
            [SubMesh(0, 0, 1, 1), SubMesh(2, 2, 3, 3)]
        )

    def test_overlapping(self):
        assert not submeshes_disjoint(
            [SubMesh(0, 0, 2, 2), SubMesh(2, 2, 3, 3)]
        )

    def test_empty_and_single(self):
        assert submeshes_disjoint([])
        assert submeshes_disjoint([SubMesh(0, 0, 5, 5)])
