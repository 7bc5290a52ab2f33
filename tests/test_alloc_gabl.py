"""Unit tests for GABL (repro.alloc.gabl)."""

import pytest

from repro.alloc.gabl import GABLAllocator
from repro.mesh.geometry import Coord, SubMesh
from tests.conftest import owned_by, submeshes_disjoint


class TestContiguousPath:
    def test_empty_mesh_contiguous(self):
        a = GABLAllocator(16, 22)
        alloc = a.allocate(1, 5, 7)
        assert alloc is not None
        assert alloc.contiguous
        assert alloc.submeshes[0].width == 5
        assert alloc.submeshes[0].length == 7

    def test_rotation_used(self):
        a = GABLAllocator(8, 4)
        alloc = a.allocate(1, 3, 7)  # 3x7 cannot fit upright in 8x4
        assert alloc is not None
        assert alloc.contiguous
        s = alloc.submeshes[0]
        assert (s.width, s.length) == (7, 3)

    def test_rotation_disabled(self):
        a = GABLAllocator(8, 4, allow_rotation=False)
        alloc = a.allocate(1, 3, 7)
        assert alloc is not None
        assert not alloc.contiguous  # falls through to decomposition

    def test_first_fit_base(self):
        a = GABLAllocator(8, 8)
        a.allocate(1, 2, 2)
        alloc = a.allocate(2, 2, 2)
        assert alloc.submeshes[0].base == Coord(2, 0)


class TestGreedyDecomposition:
    def test_fig1_scenario_succeeds(self):
        """Paper Fig. 1: 4 free processors, no 2x2 sub-mesh -> GABL still
        allocates the 2x2 request non-contiguously."""
        a = GABLAllocator(4, 4)
        free = {Coord(0, 3), Coord(3, 3), Coord(1, 1), Coord(2, 0)}
        busy = [
            Coord(x, y) for y in range(4) for x in range(4)
            if Coord(x, y) not in free
        ]
        a.grid.allocate_nodes(busy, 999)
        alloc = a.allocate(1, 2, 2)
        assert alloc is not None
        assert alloc.size == 4
        assert alloc.fragment_count == 4
        assert a.free_count == 0

    def test_exact_count_allocated(self):
        a = GABLAllocator(8, 8)
        # fragment the mesh with a comb pattern
        for x in range(0, 8, 2):
            a.grid.allocate_submesh(SubMesh.from_base(x, 0, 1, 7), 999)
        alloc = a.allocate(1, 4, 5)
        assert alloc is not None
        assert alloc.size == 20  # exactly w*l, never more

    def test_fails_when_insufficient(self):
        a = GABLAllocator(8, 8)
        a.grid.allocate_submesh(SubMesh.from_base(0, 0, 8, 7), 999)  # 56 busy
        assert a.free_count == 8
        assert a.allocate(1, 3, 3) is None  # 9 > 8
        alloc = a.allocate(2, 8, 1)  # exactly 8
        assert alloc is not None

    def test_chunks_shrink_monotonically(self):
        """Each chunk's sides never exceed the previous chunk's sides."""
        a = GABLAllocator(8, 8)
        for x in range(0, 8, 3):
            a.grid.allocate_submesh(SubMesh.from_base(x, 0, 1, 8), 999)
        alloc = a.allocate(1, 6, 6)
        assert alloc is not None
        dims = [sorted((s.width, s.length), reverse=True) for s in alloc.submeshes]
        for prev, cur in zip(dims, dims[1:]):
            assert cur[0] <= prev[0] and cur[1] <= prev[1]

    def test_greedy_takes_largest_first(self):
        a = GABLAllocator(8, 8)
        # free regions: a 3x3 island and a 2x8 column
        busy = []
        for y in range(8):
            for x in range(8):
                in_island = 0 <= x <= 2 and 0 <= y <= 2
                in_column = 6 <= x <= 7
                if not (in_island or in_column):
                    busy.append(Coord(x, y))
        a.grid.allocate_nodes(busy, 999)
        alloc = a.allocate(1, 4, 4)  # 16 procs, no contiguous 4x4
        assert alloc is not None
        first = alloc.submeshes[0]
        # the 2x8 column clipped to the 4x4 bound -> 2x4=8; the island
        # clipped -> 3x3=9: the island piece is larger and must come first
        assert first.area == 9

    def test_no_overlap(self):
        a = GABLAllocator(8, 8)
        allocs = []
        for j, (w, l) in enumerate([(3, 5), (5, 3), (2, 2), (4, 4), (1, 6)]):
            alloc = a.allocate(j, w, l)
            if alloc:
                allocs.append(alloc)
        subs = [s for al in allocs for s in al.submeshes]
        assert submeshes_disjoint(subs)
        a.grid.validate()


class TestCompleteness:
    def test_always_succeeds_when_free_enough(self):
        """GABL invariant: allocation succeeds iff free >= w*l."""
        a = GABLAllocator(8, 8)
        jobs = {}
        sizes = [(3, 3), (4, 2), (2, 7), (5, 5), (1, 1), (6, 2)]
        for j, (w, l) in enumerate(sizes):
            alloc = a.allocate(j, w, l)
            expected = w * l <= a.free_count + (alloc.size if alloc else 0)
            if alloc is None:
                assert w * l > a.free_count
            else:
                jobs[j] = alloc
        for alloc in jobs.values():
            a.release(alloc)
        assert a.free_count == 64


class TestRelease:
    def test_release_unknown_fails(self):
        a = GABLAllocator(8, 8)
        alloc = a.allocate(1, 2, 2)
        a.release(alloc)
        with pytest.raises(ValueError, match="not owned"):
            a.release(alloc)
        assert a.free_count == 64

    def test_release_frees_only_that_job(self):
        a = GABLAllocator(8, 8)
        first = a.allocate(1, 3, 3)
        second = a.allocate(2, 2, 4)
        a.release(first)
        assert owned_by(a.grid, 1) == []
        assert len(owned_by(a.grid, 2)) == second.size == 8
        assert a.free_count == 64 - 8
        a.grid.validate()

    def test_release_counted_in_stats(self):
        a = GABLAllocator(8, 8)
        allocs = [a.allocate(j, 2, 2) for j in range(3)]
        for n, alloc in enumerate(allocs, start=1):
            a.release(alloc)
            assert a.stats.released == n
        assert a.stats.successes == 3

    def test_scattered_job_owns_exactly_its_nodes(self):
        """A non-contiguous allocation's node ids are exactly the cells
        the grid records as owned by the job, and release frees them."""
        a = GABLAllocator(8, 8)
        for x in range(0, 8, 2):
            a.grid.allocate_submesh(SubMesh.from_base(x, 0, 1, 8), 999)
        alloc = a.allocate(5, 4, 4)
        assert alloc is not None and not alloc.contiguous
        owned = {c.y * a.width + c.x for c in owned_by(a.grid, 5)}
        assert owned == set(alloc.nodes)
        assert len(alloc.nodes) == 16
        a.release(alloc)
        assert owned_by(a.grid, 5) == []
        assert a.free_count == 32
