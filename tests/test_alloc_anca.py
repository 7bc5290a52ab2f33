"""Unit tests for ANCA (Adaptive Non-Contiguous Allocation, ref [4])."""


from repro.alloc.anca import ANCAAllocator
from repro.mesh.geometry import Coord, SubMesh
from tests.conftest import submeshes_disjoint


class TestContiguousFirst:
    def test_empty_mesh_single_submesh(self):
        a = ANCAAllocator(8, 8)
        alloc = a.allocate(1, 5, 6)
        assert alloc is not None
        assert alloc.contiguous
        assert alloc.submeshes[0].width == 5

    def test_rotation(self):
        a = ANCAAllocator(8, 4)
        alloc = a.allocate(1, 3, 7)
        assert alloc is not None
        assert alloc.contiguous


class TestHalving:
    def test_splits_longer_side(self):
        a = ANCAAllocator(8, 8)
        # occupy column x=3: free strips are 3 wide (x 0..2) and 4 wide
        # (x 4..7); a 6x8 request must split.  The longer side (l=8)
        # halves into two 6x4 subrequests; the first fits rotated as 4x6
        # in the right strip, the second halves again into two 3x4s in
        # the left strip.
        a.grid.allocate_submesh(SubMesh.from_base(3, 0, 1, 8), 999)
        alloc = a.allocate(1, 6, 8)
        assert alloc is not None
        assert alloc.size == 48
        assert alloc.fragment_count == 3
        assert sorted(s.area for s in alloc.submeshes) == [12, 12, 24]

    def test_recursive_halving_to_units(self):
        """Paper Fig. 1 scenario: 4 scattered free processors, 2x2 request."""
        a = ANCAAllocator(4, 4)
        free = {Coord(0, 3), Coord(3, 3), Coord(1, 1), Coord(2, 0)}
        busy = [
            Coord(x, y) for y in range(4) for x in range(4)
            if Coord(x, y) not in free
        ]
        a.grid.allocate_nodes(busy, 999)
        alloc = a.allocate(1, 2, 2)
        assert alloc is not None
        assert alloc.size == 4
        assert a.free_count == 0

    def test_odd_split_conserves_count(self):
        a = ANCAAllocator(8, 8)
        a.grid.allocate_submesh(SubMesh.from_base(0, 0, 8, 4), 999)
        # request 5x5 = 25 with only a 8x4 strip free (32 procs)
        alloc = a.allocate(1, 5, 5)
        assert alloc is not None
        assert alloc.size == 25
        assert submeshes_disjoint(list(alloc.submeshes))

    def test_fails_only_when_insufficient(self):
        a = ANCAAllocator(8, 8)
        a.grid.allocate_submesh(SubMesh.from_base(0, 0, 8, 7), 999)
        assert a.allocate(1, 3, 3) is None  # 9 > 8 free
        assert a.allocate(2, 4, 2) is not None  # exactly 8

    def test_release_cycle(self):
        a = ANCAAllocator(8, 8)
        allocs = [a.allocate(j, 3, 5) for j in range(4)]
        for al in allocs:
            assert al is not None
            a.release(al)
        assert a.free_count == 64
        a.grid.validate()


class TestVersusGABL:
    def test_anca_fragments_more_than_gabl(self):
        """ANCA halves the request blindly; GABL carves what is available.
        On a mesh with one large irregular free region GABL stays closer
        to contiguous."""
        from repro.alloc.gabl import GABLAllocator

        def fragment_count(cls):
            a = cls(8, 8)
            # leave an L-shaped free region
            a.grid.allocate_submesh(SubMesh.from_base(5, 0, 3, 5), 999)
            alloc = a.allocate(1, 6, 6)
            assert alloc is not None
            return alloc.fragment_count

        assert fragment_count(GABLAllocator) <= fragment_count(ANCAAllocator)
