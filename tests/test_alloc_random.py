"""Unit tests for the Random scatter baseline."""


from repro.alloc.random_alloc import RandomAllocator, merge_unit_runs
from repro.mesh.geometry import Coord, SubMesh


class TestMergeRuns:
    def test_single(self):
        assert merge_unit_runs([Coord(3, 4)]) == [SubMesh(3, 4, 3, 4)]

    def test_horizontal_run(self):
        runs = merge_unit_runs([Coord(1, 0), Coord(2, 0), Coord(3, 0)])
        assert runs == [SubMesh(1, 0, 3, 0)]

    def test_gap_splits(self):
        runs = merge_unit_runs([Coord(1, 0), Coord(3, 0)])
        assert runs == [SubMesh(1, 0, 1, 0), SubMesh(3, 0, 3, 0)]

    def test_rows_not_merged(self):
        runs = merge_unit_runs([Coord(0, 0), Coord(0, 1)])
        assert len(runs) == 2

    def test_unsorted_input(self):
        runs = merge_unit_runs([Coord(3, 1), Coord(1, 1), Coord(2, 1)])
        assert runs == [SubMesh(1, 1, 3, 1)]


class TestRandomAllocator:
    def test_exact_size(self):
        a = RandomAllocator(8, 8, seed=1)
        alloc = a.allocate(1, 4, 5)
        assert alloc is not None
        assert alloc.size == 20
        assert a.free_count == 44

    def test_complete(self):
        a = RandomAllocator(8, 8, seed=1)
        assert a.allocate(1, 8, 7) is not None
        assert a.allocate(2, 3, 3) is None  # 9 > 8
        assert a.allocate(3, 4, 2) is not None  # exactly 8

    def test_deterministic_per_seed(self):
        a1 = RandomAllocator(8, 8, seed=42)
        a2 = RandomAllocator(8, 8, seed=42)
        assert a1.allocate(1, 3, 3).nodes == a2.allocate(1, 3, 3).nodes

    def test_different_seeds_differ(self):
        a1 = RandomAllocator(16, 16, seed=1)
        a2 = RandomAllocator(16, 16, seed=2)
        assert a1.allocate(1, 6, 6).nodes != a2.allocate(1, 6, 6).nodes

    def test_release_and_reset(self):
        a = RandomAllocator(8, 8, seed=3)
        alloc = a.allocate(1, 5, 5)
        a.release(alloc)
        assert a.free_count == 64
        first = a.allocate(2, 3, 3).nodes
        a.reset()
        # reset also rewinds the RNG, so the stream repeats
        a.allocate(3, 5, 5)
        again = a.allocate(4, 3, 3).nodes
        # streams differ because job order differs -- just exercise reset
        assert a.free_count == 64 - 25 - 9
        a.grid.validate()
        assert first is not None and again is not None
