"""Unit tests for the Paging allocation strategy."""

import pytest

from repro.alloc.paging import PagingAllocator
from tests.conftest import free_pages, submeshes_disjoint


class TestConstruction:
    def test_paging0(self):
        a = PagingAllocator(16, 22, size_index=0)
        assert a.name == "Paging(0)"
        assert a.page_side == 1
        assert free_pages(a) == 352
        assert a.complete

    def test_paging2_pages_are_4x4(self):
        """Paper: 'Paging(2) means that the pages are 4x4 sub-mesh'."""
        a = PagingAllocator(16, 16, size_index=2)
        assert a.page_side == 4
        assert free_pages(a) == 16
        assert not a.complete  # internal fragmentation possible

    def test_divisible_mesh_accepted(self):
        a = PagingAllocator(16, 22, size_index=1)  # 2x2 pages fit 16x22
        assert free_pages(a) == 8 * 11

    def test_indivisible_mesh_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            PagingAllocator(15, 22, size_index=1)
        with pytest.raises(ValueError, match="not divisible"):
            PagingAllocator(16, 22, size_index=2)  # 22 % 4 != 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            PagingAllocator(8, 8, size_index=-1)


class TestPagesNeeded:
    def test_paging0_exact(self):
        a = PagingAllocator(8, 8, size_index=0)
        assert a.pages_needed(3, 5) == 15

    def test_paging1_rounds_up(self):
        a = PagingAllocator(8, 8, size_index=1)
        assert a.pages_needed(3, 5) == 2 * 3  # ceil(3/2) * ceil(5/2)
        assert a.pages_needed(2, 2) == 1
        assert a.pages_needed(1, 1) == 1


class TestAllocate:
    def test_first_pages_row_major(self):
        a = PagingAllocator(8, 8, size_index=0)
        alloc = a.allocate(1, 3, 1)
        assert alloc is not None
        assert alloc.nodes == (0, 1, 2)
        # a row run merges into one sub-mesh
        assert alloc.contiguous

    def test_exact_size(self):
        a = PagingAllocator(8, 8, size_index=0)
        alloc = a.allocate(1, 4, 5)
        assert alloc is not None
        assert alloc.size == 20
        assert a.free_count == 64 - 20

    def test_skips_busy_pages(self):
        a = PagingAllocator(8, 8, size_index=0)
        first = a.allocate(1, 3, 1)
        second = a.allocate(2, 2, 1)
        assert second is not None
        assert second.nodes[0] == 3  # (3, 0)
        assert submeshes_disjoint(list(first.submeshes) + list(second.submeshes))

    def test_complete_succeeds_iff_enough_free(self):
        a = PagingAllocator(8, 8, size_index=0)
        assert a.allocate(1, 8, 7) is not None  # 56 procs
        assert a.allocate(2, 3, 3) is None  # 9 > 8 free
        assert a.allocate(3, 8, 1) is not None  # exactly 8 free

    def test_release_restores(self):
        a = PagingAllocator(8, 8, size_index=0)
        alloc = a.allocate(1, 5, 5)
        a.release(alloc)
        assert a.free_count == 64
        assert free_pages(a) == 64
        a.grid.validate()

    def test_internal_fragmentation_paging1(self):
        """Paging(1): a 1x1 request consumes a whole 2x2 page."""
        a = PagingAllocator(8, 8, size_index=1)
        alloc = a.allocate(1, 1, 1)
        assert alloc is not None
        assert alloc.size == 4  # whole page granted
        assert a.free_count == 60

    def test_paging1_can_fail_with_free_processors(self):
        """Internal fragmentation: free >= request but no free page."""
        a = PagingAllocator(4, 4, size_index=1)
        # take all 4 pages with 1x1 requests (each burns a 2x2 page)
        for j in range(4):
            assert a.allocate(j, 1, 1) is not None
        assert a.free_count == 0  # all pages held
        assert a.allocate(9, 1, 1) is None

    def test_snake_indexing_used(self):
        a = PagingAllocator(4, 4, size_index=0, indexing="snake")
        a.allocate(1, 4, 1)  # row 0
        nxt = a.allocate(2, 1, 1)
        assert nxt.nodes[0] == 1 * 4 + 3  # snake turns around at (3, 1)

    def test_stats(self):
        a = PagingAllocator(8, 8, size_index=0)
        a.allocate(1, 2, 2)
        a.allocate(2, 8, 8)  # fails
        assert a.stats.attempts == 2
        assert a.stats.successes == 1
        assert a.stats.failures == 1


class TestReset:
    def test_reset_full_cycle(self):
        a = PagingAllocator(8, 8, size_index=0)
        a.allocate(1, 5, 5)
        a.reset()
        assert a.free_count == 64
        assert free_pages(a) == 64
        assert a.allocate(2, 8, 8) is not None


class TestInvariants:
    def test_no_overlap_many_jobs(self):
        a = PagingAllocator(8, 8, size_index=0)
        allocs = []
        for j, (w, l) in enumerate([(3, 3), (2, 5), (4, 2), (1, 7), (5, 1)]):
            alloc = a.allocate(j, w, l)
            assert alloc is not None
            allocs.append(alloc)
        all_subs = [s for al in allocs for s in al.submeshes]
        assert submeshes_disjoint(all_subs)
        total = sum(al.size for al in allocs)
        assert a.free_count == 64 - total
        a.grid.validate()
