"""Unit tests for the allocator factory and shared base plumbing."""

import pytest

from repro.alloc import ALLOCATORS, make_allocator
from repro.alloc.base import Allocation, AllocatorStats
from repro.alloc.gabl import GABLAllocator
from repro.alloc.paging import PagingAllocator
from repro.mesh.geometry import SubMesh


class TestFactory:
    def test_paging_spec(self):
        a = make_allocator("Paging(0)", 8, 8)
        assert isinstance(a, PagingAllocator)
        assert a.size_index == 0

    def test_paging_spec_with_index(self):
        a = make_allocator("Paging(2)", 16, 16)
        assert a.page_side == 4

    def test_named_specs(self):
        for name in ALLOCATORS:
            a = make_allocator(name, 8, 8)
            assert a.width == 8

    def test_gabl_kwargs(self):
        a = make_allocator("GABL", 8, 8, allow_rotation=False)
        assert isinstance(a, GABLAllocator)
        assert a.allow_rotation is False

    def test_unknown_spec(self):
        with pytest.raises(KeyError, match="unknown allocator"):
            make_allocator("Buddy", 8, 8)

    def test_malformed_paging(self):
        with pytest.raises(KeyError):
            make_allocator("Paging(x)", 8, 8)


class TestAllocation:
    def test_properties(self):
        subs = (SubMesh(0, 0, 1, 1), SubMesh(3, 3, 3, 3))
        nodes = tuple(n for s in subs for n in s.node_ids(8))
        alloc = Allocation(job_id=1, submeshes=subs, nodes=nodes)
        assert alloc.size == 5
        assert not alloc.contiguous
        assert alloc.fragment_count == 2

    def test_contiguous_single(self):
        s = SubMesh(0, 0, 2, 2)
        alloc = Allocation(1, (s,), tuple(s.node_ids(8)))
        assert alloc.contiguous


class TestStats:
    def test_initial(self):
        s = AllocatorStats()
        assert s.mean_fragments == 0.0
        assert s.contiguity_rate == 0.0

    def test_tracking_through_allocator(self):
        a = make_allocator("GABL", 8, 8)
        a.allocate(1, 8, 8)  # contiguous
        a.allocate(2, 1, 1)  # fails: full
        assert a.stats.attempts == 2
        assert a.stats.successes == 1
        assert a.stats.failures == 1
        assert a.stats.contiguity_rate == 1.0
        assert a.stats.mean_fragments == 1.0

    def test_reset_clears(self):
        a = make_allocator("MBS", 8, 8)
        a.allocate(1, 3, 3)
        a.reset()
        assert a.stats.attempts == 0
        assert a.free_count == 64
