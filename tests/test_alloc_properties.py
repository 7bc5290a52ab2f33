"""Property-based tests (hypothesis) over all allocation strategies.

These are the repository's core invariants (DESIGN.md section 5):

* never double-allocate a processor;
* a successful allocation covers exactly the requested count (modulo
  Paging's documented internal fragmentation);
* release restores the free count, and a full release cycle returns the
  grid to empty;
* the three *complete* strategies of the paper succeed iff
  ``free >= w*l``;
* ``Allocation.nodes`` lists the row-major ids of the granted sub-meshes
  in order (the all-to-all schedule depends on it), each owned by the job.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import make_allocator
from repro.alloc.base import Allocator
from repro.mesh.geometry import Coord
from tests.conftest import owner_at, submeshes_disjoint

COMPLETE_SPECS = ["Paging(0)", "MBS", "GABL", "Random", "ANCA"]
ALL_SPECS = COMPLETE_SPECS + ["FF", "BF"]

# a stream of (w, l) requests on an 8x8 mesh
requests = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=25
)
# per-request action: True = hold, False = release immediately
actions = st.lists(st.booleans(), min_size=25, max_size=25)


def _drive(alloc: Allocator, reqs, holds) -> None:
    """Feed a request stream, releasing non-held allocations at random
    points, and check the invariants continuously."""
    held = {}
    for j, ((w, l), hold) in enumerate(zip(reqs, holds)):
        free_before = alloc.free_count
        allocation = alloc.allocate(j, w, l)
        if allocation is None:
            if alloc.complete and isinstance(alloc.complete, bool):
                # complete strategies only fail when genuinely out of room
                if type(alloc).__name__ != "PagingAllocator" or alloc.page_side == 1:
                    assert w * l > free_before
            continue
        assert allocation.size >= w * l
        assert free_before - alloc.free_count == allocation.size
        assert submeshes_disjoint(list(allocation.submeshes))
        assert len(set(allocation.nodes)) == allocation.size
        assert list(allocation.nodes) == [
            n for s in allocation.submeshes for n in s.node_ids(8)
        ]
        for n in allocation.nodes:
            y, x = divmod(n, 8)
            assert owner_at(alloc.grid, Coord(x, y)) == j
        if hold:
            held[j] = allocation
        else:
            alloc.release(allocation)
        alloc.grid.validate()
    for allocation in held.values():
        alloc.release(allocation)
    assert alloc.free_count == alloc.grid.size
    alloc.grid.validate()


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=25, deadline=None)
@given(reqs=requests, holds=actions)
def test_invariants_hold(spec, reqs, holds):
    alloc = make_allocator(spec, 8, 8)
    _drive(alloc, reqs, holds)


@pytest.mark.parametrize("spec", COMPLETE_SPECS)
@settings(max_examples=25, deadline=None)
@given(reqs=requests)
def test_complete_strategies_succeed_iff_free(spec, reqs):
    """Paper section 5: they 'always succeed to allocate processors to a
    job when the number of free processors is greater than or equal the
    allocation request'."""
    alloc = make_allocator(spec, 8, 8)
    for j, (w, l) in enumerate(reqs):
        free = alloc.free_count
        allocation = alloc.allocate(j, w, l)
        if w * l <= free:
            assert allocation is not None, f"{spec} failed with {free} free"
        else:
            assert allocation is None


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=20, deadline=None)
@given(
    w=st.integers(1, 8),
    l=st.integers(1, 8),
    repeat=st.integers(2, 6),
)
def test_alloc_release_is_idempotent_on_state(spec, w, l, repeat):
    """Allocating and releasing the same request repeatedly must not leak."""
    alloc = make_allocator(spec, 8, 8)
    for j in range(repeat):
        allocation = alloc.allocate(j, w, l)
        assert allocation is not None
        alloc.release(allocation)
    assert alloc.free_count == 64
    alloc.grid.validate()


@pytest.mark.parametrize("spec", COMPLETE_SPECS)
def test_fill_machine_with_unit_jobs(spec):
    """Degenerate stress: fill every processor with 1x1 jobs, then free."""
    alloc = make_allocator(spec, 8, 8)
    allocations = []
    for j in range(64):
        a = alloc.allocate(j, 1, 1)
        assert a is not None
        allocations.append(a)
    assert alloc.free_count == 0
    assert alloc.allocate(999, 1, 1) is None
    for a in allocations:
        alloc.release(a)
    assert alloc.free_count == 64


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_oversized_request_rejected(spec):
    alloc = make_allocator(spec, 8, 8)
    with pytest.raises(ValueError):
        alloc.allocate(1, 9, 8)  # 72 > 64 processors
    with pytest.raises(ValueError):
        alloc.allocate(1, 1, 0)


@pytest.mark.parametrize("spec", COMPLETE_SPECS)
def test_long_thin_request_scatters(spec):
    """A 9x1 request exceeds the 8-wide mesh but only needs 9 processors;
    complete strategies must still satisfy it."""
    alloc = make_allocator(spec, 8, 8)
    allocation = alloc.allocate(1, 9, 1)
    assert allocation is not None
    assert allocation.size == 9
