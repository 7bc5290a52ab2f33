"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.alloc.mbs import _FREE, MBSAllocator
from repro.alloc.paging import PagingAllocator
from repro.core.config import SimConfig
from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import MeshGrid
from repro.network import _native
from repro.network.wormhole import FastBackend


@pytest.fixture
def grid8() -> MeshGrid:
    """Empty 8x8 grid."""
    return MeshGrid(8, 8)


@pytest.fixture
def grid_paper() -> MeshGrid:
    """Empty 16x22 grid (the paper's machine)."""
    return MeshGrid(16, 22)


@pytest.fixture
def tiny_config() -> SimConfig:
    """Small, fast configuration for integration tests."""
    return SimConfig(width=8, length=8, jobs=40, seed=7)


class ResolverCalls:
    """Counts calls into the compiled ``resolve_launch`` entry and into
    the Python per-packet ``transmit``, so a test can tell which
    resolver ran: an equivalence test that silently fell back to Python
    would compare Python with Python."""

    def __init__(self, monkeypatch) -> None:
        self.kernel = 0
        self.transmit = 0
        kernel = _native.load_kernel()
        if kernel is not None:
            resolve = kernel.resolve_launch

            def counted_resolve(*args):
                self.kernel += 1
                return resolve(*args)

            monkeypatch.setattr(kernel, "resolve_launch", counted_resolve)
        transmit = FastBackend.transmit

        def counted_transmit(backend, *args):
            self.transmit += 1
            return transmit(backend, *args)

        monkeypatch.setattr(FastBackend, "transmit", counted_transmit)

    def take(self) -> tuple[int, int]:
        """``(kernel calls, transmit calls)`` since the last take."""
        counts = (self.kernel, self.transmit)
        self.kernel = self.transmit = 0
        return counts


@pytest.fixture
def resolver_calls(monkeypatch) -> ResolverCalls:
    """Counts of compiled ``resolve_launch`` and Python ``transmit``
    calls for the test's duration."""
    return ResolverCalls(monkeypatch)


def owner_at(grid: MeshGrid, c: Coord) -> int:
    """Owner job id at ``c`` (``FREE`` if unallocated), off the grid's
    owner list."""
    return grid._owner[c.y * grid.width + c.x]


def owned_by(grid: MeshGrid, job_id: int) -> list[Coord]:
    """Every coordinate ``job_id`` owns, row-major, off the owner list."""
    return [
        Coord(i % grid.width, i // grid.width)
        for i, o in enumerate(grid._owner)
        if o == job_id
    ]


def submesh_free(grid: MeshGrid, s: SubMesh) -> bool:
    """Definition 3 -- every processor of ``s`` is free -- read off the
    owner-derived free mask, not the bit rows the searches use."""
    assert grid.in_bounds(s), s
    return bool(grid.free_mask()[s.y1 : s.y2 + 1, s.x1 : s.x2 + 1].all())


def free_blocks_at(alloc: MBSAllocator, k: int) -> int:
    """Valid free blocks at MBS level ``k``, off the lazily pruned free
    lists (an entry is stale once its block's state or epoch moved)."""
    return sum(
        1
        for _y, _x, epoch, b in alloc._free[k]
        if b.state == _FREE and b.epoch == epoch
    )


def free_pages(alloc: PagingAllocator) -> int:
    """Free pages counted off the per-page flags, which must agree with
    the allocator's running count."""
    count = sum(alloc._page_free)
    assert count == alloc._free_pages, (count, alloc._free_pages)
    return count


def submeshes_disjoint(submeshes: Sequence[SubMesh]) -> bool:
    """Whether no processor belongs to two of the sub-meshes."""
    cells = [
        (x, y)
        for s in submeshes
        for y in range(s.y1, s.y2 + 1)
        for x in range(s.x1, s.x2 + 1)
    ]
    return len(cells) == len(set(cells))


def brute_force_suitable(grid: MeshGrid, w: int, l: int) -> SubMesh | None:
    """Reference: first free w x l sub-mesh by exhaustive scan."""
    if w > grid.width or l > grid.length:
        return None
    free = grid.free_mask()
    for y in range(grid.length - l + 1):
        for x in range(grid.width - w + 1):
            if free[y : y + l, x : x + w].all():
                return SubMesh.from_base(x, y, w, l)
    return None


def brute_force_largest_bounded(
    grid: MeshGrid,
    max_w: int | None = None,
    max_l: int | None = None,
    max_area: int | None = None,
) -> int:
    """Reference: the *area* of the best bounded free rectangle."""
    W, L = grid.width, grid.length
    max_w = W if max_w is None else min(max_w, W)
    max_l = L if max_l is None else min(max_l, L)
    max_area = W * L if max_area is None else max_area
    best = 0
    for w in range(1, max_w + 1):
        for l in range(1, max_l + 1):
            if w * l <= best or w * l > max_area:
                continue
            if brute_force_suitable(grid, w, l) is not None:
                best = w * l
    return best


def random_occupancy(grid: MeshGrid, density: float, seed: int) -> None:
    """Mark a random fraction of processors busy (owner id 999)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((grid.length, grid.width)) < density
    coords = [
        Coord(int(x), int(y))
        for y, x in zip(*np.nonzero(mask))
    ]
    if coords:
        grid.allocate_nodes(coords, 999)
