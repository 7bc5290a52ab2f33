"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

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


def brute_force_suitable(grid: MeshGrid, w: int, l: int) -> SubMesh | None:
    """Reference: first free w x l sub-mesh by exhaustive scan."""
    if w > grid.width or l > grid.length:
        return None
    for y in range(grid.length - l + 1):
        for x in range(grid.width - w + 1):
            s = SubMesh.from_base(x, y, w, l)
            if grid.submesh_free(s):
                return s
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
