"""Oracle tests: the bit-row rectangle queries of ``repro.mesh.rectfind``
must reproduce independent formulations, choice for choice.

The bounded largest-rectangle reference below is a monotone-stack
histogram sweep over the grid's owner map (``free_mask``): enumerate every
maximal free rectangle, carve the best bounded sub-rectangle out of each,
tie-break by (area, -base_y, -base_x, w).  The production query walks
base row x height over AND-ed bit rows instead; the two candidate sets
dominate each other, so the choice must be identical.  Suitability and
the list of suitable bases are checked against a brute-force window scan
of the same owner map.  Meshes up to 80 wide run past one 64-bit word.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import MeshGrid
from repro.mesh.rectfind import (
    all_suitable_bases,
    find_suitable_submesh,
    largest_free_rect_bounded,
)
from tests.conftest import submesh_free


def reference_sweep(grid, max_w=None, max_l=None, max_area=None):
    """The original monotone-stack implementation (the oracle)."""
    W, L = grid.width, grid.length
    max_w = W if max_w is None else min(max_w, W)
    max_l = L if max_l is None else min(max_l, L)
    max_area = W * L if max_area is None else max_area
    if max_w <= 0 or max_l <= 0 or max_area <= 0:
        return None
    free = grid.free_mask()
    heights = np.zeros(W, dtype=np.int64)
    best = None

    def carve(span_w, span_l):
        cap_w, cap_l = min(span_w, max_w), min(span_l, max_l)
        if cap_w <= 0 or cap_l <= 0 or max_area <= 0:
            return None
        shape, best_a = None, 0
        ceiling = min(cap_w * cap_l, max_area)
        for w in range(cap_w, 0, -1):
            l = min(cap_l, max_area // w)
            if l <= 0:
                continue
            if w * l > best_a:
                best_a, shape = w * l, (w, l)
                if best_a == ceiling:
                    break
        return shape

    for y in range(L):
        heights = (heights + 1) * free[y]
        hist = heights.tolist()
        hist.append(0)
        stack = []
        for x, h in enumerate(hist):
            start = x
            while stack and stack[-1][1] > h:
                pos, height = stack.pop()
                shape = carve(x - pos, height)
                if shape is not None:
                    w, l = shape
                    cand = (w * l, y - height + 1, pos, w, l)
                    if best is None or (
                        (cand[0], -cand[1], -cand[2], cand[3])
                        > (best[0], -best[1], -best[2], best[3])
                    ):
                        best = cand
                start = pos
            if h > 0 and (not stack or stack[-1][1] < h):
                stack.append((start, h))
    if best is None:
        return None
    return SubMesh.from_base(best[2], best[1], best[3], best[4])


def random_grid(rng, width, length, density) -> MeshGrid:
    grid = MeshGrid(width, length)
    busy = rng.random((length, width)) < density
    coords = [Coord(int(x), int(y)) for y, x in zip(*np.nonzero(busy))]
    if coords:
        grid.allocate_nodes(coords, 1)
    return grid


@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        width = int(rng.integers(1, 18))
        length = int(rng.integers(1, 24))
        grid = random_grid(rng, width, length, rng.uniform(0, 1.05))
        for _ in range(4):
            max_w = int(rng.integers(0, width + 3)) or None
            max_l = int(rng.integers(0, length + 3)) or None
            max_area = int(rng.integers(0, width * length + 3)) or None
            assert largest_free_rect_bounded(
                grid, max_w, max_l, max_area
            ) == reference_sweep(grid, max_w, max_l, max_area), (
                max_w, max_l, max_area, grid.ascii_art()
            )
        assert largest_free_rect_bounded(grid) == reference_sweep(grid)


def test_decomposition_pattern_tracks_mutations():
    """Interleave queries and mutations exactly like a GABL decompose:
    each query must see the bit rows of the grid's current state."""
    rng = np.random.default_rng(1234)
    grid = random_grid(rng, 16, 22, 0.45)
    for _ in range(30):
        bound_w = int(rng.integers(1, 17))
        bound_l = int(rng.integers(1, 23))
        area = int(rng.integers(1, 60))
        expect = reference_sweep(grid, bound_w, bound_l, area)
        got = largest_free_rect_bounded(grid, bound_w, bound_l, area)
        assert got == expect
        if got is not None:
            grid.allocate_submesh(got, 7)
            grid.validate()
        elif grid.free_count < grid.size:
            # free everything and continue fuzzing from a fresh board
            grid.reset()


def test_full_and_empty_meshes():
    grid = MeshGrid(5, 7)
    assert largest_free_rect_bounded(grid) == SubMesh.from_base(0, 0, 5, 7)
    grid.allocate_submesh(SubMesh(0, 0, 4, 6), 1)
    assert largest_free_rect_bounded(grid) is None
    assert largest_free_rect_bounded(MeshGrid(3, 3), max_area=0) is None
    assert largest_free_rect_bounded(MeshGrid(3, 3), max_w=0) is None


def brute_force_bases(grid, w, l):
    """Every ``(x, y)`` whose ``w x l`` window of the owner map is free."""
    free = grid.free_mask()
    return [
        Coord(x, y)
        for y in range(grid.length - l + 1)
        for x in range(grid.width - w + 1)
        if free[y : y + l, x : x + w].all()
    ]


@st.composite
def churned_grids(draw):
    """A mesh up to 80 wide after interleaved allocations and releases.

    Each step either allocates a random rectangle (skipped when it is
    not free) or releases one live job, so the rows see both set and
    cleared bits in every word.
    """
    width = draw(st.integers(1, 80))
    length = draw(st.integers(1, 12))
    grid = MeshGrid(width, length)
    live: dict[int, SubMesh] = {}
    for job in range(draw(st.integers(0, 24))):
        if live and draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(live)))
            grid.release_submesh(live.pop(victim), victim)
        else:
            x = draw(st.integers(0, width - 1))
            y = draw(st.integers(0, length - 1))
            s = SubMesh.from_base(
                x, y,
                draw(st.integers(1, width - x)),
                draw(st.integers(1, length - y)),
            )
            if submesh_free(grid, s):
                grid.allocate_submesh(s, job)
                live[job] = s
        grid.validate()
    return grid


@settings(max_examples=60, deadline=None)
@given(churned_grids(), st.data())
def test_bit_row_queries_match_oracles(grid, data):
    """All three queries agree with brute force and the stack sweep."""
    for _ in range(3):
        w = data.draw(st.integers(1, grid.width + 1))
        l = data.draw(st.integers(1, grid.length + 1))
        bases = brute_force_bases(grid, w, l)
        assert all_suitable_bases(grid, w, l) == bases
        first = find_suitable_submesh(grid, w, l)
        assert first == (
            SubMesh.from_base(bases[0].x, bases[0].y, w, l) if bases else None
        )
        max_w = data.draw(st.none() | st.integers(1, grid.width + 2))
        max_l = data.draw(st.none() | st.integers(1, grid.length + 2))
        max_area = data.draw(st.none() | st.integers(1, grid.size + 2))
        got = largest_free_rect_bounded(grid, max_w, max_l, max_area)
        assert got == reference_sweep(grid, max_w, max_l, max_area)
        if got is not None:
            assert submesh_free(grid, got)
