"""Random non-contiguous allocation -- ProcSimity's naive baseline.

Takes ``w*l`` free processors uniformly at random with no regard for
locality.  Complete (succeeds iff enough processors are free) but with the
worst possible dispersion, so it upper-bounds the communication overhead a
non-contiguous strategy can inflict; the ``bench_abl_contiguity`` ablation
uses it as the anti-GABL pole.
"""

from __future__ import annotations

import numpy as np

from repro.alloc.base import Allocation, Allocator
from repro.mesh.geometry import Coord, SubMesh


def merge_unit_runs(coords: list[Coord]) -> list[SubMesh]:
    """Merge unit cells into maximal horizontal runs (busy-list hygiene)."""
    by_row: dict[int, list[int]] = {}
    for c in coords:
        by_row.setdefault(c.y, []).append(c.x)
    out: list[SubMesh] = []
    for y in sorted(by_row):
        xs = sorted(by_row[y])
        start = prev = xs[0]
        for x in xs[1:]:
            if x == prev + 1:
                prev = x
                continue
            out.append(SubMesh(start, y, prev, y))
            start = prev = x
        out.append(SubMesh(start, y, prev, y))
    return out


class RandomAllocator(Allocator):
    """Uniform-random scatter allocation."""

    name = "Random"
    complete = True
    #: allocation depends on RNG state, not only on the grid; keep the
    #: base-class failure memo away from anything stochastic
    deterministic = False

    def __init__(self, width: int, length: int, seed: int = 0) -> None:
        super().__init__(width, length)
        self._rng = np.random.default_rng(seed)
        self._seed = seed

    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        p = w * l
        free = self.grid.free_mask()
        ys, xs = np.nonzero(free)
        picks = self._rng.choice(len(ys), size=p, replace=False)
        coords = [Coord(int(xs[i]), int(ys[i])) for i in picks]
        submeshes = merge_unit_runs(coords)
        for s in submeshes:
            self.grid.allocate_submesh(s, job_id)
        return Allocation(
            job_id=job_id,
            submeshes=tuple(submeshes),
            nodes=self._nodes_of(submeshes),
        )

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)
