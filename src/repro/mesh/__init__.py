"""2D mesh substrate: geometry, occupancy grid, rectangle search.

The target system of the paper (section 2) is a ``W x L`` 2D mesh where every
processor is addressed by a coordinate pair ``(x, y)`` with ``0 <= x < W`` and
``0 <= y < L``.  This package provides:

* :mod:`repro.mesh.geometry` -- coordinates and sub-mesh rectangles
  (Definitions 1-4 of the paper).
* :mod:`repro.mesh.grid` -- the mutable occupancy state of the mesh, one
  free-cell bitmask per row plus an owner list.
* :mod:`repro.mesh.rectfind` -- free-rectangle searches on those bit rows,
  used by GABL, ANCA and the contiguous baselines.
"""

from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import MeshGrid
from repro.mesh.rectfind import (
    find_suitable_submesh,
    all_suitable_bases,
    largest_free_rect,
    largest_free_rect_bounded,
)

__all__ = [
    "Coord",
    "SubMesh",
    "MeshGrid",
    "find_suitable_submesh",
    "all_suitable_bases",
    "largest_free_rect",
    "largest_free_rect_bounded",
]
