"""Coordinates and sub-mesh rectangles for the 2D mesh (paper section 2).

A sub-mesh ``S(w, l)`` of width ``w`` and length ``l`` is specified by the
coordinates ``(x, y, x', y')`` where ``(x, y)`` is the *base* (lower-left)
node and ``(x', y')`` the *end* (upper-right) node -- Definition 1 of the
paper.  Width extends along the x axis and length along the y axis, so the
3x2 sub-mesh of Fig. 1 is ``SubMesh(0, 0, 2, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Coord(NamedTuple):
    """A processor coordinate ``(x, y)`` in a ``W x L`` mesh."""

    x: int
    y: int


@dataclass(frozen=True, slots=True)
class SubMesh:
    """An axis-aligned rectangle of processors ``(x1, y1) .. (x2, y2)``.

    Immutable; both corners are inclusive.  ``width`` is the x extent and
    ``length`` the y extent, matching the paper's ``S(w, l)`` notation.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"degenerate sub-mesh ({self.x1},{self.y1},{self.x2},{self.y2})"
            )
        if min(self.x1, self.y1) < 0:
            raise ValueError("sub-mesh coordinates must be non-negative")

    @classmethod
    def from_base(cls, x: int, y: int, w: int, l: int) -> "SubMesh":
        """Build from base node ``(x, y)`` and side lengths ``w x l``."""
        if w <= 0 or l <= 0:
            raise ValueError(f"side lengths must be positive, got {w}x{l}")
        return cls(x, y, x + w - 1, y + l - 1)

    @property
    def base(self) -> Coord:
        """The base (lower-left) node."""
        return Coord(self.x1, self.y1)

    @property
    def end(self) -> Coord:
        """The end (upper-right) node."""
        return Coord(self.x2, self.y2)

    @property
    def width(self) -> int:
        """Extent along x (the paper's ``w``)."""
        return self.x2 - self.x1 + 1

    @property
    def length(self) -> int:
        """Extent along y (the paper's ``l``)."""
        return self.y2 - self.y1 + 1

    @property
    def area(self) -> int:
        """Number of processors in the sub-mesh (``w * l``)."""
        return self.width * self.length

    def node_ids(self, width: int) -> list[int]:
        """Row-major node ids ``y * width + x`` of the members, y outer."""
        out: list[int] = []
        for y in range(self.y1, self.y2 + 1):
            row = y * width
            out.extend(range(row + self.x1, row + self.x2 + 1))
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"S({self.x1},{self.y1},{self.x2},{self.y2})[{self.width}x{self.length}]"


def clip_side(value: float, limit: int) -> int:
    """Round a sampled side length into the valid range ``[1, limit]``.

    Stochastic workloads draw side lengths from continuous distributions;
    the paper clips them to the mesh dimensions.
    """
    # round() already returns an int; no cast needed
    return max(1, min(limit, round(value)))


def shape_for_size(size: int, width_cap: int, length_cap: int) -> tuple[int, int]:
    """Shape a processor *count* into a near-square ``(w, l)`` request.

    Real-workload traces record only the number of processors a job used;
    following the Mache--Lo--Windisch methodology, the count is converted
    into the most square sub-mesh request that fits the machine.  The
    returned shape satisfies ``w <= width_cap``, ``l <= length_cap`` and
    ``w * l >= size`` (smallest such area, squarest such shape).
    """
    if size <= 0:
        raise ValueError(f"job size must be positive, got {size}")
    if size > width_cap * length_cap:
        raise ValueError(
            f"job size {size} exceeds machine capacity {width_cap * length_cap}"
        )
    best: tuple[int, int] | None = None
    best_key: tuple[int, int] | None = None
    for w in range(1, width_cap + 1):
        l = -(-size // w)  # ceil division
        if l > length_cap:
            continue
        # minimise wasted processors first, then prefer square aspect
        key = (w * l - size, abs(w - l))
        if best_key is None or key < best_key:
            best_key = key
            best = (w, l)
    assert best is not None  # guaranteed by the capacity check above
    return best
