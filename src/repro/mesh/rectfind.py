"""Free-rectangle search engines over a :class:`~repro.mesh.grid.MeshGrid`.

Three queries drive every allocator in this repository:

* *suitability* -- does a free ``w x l`` sub-mesh exist, and where is the
  first one in row-major base order?  (GABL's contiguous attempt and the
  contiguous First-Fit baseline.)
* *largest free rectangle* -- the biggest all-free sub-mesh, optionally with
  side-length bounds and an area cap.  (GABL's greedy non-contiguous
  decomposition: "the largest free sub-mesh that can fit inside S(a, b)".)
* *all suitable bases* -- every admissible base node (Best-Fit baseline).

All three run on the grid's bit rows (``MeshGrid.rows``: bit ``x`` of
``rows[y]`` is set iff ``(x, y)`` is free).  The AND of rows ``y .. y+l-1``
has bit ``x`` set iff column ``x`` is free over those ``l`` rows, and
``runs(m, w)`` -- ``m &= m >> s`` with doubling shifts -- keeps bit ``x``
iff bits ``x .. x+w-1`` of ``m`` are all set, i.e. iff a free ``w x l``
sub-mesh is based at ``(x, y)``.  Bits past the mesh width are never set,
so bases whose window would leave the mesh drop out on their own.

The bounded largest-rectangle query walks base row x height over the
running row-AND.  For each pair it takes the widest admissible run (the
width capped at ``max_area // h``) at its lowest column, and keeps the
deterministic choice order: largest area, then lowest base row, then
lowest base column, then widest shape.  Rows and heights whose area
bound cannot beat the best so far are skipped.

The compiled SoA lane driver (:mod:`repro.core._soa_native`) carries a
line-for-line C twin of ``_runs``, :func:`find_suitable_submesh` and
:func:`largest_free_rect_bounded` over one 64-bit word per row, so a
change here is a change there: the engine-equivalence tests hold the
twin to this module bit for bit, and the oracle tests hold this module
to a brute-force scan and a monotone-stack sweep.
"""

from __future__ import annotations

from repro.mesh.geometry import Coord, SubMesh
from repro.mesh.grid import MeshGrid


def _runs(m: int, w: int) -> int:
    """Bits ``x`` of ``m`` that start a run of at least ``w`` set bits."""
    done = 1
    while done < w:
        step = min(done, w - done)
        m &= m >> step
        done += step
    return m


def _check_sides(w: int, l: int) -> None:
    if w <= 0 or l <= 0:
        raise ValueError(f"request sides must be positive, got {w}x{l}")


def find_suitable_submesh(grid: MeshGrid, w: int, l: int) -> SubMesh | None:
    """First (row-major base order) free ``w x l`` sub-mesh, or ``None``.

    Row-major means scanning bases ``(0,0), (1,0), ..., (W-w,0), (0,1), ...``
    exactly like the free-list scans in the literature [2, 19].
    """
    _check_sides(w, l)
    if w > grid.width or l > grid.length or w * l > grid.free_count:
        return None
    rows = grid.rows
    for y in range(grid.length - l + 1):
        m = rows[y]
        for r in rows[y + 1 : y + l]:
            m &= r
        if m:
            m = _runs(m, w)
            if m:
                return SubMesh.from_base((m & -m).bit_length() - 1, y, w, l)
    return None


def all_suitable_bases(grid: MeshGrid, w: int, l: int) -> list[Coord]:
    """Every base node of a free ``w x l`` sub-mesh, row-major order."""
    _check_sides(w, l)
    if w > grid.width or l > grid.length:
        return []
    rows = grid.rows
    out: list[Coord] = []
    for y in range(grid.length - l + 1):
        m = rows[y]
        for r in rows[y + 1 : y + l]:
            m &= r
        m = _runs(m, w) if m else 0
        while m:
            low = m & -m
            out.append(Coord(low.bit_length() - 1, y))
            m ^= low
    return out


def largest_free_rect_bounded(
    grid: MeshGrid,
    max_w: int | None = None,
    max_l: int | None = None,
    max_area: int | None = None,
) -> SubMesh | None:
    """Largest-area free sub-mesh with bounded sides and area.

    Among every free sub-mesh no wider than ``max_w``, no longer than
    ``max_l`` and with area at most ``max_area``, returns the one with
    the largest area, then the lowest base row, then the lowest base
    column, then the widest shape.  The oracle tests compare it with a
    monotone-stack histogram sweep over maximal free rectangles.

    Returns ``None`` when no admissible rectangle exists (mesh full or a
    bound is non-positive).
    """
    width, length = grid.width, grid.length
    max_w = width if max_w is None else min(max_w, width)
    max_l = length if max_l is None else min(max_l, length)
    max_area = width * length if max_area is None else max_area
    if max_w <= 0 or max_l <= 0 or max_area <= 0:
        return None
    # no admissible rectangle can have a larger area than this
    ceiling = min(max_area, max_w * max_l, grid.free_count)
    # caps[h - 1]: the widest admissible rectangle of height h
    caps = [
        max_w if max_w * h <= max_area else max_area // h
        for h in range(1, max_l + 1)
    ]
    rows = grid.rows
    best_area = 0
    best: tuple[int, int, int, int] | None = None
    for y in range(length):
        if best_area >= ceiling:
            break  # a later base row would need a strictly larger area
        tall = max_l if max_l < length - y else length - y
        m = rows[y]
        # a later row must beat the best strictly, and no rectangle based
        # here is wider than the row's free-cell count
        free = m.bit_count()
        if tall * (free if free < max_w else max_w) <= best_area:
            continue
        for h in range(1, tall + 1):
            if h > 1:
                m &= rows[y + h - 1]
                if not m:
                    break
            cap = caps[h - 1]
            if not cap:
                break
            need = -(-best_area // h) or 1  # narrowest width to tie the best
            if need > cap:
                continue
            free = m.bit_count()
            if free < need:
                if tall * free < best_area:
                    break  # m only shrinks as h grows
                continue
            r = _runs(m, need)
            if not r:
                continue
            w = need
            while w < cap:
                wider = r & (r >> 1)
                if not wider:
                    break
                r = wider
                w += 1
            x = (r & -r).bit_length() - 1
            area = w * h
            # area >= best_area here; a tie wins only within the best's
            # own base row, on a lower column and then on a wider shape
            if area > best_area or (
                best[1] == y and (x < best[0] or x == best[0] and w > best[2])
            ):
                best_area = area
                best = (x, y, w, h)
    if best is None:
        return None
    return SubMesh.from_base(*best)


def largest_free_rect(grid: MeshGrid) -> SubMesh | None:
    """Largest-area free sub-mesh with no bounds (``None`` if mesh full)."""
    return largest_free_rect_bounded(grid)

