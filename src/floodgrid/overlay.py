"""Fishnet tessellation over the study-area bounding box, and the
parcel-to-cell overlay: polygon clipping and area-weighted apportionment.

Cells are indexed (row, col), 0-based and row-major from the southwest
corner. Cell (i, j) spans the half-open rectangle
[origin_x + j*s, origin_x + (j+1)*s) x [origin_y + i*s, origin_y + (i+1)*s);
the grid's outer top and right edges are closed so boundary points are never
lost.

Each parcel is clipped to every fishnet cell its bounding box touches; the
assessed value is split across cells in proportion to clipped area. The
apportionment denominator is the parcel's geometric (shoelace) area, not the
recorded land_area field, which guarantees exact value conservation.

Clipping is Sutherland-Hodgman (Sutherland & Hodgman, "Reentrant polygon
clipping", CACM 1974) run on ragged arrays: each half-plane step processes
every ring of a batch at once, with the same arithmetic as the scalar step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Definition of a regular square fishnet grid."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.n_rows}x{self.n_cols}")

    @property
    def x_max(self) -> float:
        return self.origin_x + self.n_cols * self.cell_size

    @property
    def y_max(self) -> float:
        return self.origin_y + self.n_rows * self.cell_size

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def to_json(self) -> str:
        return json.dumps({
            "origin_x": self.origin_x,
            "origin_y": self.origin_y,
            "cell_size": self.cell_size,
            "n_cols": self.n_cols,
            "n_rows": self.n_rows,
        })


_MAX_CELLS = np.iinfo(np.int64).max


def make_fishnet(bbox: tuple[float, float, float, float], cell_size: float) -> GridSpec:
    """Build the fishnet covering ``bbox``, anchored at its southwest corner.

    Column and row counts are rounded up so the grid fully covers the box.
    The cell count must fit the int64 row-major cell index.
    """
    xmin, ymin, xmax, ymax = bbox
    if not all(math.isfinite(v) for v in bbox):
        raise ValueError(f"bbox must be finite, got {bbox!r}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate bbox {bbox!r}")
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    width, height = (xmax - xmin) / cell_size, (ymax - ymin) / cell_size
    if not (math.isfinite(width) and math.isfinite(height)
            and math.ceil(width) * math.ceil(height) <= _MAX_CELLS):
        raise ValueError(f"bbox {bbox!r} at cell_size {cell_size} needs too many cells "
                         f"(at most {_MAX_CELLS})")
    return GridSpec(
        origin_x=xmin,
        origin_y=ymin,
        cell_size=cell_size,
        n_cols=math.ceil(width),
        n_rows=math.ceil(height),
    )


def cell_rect(g: GridSpec, i: int, j: int) -> tuple[float, float, float, float]:
    """Rectangle (xmin, ymin, xmax, ymax) of cell (i, j)."""
    if not (0 <= i < g.n_rows and 0 <= j < g.n_cols):
        raise IndexError(f"cell ({i}, {j}) out of range for {g.n_rows}x{g.n_cols} grid")
    return (
        g.origin_x + j * g.cell_size,
        g.origin_y + i * g.cell_size,
        g.origin_x + (j + 1) * g.cell_size,
        g.origin_y + (i + 1) * g.cell_size,
    )


def _index_of(v, origin: float, s: float, n: int, top: float) -> "int | np.ndarray":
    q = np.floor((np.asarray(v, dtype=float) - origin) / s).astype(np.int64)
    q = np.where(np.asarray(v, dtype=float) == top, n - 1, q)
    q = np.where((q < 0) | (q >= n), -1, q)
    return int(q) if np.ndim(v) == 0 else q


def col_of(g: GridSpec, x) -> "int | np.ndarray":
    """Column index for x coordinate(s); -1 where outside the grid.

    Index is floor((x - origin_x) / cell_size) with the right outer edge
    closed. Accepts scalars or numpy arrays.
    """
    return _index_of(x, g.origin_x, g.cell_size, g.n_cols, g.x_max)


def row_of(g: GridSpec, y) -> "int | np.ndarray":
    """Row index for y coordinate(s); -1 where outside the grid."""
    return _index_of(y, g.origin_y, g.cell_size, g.n_rows, g.y_max)


# Clipped slivers below this area (sq ft) are dropped; below float noise for
# county-scale coordinates.
SLIVER_MIN_AREA = 1e-6

# Ring vertices times bbox cells clipped at once: bounds the transient arrays
# (a traced peak of about 6 MB) whatever the batch size.
CHUNK_COPIES = 1 << 16

# One row per (parcel, cell) attribution: the row-major cell index, the
# parcel's clipped area in that cell and the assessed value apportioned to it.
ATTRIBUTION_DTYPE = np.dtype([("cell", np.int64), ("area", float), ("value", float)])


def ring_areas(x: np.ndarray, y: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Unsigned shoelace area of every ring in flat ``x``/``y``; 0 below 3 vertices.

    Ring r is the next ``lengths[r]`` vertices, open: the edge back to its
    vertex 0 is implied. Vertices are shifted to the ring's vertex 0 first,
    because the cross products of raw county-scale coordinates cancel
    catastrophically for small parcels. The cross products are added
    strictly in vertex order, one vertex position at a time over all rings,
    so every sum is bit-equal to a scalar ``total += term`` loop.
    """
    starts = np.cumsum(lengths) - lengths
    first = np.repeat(starts, lengths)
    nxt = np.arange(1, x.size + 1)
    live = lengths > 0
    nxt[(starts + lengths - 1)[live]] = starts[live]
    # longest rings first, so the rings still running at position k are a prefix
    order = np.argsort(-lengths, kind="stable")
    starts = starts[order]
    running = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    total = np.zeros(lengths.size)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x[first]
        dy = y - y[first]
        term = dx * dy[nxt] - dx[nxt] * dy
        for k, m in enumerate(running.tolist()):
            total[:m] += term[starts[:m] + k]
    area = np.empty(lengths.size)
    area[order] = np.abs(0.5 * total)
    area[lengths < 3] = 0.0
    return area


def _runs(counts: np.ndarray):
    """(run, position in run) of every item when run m holds counts[m] items."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[m]`` up to ``starts[m] + lengths[m]``, in order."""
    run, k = _runs(lengths)
    return starts[run] + k


def _clip(a, o, lengths, bound, keep_ge: bool):
    """One Sutherland-Hodgman half-plane step on every ring at once.

    ``a`` holds each vertex's coordinate on the clip axis and ``o`` the
    other one; ring m is the next ``lengths[m]`` vertices and keeps the side
    ``a >= bound[m]`` (``keep_ge``) or ``a <= bound[m]``. For each edge
    s -> e, s being the vertex before e (wrapping round), the crossing is
    emitted when s and e lie on different sides, then e when it is inside.
    Output slots come from a cumsum. Returns the clipped ``(a, o, lengths)``.
    """
    b = np.repeat(bound, lengths)
    inside = a >= b if keep_ge else a <= b
    starts = np.cumsum(lengths) - lengths
    live = lengths > 0
    prev = np.arange(-1, a.size - 1)
    prev[starts[live]] = (starts + lengths - 1)[live]
    cross = inside[prev] != inside
    emit = cross.astype(np.int64) + inside
    slot = np.cumsum(emit)  # one past the last slot of each e
    out_a = np.empty(slot[-1] if slot.size else 0)
    out_o = np.empty_like(out_a)
    out_a[slot[inside] - 1] = a[inside]
    out_o[slot[inside] - 1] = o[inside]
    s = prev[cross]
    at = slot[cross] - emit[cross]
    out_a[at] = b[cross]
    t = (b[cross] - a[s]) / (a[cross] - a[s])
    out_o[at] = o[s] + t * (o[cross] - o[s])
    ends = np.concatenate(([0], slot))
    return out_a, out_o, ends[starts + lengths] - ends[starts]


def _span(lo, hi, origin: float, s: float, n: int):
    """First bbox cell and cell count along one axis, clamped to the n grid cells."""
    first = np.clip(np.floor((lo - origin) / s), 0, n)
    last = np.clip(np.floor((hi - origin) / s), -1, n - 1)
    return first.astype(np.int64), np.maximum(last - first + 1, 0).astype(np.int64)


def _apportion_chunk(t, g: GridSpec, lo: int, hi: int, j0, nj, i0, ni) -> np.ndarray:
    """Attribution rows of parcels lo..hi-1, whose bbox cells start at column
    j0 and row i0 and span nj columns and ni rows (see apportion_many)."""
    s = g.cell_size
    n_rings = np.diff(t.ring_offsets[lo:hi + 1])

    # every ring once per column of its bbox, in (parcel, column, ring) order
    strips = nj * n_rings
    p, k = _runs(strips)
    col = j0[p] + k // n_rings[p]
    ring = t.ring_offsets[lo:hi][p] + k % n_rings[p]
    starts = t.vertex_offsets[ring]
    lengths = t.vertex_offsets[ring + 1] - starts
    idx = _ragged(starts, lengths)
    x, y, lengths = _clip(t.x[idx], t.y[idx], lengths, g.origin_x + col * s, True)
    x, y, lengths = _clip(x, y, lengths, g.origin_x + (col + 1) * s, False)

    # every strip once per row, in (parcel, row, column, ring) order
    pieces = ni * strips
    p, k = _runs(pieces)
    row = i0[p] + k // strips[p]
    strip = (np.cumsum(strips) - strips)[p] + k % strips[p]
    idx = _ragged((np.cumsum(lengths) - lengths)[strip], lengths[strip])
    y, x, lengths = _clip(y[idx], x[idx], lengths[strip], g.origin_y + row * s, True)
    y, x, lengths = _clip(y, x, lengths, g.origin_y + (row + 1) * s, False)
    piece_area = ring_areas(x, y, lengths)

    # per cell: |clip(outer)|, minus each clipped hole in ring order
    p, c = _runs(ni * nj)
    first = (np.cumsum(pieces) - pieces)[p] + c * n_rings[p]
    area = piece_area[first]
    for q in range(1, n_rings.max(initial=0)):
        has = n_rings[p] > q
        area[has] -= piece_area[first[has] + q]
    keep = ~(area < SLIVER_MIN_AREA)
    p, c, area = p[keep], c[keep], area[keep]

    out = np.empty(area.size, dtype=ATTRIBUTION_DTYPE)
    out["cell"] = (i0[p] + c // nj[p]) * g.n_cols + j0[p] + c % nj[p]
    out["area"] = area
    out["value"] = t.current_assessment[lo:hi][p] * area / t.denominator[lo:hi][p]
    bad = ~np.isfinite(out["value"])
    if bad.any():
        pid = t.parcel_id[lo + p[np.argmax(bad)]]
        raise ValueError(f"apportioned value of parcel {pid!r} is not finite")
    return out


def apportion_many(table, g: GridSpec) -> np.ndarray:
    """Split a ParcelTable's area and assessed value over the fishnet cells.

    Returns an ATTRIBUTION_DTYPE array with the parcels in table (stable
    parcel_id) order and each parcel's cells in row-major order, so within
    every cell the entries come in (parcel_id, input order) order: the
    fixed order in which downstream exposure sums are added up.

    Each ring is copied once per column of its parcel's bbox and clipped to
    that column's x slab; each strip is then copied once per row and
    clipped to the row's y slab. Every cell so runs the four half-plane
    steps of clipping the ring to the cell rectangle, in the same order and
    with the same arithmetic. A cell's area is |clip(outer)| minus the
    clipped hole areas, subtracted one at a time. Value follows area:
    assessment * area / denominator (the parcel's geometric area, or the
    shared group area of MultiPolygon members). Slivers under
    SLIVER_MIN_AREA are dropped; parcel area outside the grid is dropped,
    not renormalized. Parcels are clipped in consecutive chunks of about
    CHUNK_COPIES ring-vertex x bbox-cell copies.

    A parcel with zero geometric area, or whose apportioned value is not
    finite, raises ValueError; the first such parcel in table order wins.
    """
    degenerate = np.flatnonzero(table.area <= 0)
    n = int(degenerate[0]) if degenerate.size else len(table)
    # huge coordinates or values overflow to inf or nan, as Python floats
    # do; _apportion_chunk rejects an apportioned value that is not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xmin, ymin, xmax, ymax = table.bbox[:n].T
        j0, nj = _span(xmin, xmax, g.origin_x, g.cell_size, g.n_cols)
        i0, ni = _span(ymin, ymax, g.origin_y, g.cell_size, g.n_rows)
        vertices = np.diff(table.vertex_offsets[table.ring_offsets[:n + 1]])
        copies = np.cumsum(vertices * nj.astype(float) * ni)  # float: no int64 wrap
        cuts = np.searchsorted(copies, np.arange(CHUNK_COPIES, copies[-1] if n else 0,
                                                 CHUNK_COPIES), "right")
        bounds = [0, *cuts.tolist(), n]
        parts = [_apportion_chunk(table, g, lo, hi, j0[lo:hi], nj[lo:hi], i0[lo:hi], ni[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if degenerate.size:
        raise ValueError(f"degenerate parcel {table.parcel_id[n]!r} (zero geometric area)")
    return np.concatenate(parts) if parts else np.empty(0, dtype=ATTRIBUTION_DTYPE)
