"""Parcel-to-cell overlay: polygon clipping and area-weighted apportionment.

Each parcel is clipped to every fishnet cell it can touch; the assessed
value is split across cells in proportion to clipped area. The apportionment
denominator is the parcel's geometric (shoelace) area, not the recorded
land_area field, which guarantees exact value conservation.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec

# Clipped slivers below this area (sq ft) are dropped; below float noise for
# county-scale coordinates.
SLIVER_MIN_AREA = 1e-6

Point = tuple[float, float]

# One row per (parcel, cell) attribution: the row-major cell index, the
# parcel's clipped area in that cell and the assessed value apportioned to it.
ATTRIBUTION_DTYPE = np.dtype([("cell", np.int64), ("area", float), ("value", float)])


def shoelace_area(ring: list[Point]) -> float:
    """Signed planar area of a ring; positive for counter-clockwise order.

    Vertices are shifted to a local origin first: the cross products of raw
    county-scale coordinates cancel catastrophically for small parcels.
    """
    if len(ring) < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {len(ring)}")
    ox, oy = ring[0]
    total = 0.0
    n = len(ring)
    for k in range(n):
        x0, y0 = ring[k]
        x1, y1 = ring[(k + 1) % n]
        total += (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
    return 0.5 * total


def polygon_area(rings: list[list[Point]]) -> float:
    """Geometric area of a polygon given as outer ring plus holes."""
    area = abs(shoelace_area(rings[0]))
    for hole in rings[1:]:
        area -= abs(shoelace_area(hole))
    return area


def _clip_half_plane(ring: list[Point], axis: int, bound: float, keep_ge: bool) -> list[Point]:
    """Clip a ring against one axis-aligned half-plane (Sutherland-Hodgman step)."""
    if not ring:
        return []

    def inside(p: Point) -> bool:
        return p[axis] >= bound if keep_ge else p[axis] <= bound

    def crossing(s: Point, e: Point) -> Point:
        t = (bound - s[axis]) / (e[axis] - s[axis])
        if axis == 0:
            return (bound, s[1] + t * (e[1] - s[1]))
        return (s[0] + t * (e[0] - s[0]), bound)

    out: list[Point] = []
    s = ring[-1]
    s_in = inside(s)
    for e in ring:
        e_in = inside(e)
        if e_in:
            if not s_in:
                out.append(crossing(s, e))
            out.append(e)
        elif s_in:
            out.append(crossing(s, e))
        s, s_in = e, e_in
    return out


def clip_to_slab(ring: list[Point], axis: int, lo: float, hi: float) -> list[Point]:
    """Clip a ring to the slab lo <= coordinate <= hi along one axis.

    Returns the clipped vertex sequence, empty when disjoint. Degenerate
    (zero-area) outputs are possible and harmless downstream.
    """
    return _clip_half_plane(_clip_half_plane(ring, axis, lo, True), axis, hi, False)


def points_in_polygon(xs, ys, rings: list[list[Point]]) -> np.ndarray:
    """Even-odd containment of points (xs, ys) in all rings (holes excluded).

    A point toggles on each edge that straddles its y and crosses right of it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    inside = np.zeros(xs.shape, dtype=bool)
    for ring in rings:
        pts = np.asarray(ring, dtype=float)
        nxt = np.roll(pts, -1, axis=0)
        for (x1, y1), (x2, y2) in zip(pts, nxt):
            cross = (y1 > ys) != (y2 > ys)
            if not cross.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                hit = xs < (x2 - x1) * (ys - y1) / (y2 - y1) + x1
            inside ^= cross & hit
    return inside


def _ring_area(ring: list[Point]) -> float:
    return abs(shoelace_area(ring)) if len(ring) >= 3 else 0.0


def apportion(parcel, g: GridSpec) -> np.ndarray:
    """Split one parcel's area and assessed value over the fishnet cells.

    Returns an ATTRIBUTION_DTYPE array, one row per cell the parcel covers,
    in ascending row-major cell order. Each cell's clipped area is
    |clip(outer)| minus the clipped hole areas, subtracted one at a time.
    Each ring is clipped once per column strip, and each strip once per
    row: the same half-plane steps, in the same order, as clipping the
    ring to the cell rectangle. Value follows area:
    assessment * area / denominator, where the denominator is the parcel's
    geometric area (or the shared group area for MultiPolygon members).
    Slivers under SLIVER_MIN_AREA are dropped; parcel area outside the grid
    is dropped, not renormalized. A value that overflows raises ValueError.
    """
    outer = parcel.outer_ring
    geom_area = abs(shoelace_area(outer)) - sum(abs(shoelace_area(h)) for h in parcel.holes)
    if geom_area <= 0:
        raise ValueError(f"degenerate parcel {parcel.parcel_id!r} (zero geometric area)")
    denom = parcel.group_area if parcel.group_area is not None else geom_area

    xs = [p[0] for p in outer]
    ys = [p[1] for p in outer]
    s = g.cell_size
    j_lo = max(0, int(math.floor((min(xs) - g.origin_x) / s)))
    j_hi = min(g.n_cols - 1, int(math.floor((max(xs) - g.origin_x) / s)))
    i_lo = max(0, int(math.floor((min(ys) - g.origin_y) / s)))
    i_hi = min(g.n_rows - 1, int(math.floor((max(ys) - g.origin_y) / s)))

    # strips[j] holds the outer ring and then each hole clipped to column j
    strips = [
        [clip_to_slab(ring, 0, g.origin_x + j * s, g.origin_x + (j + 1) * s)
         for ring in parcel.rings]
        for j in range(j_lo, j_hi + 1)
    ]
    cells: list[int] = []
    areas: list[float] = []
    for i in range(i_lo, i_hi + 1):
        y_lo, y_hi = g.origin_y + i * s, g.origin_y + (i + 1) * s
        for j, (outer_strip, *hole_strips) in enumerate(strips, j_lo):
            area = _ring_area(clip_to_slab(outer_strip, 1, y_lo, y_hi))
            for hole in hole_strips:
                area -= _ring_area(clip_to_slab(hole, 1, y_lo, y_hi))
            if area < SLIVER_MIN_AREA:
                continue
            cells.append(i * g.n_cols + j)
            areas.append(area)

    out = np.empty(len(cells), dtype=ATTRIBUTION_DTYPE)
    out["cell"] = cells
    out["area"] = areas
    with np.errstate(over="ignore"):
        out["value"] = parcel.current_assessment * out["area"] / denom
    if not np.isfinite(out["value"]).all():
        raise ValueError(f"apportioned value of parcel {parcel.parcel_id!r} is not finite")
    return out


def apportion_many(parcels, g: GridSpec) -> np.ndarray:
    """Apportion a batch of parcels into one ATTRIBUTION_DTYPE array.

    Parcels are taken in stable parcel_id order, each with its cells in
    row-major order, so within every cell the entries come in
    (parcel_id, input order) order: the fixed order in which downstream
    exposure sums are added up.
    """
    parts = [apportion(p, g) for p in sorted(parcels, key=lambda p: p.parcel_id)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=ATTRIBUTION_DTYPE)
