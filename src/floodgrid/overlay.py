"""Parcel-to-cell overlay: polygon clipping and area-weighted apportionment.

Each parcel is clipped to every fishnet cell it can touch; the assessed
value is split across cells in proportion to clipped area. The apportionment
denominator is the parcel's geometric (shoelace) area, not the recorded
land_area field, which guarantees exact value conservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, cell_rect

# Clipped slivers below this area (sq ft) are dropped; below float noise for
# county-scale coordinates.
SLIVER_MIN_AREA = 1e-6

Point = tuple[float, float]


@dataclass
class CellAttribution:
    """One parcel's slice of area and assessed value inside one cell."""

    cell: tuple[int, int]
    parcel_id: str
    clipped_area: float
    apportioned_value: float


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


def clip_ring_to_rect(ring: list[Point], rect: tuple[float, float, float, float]) -> list[Point]:
    """Clip a ring to an axis-aligned rectangle.

    Returns the clipped vertex sequence, empty when disjoint. Degenerate
    (zero-area) outputs are possible and harmless downstream.
    """
    xmin, ymin, xmax, ymax = rect
    out = _clip_half_plane(ring, 0, xmin, True)
    out = _clip_half_plane(out, 0, xmax, False)
    out = _clip_half_plane(out, 1, ymin, True)
    out = _clip_half_plane(out, 1, ymax, False)
    return out


def _clipped_area(ring: list[Point], rect) -> float:
    clipped = clip_ring_to_rect(ring, rect)
    if len(clipped) < 3:
        return 0.0
    return abs(shoelace_area(clipped))


def point_in_polygon(p: Point, rings: list[list[Point]]) -> bool:
    """Even-odd containment test over all rings (holes excluded automatically)."""
    x, y = p
    inside = False
    for ring in rings:
        n = len(ring)
        for k in range(n):
            x1, y1 = ring[k]
            x2, y2 = ring[(k + 1) % n]
            if (y1 > y) != (y2 > y) and x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                inside = not inside
    return inside


def points_in_polygon(xs, ys, rings: list[list[Point]]) -> np.ndarray:
    """Vectorized even-odd test; same crossing rule as point_in_polygon."""
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


def apportion(parcel, g: GridSpec) -> list[CellAttribution]:
    """Split one parcel's area and assessed value over the fishnet cells.

    For each cell overlapping the parcel's bounding box the clipped area is
    |clip(outer)| minus the clipped hole areas, floored at 0. Value follows
    area: assessment * clipped_area / denominator, where the denominator is
    the parcel's geometric area (or the shared group area for MultiPolygon
    members). Slivers under SLIVER_MIN_AREA are dropped; parcel area outside
    the grid is dropped, not renormalized.
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

    out: list[CellAttribution] = []
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            rect = cell_rect(g, i, j)
            area = _clipped_area(outer, rect)
            for hole in parcel.holes:
                area -= _clipped_area(hole, rect)
            if area < SLIVER_MIN_AREA:
                continue
            out.append(CellAttribution(
                cell=(i, j),
                parcel_id=parcel.parcel_id,
                clipped_area=area,
                apportioned_value=parcel.current_assessment * area / denom,
            ))
    return out


def apportion_many(parcels, g: GridSpec) -> list[CellAttribution]:
    """Apportion a batch of parcels, deterministically ordered.

    Output is sorted by (parcel_id, cell), the fixed order in which
    downstream exposure sums are added up.
    """
    flat = [a for p in parcels for a in apportion(p, g)]
    flat.sort(key=lambda a: (a.parcel_id, a.cell))
    return flat
