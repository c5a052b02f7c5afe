"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import re
from typing import NamedTuple

import numpy as np
import pytest

from floodgrid import geodata
from floodgrid.eda import EdaReport, breusch_pagan, ols_fit, tukey_outlier_mask
from floodgrid.geodata import Raster
from floodgrid.terrain import SLIVER_MIN_AREA, GridSpec, cell_rect


class Feature(NamedTuple):
    """One ParcelTable record: a parcel feature with its member polygons."""

    parcel_id: str
    polygons: list  # per member: outer ring, then holes; rings of (x, y), open
    current_assessment: float = 1.0
    land_area: float = 0.0
    base_flood: float = 0.0


def polygon(pid, ring, value=1.0, land_area=0.0, holes=()) -> Feature:
    """A single-polygon feature."""
    return Feature(pid, [[ring, *holes]], value, land_area)


def parcel_rings(table, k: int) -> list[list[tuple[float, float]]]:
    """Row k of a ParcelTable as rings of (x, y) tuples, outer ring first."""
    v = table.vertex_offsets.tolist()
    return [list(zip(table.x[v[r]:v[r + 1]].tolist(), table.y[v[r]:v[r + 1]].tolist()))
            for r in range(table.ring_offsets[k], table.ring_offsets[k + 1])]


# ---------------------------------------------------------------------------
# Work split between forked processes
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Per call of geodata._forked that cuts two parts or more: True where every
    process ran its part, False where it failed and the caller did all the work
    itself. A call of one part forks nothing and is not recorded."""
    calls = []
    forked = geodata._forked

    def spy(run, n, least=1):
        values = forked(run, n, least)
        if min(geodata._workers(), n // least) > 1:
            calls.append(values is not None)
        return values
    monkeypatch.setattr(geodata, "_forked", spy)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# Random geometry generators
# ---------------------------------------------------------------------------

def random_convex_ring(rng: np.random.Generator, center, rx, ry, n_min=3, n_max=8):
    """Vertices of a convex ring: sorted angles on an axis-aligned ellipse."""
    n = int(rng.integers(n_min, n_max + 1))
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    # degenerate if angles cluster; nudge apart
    while np.min(np.diff(np.append(angles, angles[0] + 2 * math.pi))) < 0.15:
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    cx, cy = center
    return [(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles]


def random_l_ring(rng: np.random.Generator, origin, w, h):
    """An L-shaped ring: a rectangle with one random corner notched out."""
    x0, y0 = origin
    x1, y1 = x0 + w, y0 + h
    xm = x0 + w * rng.uniform(0.3, 0.7)
    ym = y0 + h * rng.uniform(0.3, 0.7)
    return [(x0, y0), (x1, y0), (x1, ym), (xm, ym), (xm, y1), (x0, y1)]


def random_star_ring(rng: np.random.Generator, center, r_min, r_max, n=10):
    """A simple (star-shaped) ring with varying radii."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    while np.min(np.diff(np.append(angles, angles[0] + 2 * math.pi))) < 0.1:
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    cx, cy = center
    radii = rng.uniform(r_min, r_max, n)
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]


def random_simple_parcel(rng: np.random.Generator, pid: str, bbox) -> Feature:
    """A random simple parcel (convex, L-shaped, or star) inside ``bbox``."""
    xmin, ymin, xmax, ymax = bbox
    w = xmax - xmin
    h = ymax - ymin
    kind = rng.integers(0, 3)
    cx = rng.uniform(xmin + 0.25 * w, xmax - 0.25 * w)
    cy = rng.uniform(ymin + 0.25 * h, ymax - 0.25 * h)
    if kind == 0:
        ring = random_convex_ring(rng, (cx, cy), rng.uniform(0.05, 0.2) * w,
                                  rng.uniform(0.05, 0.2) * h)
    elif kind == 1:
        ring = random_l_ring(rng, (cx, cy), rng.uniform(0.1, 0.4) * w,
                             rng.uniform(0.1, 0.4) * h)
        ring = [(min(x, xmax), min(y, ymax)) for x, y in ring]
    else:
        ring = random_star_ring(rng, (cx, cy), 0.03 * min(w, h), 0.18 * min(w, h))
    return polygon(pid, ring, float(rng.uniform(10_000, 1_000_000)),
                   float(abs(shoelace_area(ring))))


def random_raster(rng: np.random.Generator) -> Raster:
    ncols = int(rng.integers(1, 7))
    nrows = int(rng.integers(1, 7))
    nodata = float(rng.choice([-9999.0, -3.4e38, 0.0]))
    values = rng.uniform(-1e4, 1e4, size=nrows * ncols)
    # sprinkle nodata cells
    hit = rng.random(values.shape) < 0.15
    values[hit] = nodata
    return Raster(
        ncols=ncols,
        nrows=nrows,
        xllcorner=float(rng.uniform(-1e5, 1e5)),
        yllcorner=float(rng.uniform(-1e5, 1e5)),
        cellsize=float(rng.uniform(0.5, 200.0)),
        nodata_value=nodata,
        values=values,
    )


def wrap_rows(rows, width: int, per_row: bool = True) -> list[str]:
    """Value lines of up to ``width`` tokens from ``rows`` (lists of tokens): each
    row on lines of its own if ``per_row``, else the tokens of all rows flowed on."""
    runs = rows if per_row else [[token for row in rows for token in row]]
    return [" ".join(run[k:k + width]) for run in runs for k in range(0, len(run), width)]


def cell_map(values, g: GridSpec) -> dict[tuple[int, int], float]:
    """A row-major per-cell array as a {(i, j): v} map, NaN cells left out."""
    return {divmod(k, g.n_cols): v for k, v in enumerate(np.asarray(values).tolist())
            if not math.isnan(v)}


def attributed_areas(attrs, g: GridSpec) -> dict[tuple[int, int], float]:
    """One parcel's apportioned areas as a {(i, j): area} map."""
    return {divmod(k, g.n_cols): a
            for k, a in zip(attrs["cell"].tolist(), attrs["area"].tolist())}


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def format_number(x: float) -> str:
    """repr of one float, less a trailing ".0": the scalar oracle for geodata.format_numbers."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def structured_area_cost(t: np.ndarray) -> np.ndarray:
    """Per-row area cost of a copied TABLE_DTYPE table, naming its first bad row."""
    bad = t["land_area"] <= 0
    if bad.any():
        raise ValueError(f"undefined area cost for parcel {t['parcel_id'][bad][0]!r} "
                         "(land_area <= 0)")
    with np.errstate(over="ignore"):
        cost = t["shape_area"] / t["land_area"] * t["current_assessment"]
    bad = ~np.isfinite(cost)
    if bad.any():
        raise OverflowError(f"area cost of parcel {t['parcel_id'][bad][0]!r} is not finite")
    return cost


def structured_run_eda(t: np.ndarray):
    """The structured-row EDA pipeline that the row-index one replaced: each
    stage copies the TABLE_DTYPE rows it keeps. Returns (report, kept rows)."""
    counts = {"input": len(t)}
    assessment, land = t["current_assessment"], t["land_area"]
    keep = assessment > 10_000
    counts["min_assessment"] = int(np.count_nonzero(keep))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        keep &= (land > 0) & (assessment / land > 1)
    counts["min_price_per_sqft"] = int(np.count_nonzero(keep))
    keep &= t["base_flood"] > 0
    counts["positive_base_flood"] = int(np.count_nonzero(keep))
    t = t[keep]
    kept = t[structured_area_cost(t) > 0]
    counts["positive_area_cost"] = len(kept)

    cost = structured_area_cost(kept)
    if len(kept) >= 4:
        inlier = ~(tukey_outlier_mask(cost) | tukey_outlier_mask(kept["shape_area"]))
        kept, cost = kept[inlier], cost[inlier]
    counts["outlier_removal"] = len(kept)
    if len(kept) < 3:
        raise ValueError(f"only {len(kept)} records survive filtering; regression impossible")
    slope, intercept, r2 = ols_fit(kept["shape_area"], cost)
    lm, het = breusch_pagan(kept["shape_area"], cost)
    return EdaReport(counts, slope, intercept, r2, lm, het), kept


def structured_scatter(kept: np.ndarray) -> str:
    """scatter.csv of the kept TABLE_DTYPE rows, rendered in one part."""
    ids = kept["parcel_id"].tolist()
    cells = (ids, geodata.format_numbers(kept["shape_area"]),
             geodata.format_numbers(structured_area_cost(kept)))
    try:
        plain = not re.search('[,"\r\n]', "".join(ids))
    except TypeError:
        plain = False
    if plain:
        rows = "".join(map("{},{},{}\n".format, *cells))
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(zip(*cells))
        rows = buf.getvalue()
    return "parcel_id,shape_area,area_cost\n" + rows


def points_in_polygon(xs, ys, rings) -> np.ndarray:
    """Even-odd containment of points (xs, ys) in all rings (holes excluded).

    A point toggles on each edge that straddles its y and crosses right of
    it, one edge at a time over all points: the brute-force oracle for
    terrain.assign_bfe.
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


def mc_cell_areas(rings, g: GridSpec, n_samples: int, rng: np.random.Generator):
    """Monte Carlo per-cell clipped-area estimate of a polygon (outer ring first).

    Uniform samples in the polygon bbox are classified by the even-odd test;
    the hits are binned to fishnet cells by plain floor arithmetic
    (independently of the engine's clipping path).
    """
    xs_ring = [p[0] for p in rings[0]]
    ys_ring = [p[1] for p in rings[0]]
    xmin, xmax = min(xs_ring), max(xs_ring)
    ymin, ymax = min(ys_ring), max(ys_ring)
    bbox_area = (xmax - xmin) * (ymax - ymin)

    px = rng.uniform(xmin, xmax, n_samples)
    py = rng.uniform(ymin, ymax, n_samples)
    inside = points_in_polygon(px, py, rings)

    jj = np.floor((px[inside] - g.origin_x) / g.cell_size).astype(np.int64)
    ii = np.floor((py[inside] - g.origin_y) / g.cell_size).astype(np.int64)
    ok = (jj >= 0) & (jj < g.n_cols) & (ii >= 0) & (ii < g.n_rows)
    areas: dict[tuple[int, int], float] = {}
    for i, j in zip(ii[ok], jj[ok]):
        areas[(int(i), int(j))] = areas.get((int(i), int(j)), 0.0) + 1
    return {cell: count / n_samples * bbox_area for cell, count in areas.items()}


def shoelace_area(ring) -> float:
    """Signed area of a ring, positive counter-clockwise, summed one vertex at a
    time about vertex 0: the scalar oracle for geodata.ring_areas."""
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


def polygon_area(rings) -> float:
    """|outer| minus each hole in turn."""
    area = abs(shoelace_area(rings[0]))
    for hole in rings[1:]:
        area -= abs(shoelace_area(hole))
    return area


def clip_half_plane(ring, axis: int, bound: float, keep_ge: bool):
    """One scalar Sutherland-Hodgman step against an axis-aligned half-plane."""
    if not ring:
        return []

    def inside(p):
        return p[axis] >= bound if keep_ge else p[axis] <= bound

    def crossing(s, e):
        t = (bound - s[axis]) / (e[axis] - s[axis])
        if axis == 0:
            return (bound, s[1] + t * (e[1] - s[1]))
        return (s[0] + t * (e[0] - s[0]), bound)

    out = []
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


def mask_clip(a, o, lengths, bound, keep_ge: bool):
    """The boolean-mask ragged half-plane step that terrain._clip replaced:
    each operand is compressed by the ``inside`` or ``cross`` mask each time it
    is used. Returns the clipped ``(a, o, lengths)``."""
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


def reference_apportion(feature, g: GridSpec):
    """(parcel_id, cell, area, value) rows of one feature's members, in input
    order, each with its cells in row-major order.

    Every grid cell's rectangle is clipped on its own, x bounds then y
    bounds, and the holes are subtracted in order; members of a MultiPolygon
    divide by the feature's summed polygon areas.
    """
    def clipped_area(ring, rect):
        xmin, ymin, xmax, ymax = rect
        out = clip_half_plane(ring, 0, xmin, True)
        out = clip_half_plane(out, 0, xmax, False)
        out = clip_half_plane(out, 1, ymin, True)
        out = clip_half_plane(out, 1, ymax, False)
        return abs(shoelace_area(out)) if len(out) >= 3 else 0.0

    pid, polys, value = feature[:3]
    group = sum(polygon_area(rings) for rings in polys)
    rows = []
    for k, (outer, *holes) in enumerate(polys):
        geom_area = abs(shoelace_area(outer)) - sum(abs(shoelace_area(h)) for h in holes)
        denom = geom_area if len(polys) == 1 else group
        for i in range(g.n_rows):
            for j in range(g.n_cols):
                rect = cell_rect(g, i, j)
                area = clipped_area(outer, rect)
                for hole in holes:
                    area -= clipped_area(hole, rect)
                if area >= SLIVER_MIN_AREA:
                    rows.append((pid if len(polys) == 1 else f"{pid}#{k}",
                                 i * g.n_cols + j, area, value * area / denom))
    return rows


def brute_force_zonal_means(dem: Raster, g: GridSpec):
    """Zonal means by per-pixel enumeration in pure Python, row-major order."""
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for r in range(dem.nrows):
        y = dem.yllcorner + (dem.nrows - r - 0.5) * dem.cellsize
        for c in range(dem.ncols):
            v = float(dem.values[r, c])
            if v == dem.nodata_value:
                continue
            x = dem.xllcorner + (c + 0.5) * dem.cellsize
            j = math.floor((x - g.origin_x) / g.cell_size)
            if x == g.origin_x + g.n_cols * g.cell_size:
                j = g.n_cols - 1
            i = math.floor((y - g.origin_y) / g.cell_size)
            if y == g.origin_y + g.n_rows * g.cell_size:
                i = g.n_rows - 1
            if not (0 <= i < g.n_rows and 0 <= j < g.n_cols):
                continue
            sums[(i, j)] = sums.get((i, j), 0.0) + v
            counts[(i, j)] = counts.get((i, j), 0) + 1
    return {cell: sums[cell] / counts[cell] for cell in sums}


def ols_normal_equations(x, y):
    """Textbook normal-equations OLS, independent of the centered-sums path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sxx = float(np.sum(x * x))
    sxy = float(np.sum(x * y))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - sy / n) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2
