"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from floodgrid.geodata import Parcel, Raster
from floodgrid.grid import GridSpec
from floodgrid.overlay import points_in_polygon, shoelace_area


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


def random_simple_parcel(rng: np.random.Generator, pid: str, bbox) -> Parcel:
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
    return Parcel(
        parcel_id=pid,
        outer_ring=ring,
        current_assessment=float(rng.uniform(10_000, 1_000_000)),
        land_area=float(abs(shoelace_area(ring))),
    )


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

def mc_cell_areas(parcel: Parcel, g: GridSpec, n_samples: int, rng: np.random.Generator):
    """Monte Carlo per-cell clipped-area estimate.

    Uniform samples in the parcel bbox are classified by the even-odd test;
    the hits are binned to fishnet cells by plain floor arithmetic
    (independently of the engine's clipping path).
    """
    xs_ring = [p[0] for p in parcel.outer_ring]
    ys_ring = [p[1] for p in parcel.outer_ring]
    xmin, xmax = min(xs_ring), max(xs_ring)
    ymin, ymax = min(ys_ring), max(ys_ring)
    bbox_area = (xmax - xmin) * (ymax - ymin)

    px = rng.uniform(xmin, xmax, n_samples)
    py = rng.uniform(ymin, ymax, n_samples)
    inside = points_in_polygon(px, py, parcel.rings)

    jj = np.floor((px[inside] - g.origin_x) / g.cell_size).astype(np.int64)
    ii = np.floor((py[inside] - g.origin_y) / g.cell_size).astype(np.int64)
    ok = (jj >= 0) & (jj < g.n_cols) & (ii >= 0) & (ii < g.n_rows)
    areas: dict[tuple[int, int], float] = {}
    for i, j in zip(ii[ok], jj[ok]):
        areas[(int(i), int(j))] = areas.get((int(i), int(j)), 0.0) + 1
    return {cell: count / n_samples * bbox_area for cell, count in areas.items()}


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
