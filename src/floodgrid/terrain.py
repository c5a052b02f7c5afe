"""Per-cell ground elevation, base flood elevation, and flood depth.

Zonal elevation is the arithmetic mean of DEM samples whose cell-center
points fall inside the fishnet cell (half-open membership, NODATA excluded).
BFE is assigned by cell-centroid containment against the zone polygons.
Each is one row-major array over the grid, NaN where unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geodata import BfeZone, Raster, data_mask, format_number
from .grid import GridSpec, col_of, row_of
from .overlay import points_in_polygon


@dataclass
class CellArrays:
    """Everything known about the fishnet cells before running scenarios.

    Four row-major arrays of length ``n_cells``: cell (i, j) sits at index
    ``i * n_cols + j``. A missing mean elevation or BFE is NaN, and such a
    cell never floods.
    """

    mean_elevation: np.ndarray
    bfe: np.ndarray
    exposed_value: np.ndarray
    exposed_area: np.ndarray


def zonal_mean_elevation(dem: Raster, g: GridSpec) -> np.ndarray:
    """Mean DEM elevation per fishnet cell, row-major.

    A DEM sample belongs to the fishnet cell containing its center point;
    NODATA and non-finite samples are excluded. Cells with no samples are
    NaN.

    The sums run over bands of the DEM rows that fall in one fishnet row,
    so each cell is summed within one band, in row-major order, exactly as
    one bincount over the whole raster would.
    """
    cs = dem.cellsize
    centers_x = dem.xllcorner + (np.arange(dem.ncols) + 0.5) * cs
    # row 0 of the value array is the northernmost row
    centers_y = dem.yllcorner + (dem.nrows - np.arange(dem.nrows) - 0.5) * cs

    jj = col_of(g, centers_x)
    ii = row_of(g, centers_y)

    sums = np.zeros(g.n_cells)
    counts = np.zeros(g.n_cells, dtype=np.int64)
    rows = np.flatnonzero(ii >= 0)
    cols = np.flatnonzero(jj >= 0)
    if rows.size and cols.size:
        # Centers are monotone, so the DEM rows and columns inside the grid
        # are contiguous, and fishnet rows never increase down the DEM.
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        jj = jj[c0:c1]
        edges = np.concatenate(([r0], r0 + 1 + np.flatnonzero(np.diff(ii[r0:r1])), [r1]))
        for start, end in zip(edges[:-1], edges[1:]):
            lo = ii[start] * g.n_cols
            block = dem.values[start:end, c0:c1]
            ok = data_mask(block, dem.nodata_value)
            flat = np.broadcast_to(jj, block.shape)[ok]
            sums[lo:lo + g.n_cols] = np.bincount(flat, weights=block[ok], minlength=g.n_cols)
            counts[lo:lo + g.n_cols] = np.bincount(flat, minlength=g.n_cols)
    return np.divide(sums, counts, out=np.full(g.n_cells, np.nan), where=counts > 0)


def assign_bfe(g: GridSpec, zones: list[BfeZone]) -> np.ndarray:
    """Base flood elevation per cell by centroid containment, row-major.

    The first zone in input order whose polygon contains the cell centroid
    wins; cells whose centroid lies outside every zone are NaN (they can
    never flood).
    """
    cx = g.origin_x + (np.arange(g.n_cols) + 0.5) * g.cell_size
    cy = g.origin_y + (np.arange(g.n_rows) + 0.5) * g.cell_size
    xs = np.broadcast_to(cx[None, :], (g.n_rows, g.n_cols)).ravel()
    ys = np.broadcast_to(cy[:, None], (g.n_rows, g.n_cols)).ravel()

    bfe = np.full(g.n_cells, np.nan)
    unassigned = np.ones(g.n_cells, dtype=bool)
    for zone in zones:
        if not unassigned.any():
            break
        hit = points_in_polygon(xs, ys, zone.rings) & unassigned
        bfe[hit] = zone.static_bfe
        unassigned &= ~hit
    return bfe


def flood_depth(bfe, slr, elevation):
    """Water depth over ground: (bfe + slr) - elevation, elementwise.

    Positive means the cell floods; negative means the ground sits above the
    flood elevation. NaN (a missing BFE or elevation) never compares
    positive.
    """
    return (bfe + slr) - elevation


def build_cell_states(
    g: GridSpec,
    attributions: np.ndarray,
    elevations: np.ndarray,
    bfes: np.ndarray,
) -> CellArrays:
    """Assemble the cell arrays for the whole grid.

    Exposure is summed per cell in attribution order, so ``attributions``
    (an overlay.ATTRIBUTION_DTYPE array) must already be in deterministic
    order (see overlay.apportion_many).
    """
    cells = attributions["cell"]
    return CellArrays(
        mean_elevation=elevations,
        bfe=bfes,
        exposed_value=np.bincount(cells, weights=attributions["value"], minlength=g.n_cells),
        exposed_area=np.bincount(cells, weights=attributions["area"], minlength=g.n_cells),
    )


def cell_states_csv(g: GridSpec, states: CellArrays) -> str:
    """Dump cell states as CSV, row-major; absent elevations/BFEs are empty."""
    lines = ["row,col,mean_elevation,bfe,exposed_value,exposed_area"]
    columns = zip(states.mean_elevation.tolist(), states.bfe.tolist(),
                  states.exposed_value.tolist(), states.exposed_area.tolist())
    for k, (elev, bfe, value, area) in enumerate(columns):
        elev = "" if math.isnan(elev) else format_number(elev)
        bfe = "" if math.isnan(bfe) else format_number(bfe)
        lines.append(f"{k // g.n_cols},{k % g.n_cols},{elev},{bfe},"
                     f"{value:.2f},{format_number(area)}")
    return "\n".join(lines) + "\n"
