"""Per-cell ground elevation, base flood elevation, and flood depth.

Zonal elevation is the arithmetic mean of DEM samples whose cell-center
points fall inside the fishnet cell (half-open membership, NODATA excluded).
BFE is assigned by cell-centroid containment against the zone polygons.
Each is one row-major array over the grid, NaN where unknown.
"""

from __future__ import annotations

import mmap
import os
import signal
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geodata import BfeZone, Raster, data_mask, format_numbers
from .grid import GridSpec, col_of, row_of

# Scanline rows per chunk times their zone edges plus grid columns: bounds
# the transient straddle mask and toggle counts whatever the zone or grid.
SCANLINE_CHUNK = 1 << 16


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


def _workers() -> int:
    """How many processes sum a DEM body read from a file: one per CPU this
    process may run on, or one where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _forked(runs) -> bool:
    """Call ``runs[0]()`` here while each later run is called in a forked child.
    False if a child's run raises or the child dies, if ``runs[0]`` raises
    OSError or ValueError, or if a fork fails; no child outlives the call."""
    pids = []
    try:
        for run in runs[1:]:
            if (pid := os.fork()) == 0:  # a child never returns into the caller
                try:
                    run()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        runs[0]()
        while pids:
            if os.waitpid(pids.pop(0), 0)[1]:
                return False
        return True
    except (OSError, ValueError):
        return False
    finally:
        for pid in pids:
            with suppress(ChildProcessError, ProcessLookupError):  # reaped if SIGCHLD is ignored
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def zonal_mean_elevation(dem: Raster, g: GridSpec) -> np.ndarray:
    """Mean DEM elevation per fishnet cell, row-major.

    A DEM sample belongs to the fishnet cell containing its center point;
    NODATA and non-finite samples are excluded. Cells with no samples are
    NaN. A grid too large for its sums to be mapped is a MemoryError.

    The sums run over bands of the DEM rows that fall in one fishnet row,
    so each cell is summed within one band, in row-major order, exactly as
    one bincount over the whole raster would. A body streamed from a named
    file is split into contiguous runs of bands, one per ``_workers()``,
    each read anew from the file: this process sums the first, and a forked
    child each other. Should any of them fail, all bands are summed here
    from ``dem.bands``, so the means and any error do not depend on the count.
    """
    cs = dem.cellsize
    centers_x = dem.xllcorner + (np.arange(dem.ncols) + 0.5) * cs
    # row 0 of the value array is the northernmost row
    centers_y = dem.yllcorner + (dem.nrows - np.arange(dem.nrows) - 0.5) * cs

    jj = col_of(g, centers_x)
    ii = row_of(g, centers_y)
    # Centers are monotone, so the DEM columns inside the grid are contiguous,
    # and the DEM rows of one fishnet row, or of the outside (-1), are a band.
    cols = np.flatnonzero(jj >= 0)
    c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
    jj = jj[c0:c1]
    edges = np.concatenate(([0], 1 + np.flatnonzero(np.diff(ii)), [dem.nrows]))

    # the sum and the count of the samples of each cell, shared with forked children
    try:
        acc = np.frombuffer(mmap.mmap(-1, 16 * g.n_cells)).reshape(2, g.n_cells)
    except (OSError, OverflowError):  # more than the address space or the memory
        raise MemoryError(f"cannot map the sums of {g.n_cells} cells") from None
    sums, counts = acc

    def add(bands, k0=0):
        for k, band in enumerate(bands, start=k0):
            lo = ii[edges[k]] * g.n_cols
            if lo < 0:
                continue  # outside the grid; a streamed band is checked all the same
            block = band[:, c0:c1]
            ok = data_mask(block, dem.nodata_value)
            flat = np.broadcast_to(jj, block.shape)[ok]
            sums[lo:lo + g.n_cols] = np.bincount(flat, weights=block[ok], minlength=g.n_cols)
            counts[lo:lo + g.n_cols] = np.bincount(flat, minlength=g.n_cols)

    n = min(_workers(), len(edges) - 1) if dem.body else 1
    bounds = [(len(edges) - 1) * r // n for r in range(n + 1)]
    runs = [partial(add, dem.reread(edges[a:b + 1]), a) for a, b in zip(bounds, bounds[1:])]
    # add() sets all the cells of a band, so a failed split leaves nothing behind
    if n == 1 or not _forked(runs):
        add(dem.bands(edges))
    return np.divide(sums, counts, out=np.full(g.n_cells, np.nan), where=counts > 0)


def assign_bfe(g: GridSpec, zones: list[BfeZone]) -> np.ndarray:
    """Base flood elevation per cell by centroid containment, row-major.

    The first zone in input order whose polygon contains the cell centroid
    wins; cells whose centroid lies outside every zone are NaN (they can
    never flood).

    Containment is the even-odd rule run as a scanline over all of a zone's
    rings at once (Haines, "Point in Polygon Strategies", Graphics Gems IV,
    1994). Edge (x1, y1) -> (x2, y2) crosses the centroid row at y when
    ``(y1 > y) != (y2 > y)``, at ``(x2 - x1) * (y - y1) / (y2 - y1) + x1``; a
    centroid at x is inside when an odd number of the crossings (NaN ones
    aside, an overflowing one infinite) are strictly greater than x. Only rows
    in the zone's y-range are scanned, in chunks of about SCANLINE_CHUNK row
    x (edge + column) entries.
    """
    cx = g.origin_x + (np.arange(g.n_cols) + 0.5) * g.cell_size
    cy = g.origin_y + (np.arange(g.n_rows) + 0.5) * g.cell_size

    bfe = np.full((g.n_rows, g.n_cols), np.nan)
    for zone in zones:
        rings = [np.asarray(ring, dtype=float) for ring in zone.rings]
        x1, y1 = np.concatenate(rings).T
        x2, y2 = np.concatenate([np.roll(ring, -1, axis=0) for ring in rings]).T
        lo, hi = np.searchsorted(cy, [np.fmin.reduce(y1), np.fmax.reduce(y1)]).tolist()
        step = max(1, SCANLINE_CHUNK // (x1.size + g.n_cols))
        for r0 in range(lo, hi, step):
            y = cy[r0:min(r0 + step, hi), None]
            row, e = np.nonzero((y1 > y) != (y2 > y))
            with np.errstate(all="ignore"):
                xc = (x2[e] - x1[e]) * (y[row, 0] - y1[e]) / (y2[e] - y1[e]) + x1[e]
            # every row's centroids share the sorted cx: count those left of each crossing
            left = np.where(np.isnan(xc), 0, np.searchsorted(cx, xc))
            toggles = np.bincount(row * (g.n_cols + 1) + left,
                                  minlength=y.size * (g.n_cols + 1)).reshape(y.size, -1)
            # column j is toggled by the crossings with more than j centroids left of them
            inside = np.cumsum(toggles[:, :0:-1], axis=1)[:, ::-1] % 2 == 1
            block = bfe[r0:r0 + y.size]
            block[inside & np.isnan(block)] = zone.static_bfe
    return bfe.ravel()


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
    order (see overlay.apportion_many). An exposure sum that overflows
    raises ValueError.
    """
    cells = attributions["cell"]
    value = np.bincount(cells, weights=attributions["value"], minlength=g.n_cells)
    area = np.bincount(cells, weights=attributions["area"], minlength=g.n_cells)
    bad = ~(np.isfinite(value) & np.isfinite(area))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), g.n_cols)
        raise ValueError(f"exposure of cell ({i}, {j}) is not finite")
    return CellArrays(mean_elevation=elevations, bfe=bfes, exposed_value=value, exposed_area=area)


def cell_states_csv(g: GridSpec, states: CellArrays) -> str:
    """Dump cell states as CSV, row-major; absent elevations/BFEs are empty."""
    elev, bfe = (("" if s == "nan" else s for s in format_numbers(column))
                 for column in (states.mean_elevation, states.bfe))
    rows = zip(elev, bfe, states.exposed_value.tolist(), format_numbers(states.exposed_area))
    lines = ["row,col,mean_elevation,bfe,exposed_value,exposed_area"]
    lines += (f"{k // g.n_cols},{k % g.n_cols},{e},{b},{value:.2f},{area}"
              for k, (e, b, value, area) in enumerate(rows))
    return "\n".join(lines) + "\n"
