"""Per-cell ground elevation, base flood elevation and flood depth, and the
base-flood and sea-level-rise scenario runs over them.

Zonal elevation is the arithmetic mean of DEM samples whose cell-center
points fall inside the fishnet cell (half-open membership, NODATA excluded).
BFE is assigned by cell-centroid containment against the zone polygons.
Each is one row-major array over the grid, NaN where unknown.

Each scenario adds a uniform rise to every cell's base flood elevation,
recomputes depths, and aggregates flooded area and damage. Percent deltas
follow the incremental-over-base formula: the k-th delta is the change from
the previous scenario divided by the base total.
"""

from __future__ import annotations

import json
import logging
import math
import mmap
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import geodata
from .geodata import BfeZone, DamageCurve, Raster, cell_damage, data_mask, format_numbers
from .overlay import GridSpec, col_of, row_of

logger = logging.getLogger(__name__)

# Scanline rows per chunk times their zone edges plus grid columns: bounds
# the transient straddle mask and toggle counts whatever the zone or grid.
SCANLINE_CHUNK = 1 << 16

AREA_BASES = ("parcel", "cell")


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
    NaN. A grid too large for its sums to be mapped is a MemoryError, and a
    cell whose finite samples sum past the float range a ParseError.

    The sums run over bands of the DEM rows that fall in one fishnet row,
    so each cell is summed within one band, in row-major order, exactly as
    one bincount over the whole raster would. A body streamed from a named
    file is one ``geodata._forked`` call over the bands: this process and
    forked children each sum a contiguous run of them, read anew from the
    file. Should that not split or any part fail, all bands are summed here
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

    def add(a, b, read=dem.reread):  # bands a to b - 1, as read() gives them
        for k, band in enumerate(read(edges[a:b + 1]), start=a):
            lo = ii[edges[k]] * g.n_cols
            if lo < 0:
                continue  # outside the grid; a streamed band is checked all the same
            block = band[:, c0:c1]
            ok = data_mask(block, dem.nodata_value)
            flat = np.broadcast_to(jj, block.shape)[ok]
            sums[lo:lo + g.n_cols] = np.bincount(flat, weights=block[ok], minlength=g.n_cols)
            counts[lo:lo + g.n_cols] = np.bincount(flat, minlength=g.n_cols)

    # add() sets all the cells of a band, so a failed split leaves nothing behind
    if not (dem.body and geodata._forked(add, len(edges) - 1)):
        add(0, len(edges) - 1, dem.bands)
    bad = ~np.isfinite(sums)
    if bad.any():  # finite samples whose sum overflows
        i, j = divmod(int(np.argmax(bad)), g.n_cols)
        raise geodata.ParseError(f"elevation sum of cell ({i}, {j}) is not finite")
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


def cell_states_csv(g: GridSpec, states: CellArrays) -> Iterator[str]:
    """Yield cells.csv line by line, header first, row-major; absent elevations/BFEs are empty."""
    elev, bfe = (("" if s == "nan" else s for s in format_numbers(column))
                 for column in (states.mean_elevation, states.bfe))
    rows = zip(elev, bfe, states.exposed_value.tolist(), format_numbers(states.exposed_area))
    yield "row,col,mean_elevation,bfe,exposed_value,exposed_area\n"
    for k, (e, b, value, area) in enumerate(rows):
        yield f"{k // g.n_cols},{k % g.n_cols},{e},{b},{value:.2f},{area}\n"


@dataclass
class ScenarioResult:
    """Totals and per-cell detail for one sea-level-rise scenario.

    ``cells`` holds the row-major indices of the flooded cells, ascending;
    ``depths`` and ``damages`` are aligned with it.
    """

    slr: float
    total_damage: float
    total_flooded_area: float
    cost_pct_delta: float | None = None
    area_pct_delta: float | None = None
    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    depths: np.ndarray = field(default_factory=lambda: np.empty(0))
    damages: np.ndarray = field(default_factory=lambda: np.empty(0))


def incremental_deltas(totals: list[float]) -> list[float | None]:
    """Per-scenario deltas: (T_k - T_{k-1}) / T_base, base entry absent.

    This is the reading that reproduces every printed delta in the source
    risk table. A base total of 0 with nonzero later totals makes the deltas
    undefined; they come back absent with a warning. All-zero totals give 0.
    """
    base = totals[0]
    deltas: list[float | None] = [None]
    if base == 0:
        if any(t != 0 for t in totals[1:]):
            logger.warning("base total is 0 but later totals are nonzero; deltas undefined")
            deltas.extend(None for _ in totals[1:])
        else:
            deltas.extend(0.0 for _ in totals[1:])
        return deltas
    prev = base
    for t in totals[1:]:
        deltas.append((t - prev) / base)
        prev = t
    return deltas


def _sequential_total(x: np.ndarray, dry: bool) -> float:
    """The wet cells' values ``x`` added strictly left to right, as the row of
    every cell would be: each dry cell adds +0.0, so when some cell is ``dry``
    the sum starts at +0.0 (and an all -0.0 sum comes out +0.0).

    ``np.sum`` adds pairwise and can differ in the last bit.
    """
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(np.concatenate(([0.0] if dry else [], x)))[-1])


def check_scenarios(slr_list, area_basis: str) -> None:
    """Raise ValueError unless ``slr_list`` is finite, nonempty, starts at 0 and
    strictly ascends, and ``area_basis`` is one of AREA_BASES."""
    if not all(math.isfinite(s) for s in slr_list):
        raise ValueError(f"slr list values must be finite, got {slr_list}")
    if not slr_list:
        raise ValueError("empty slr list")
    if slr_list[0] != 0:
        raise ValueError(f"first scenario must be the base flood (slr 0), got {slr_list[0]}")
    if any(not b > a for a, b in zip(slr_list, slr_list[1:])):
        raise ValueError("slr list must be strictly ascending")
    if area_basis not in AREA_BASES:
        raise ValueError(f"area_basis must be one of {AREA_BASES}, got {area_basis!r}")


def sweep(
    states: CellArrays,
    curve: DamageCurve,
    slr_list: list[float],
    area_basis: str = "parcel",
    cell_area: float = 0.0,
) -> list[ScenarioResult]:
    """Run the scenario list (base first) and attach percent deltas.

    A cell floods when its depth is positive; a missing elevation or BFE
    (NaN) never floods. A flooded cell contributes its whole exposed parcel
    area (or, under the ``cell`` basis, the full cell area) once, plus its
    damage. Totals add cells in row-major order. Scenarios run one at a
    time, each holding one depth per grid cell while it runs and keeping
    only its flooded cells, so memory grows with the wet cells, not with
    scenarios times cells.

    The arguments must pass ``check_scenarios``. Totals are checked for
    monotonicity in the rise: more water can never flood less. A flood
    depth or a total that overflows raises ValueError.
    """
    check_scenarios(slr_list, area_basis)
    if area_basis == "cell" and cell_area <= 0:
        raise ValueError("cell basis requires a positive cell_area")

    results = []
    for s in slr_list:
        with np.errstate(over="ignore"):
            depth = flood_depth(states.bfe, s, states.mean_elevation)
        cells = np.flatnonzero(depth > 0)
        dry = cells.size < depth.size
        depth = depth[cells]
        if not np.isfinite(depth).all():  # finite inputs whose difference overflows
            k = cells[np.argmin(np.isfinite(depth))]
            raise ValueError(f"flood depth of cell {k} at slr {s} is not finite")
        damage = cell_damage(states.exposed_value[cells], depth, curve)
        area = (states.exposed_area[cells] if area_basis == "parcel"
                else np.full(cells.size, cell_area))
        results.append(ScenarioResult(s, _sequential_total(damage, dry),
                                      _sequential_total(area, dry),
                                      cells=cells, depths=depth, damages=damage))
    total_damage = np.array([r.total_damage for r in results])
    total_area = np.array([r.total_flooded_area for r in results])
    bad = ~(np.isfinite(total_damage) & np.isfinite(total_area))
    if bad.any():
        raise ValueError(f"totals of scenario slr {slr_list[np.argmax(bad)]} are not finite")

    if not np.all(total_damage[1:] >= total_damage[:-1]):
        raise RuntimeError("damage decreased with rising sea level")
    if not np.all(total_area[1:] >= total_area[:-1]):
        raise RuntimeError("flooded area decreased with rising sea level")

    for r, cost, area in zip(results, incremental_deltas(total_damage.tolist()),
                             incremental_deltas(total_area.tolist())):
        r.cost_pct_delta, r.area_pct_delta = cost, area
    return results


def _json_number(v) -> str:
    """``v`` as json.dumps spells it: repr when finite, NaN/Infinity otherwise."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def flooded_cells_geojson(g: GridSpec, results: list[ScenarioResult]) -> Iterator[tuple[str, ...]]:
    """Yield per scenario a GeoJSON FeatureCollection of flooded cells as (head, body, tail).

    One square polygon per flooded cell with properties slr, depth, damage
    (damage rounded to cents at serialization). The bytes are those of
    ``json.dumps(doc, separators=(",", ":"))`` on the nested dicts: each
    ring is rendered once per call from json spellings of the cell_rect
    corners, then spliced into a fixed feature template with the scenario's
    ``slr`` (json-spelled, so int and float keep their form), ``depth`` and
    ``round(damage, 2)``. A document is rendered only when it is asked for,
    so the rings and one document are all that is held at a time.
    """
    xs = [json.dumps(g.origin_x + j * g.cell_size) for j in range(g.n_cols + 1)]
    ys = [json.dumps(g.origin_y + i * g.cell_size) for i in range(g.n_rows + 1)]
    # the union by bincount: np.unique's first call imports numpy.ma (~10 ms)
    cells = np.flatnonzero(np.bincount(
        np.concatenate([np.empty(0, np.int64), *(r.cells for r in results)]), minlength=g.n_cells))
    corners = ((xs[j], ys[i], xs[j + 1], ys[i + 1])
               for i, j in (divmod(k, g.n_cols) for k in cells.tolist()))
    heads = ['{"type":"Feature","geometry":{"type":"Polygon","coordinates":'
             f'[[[{x0},{y0}],[{x1},{y0}],[{x1},{y1}],[{x0},{y1}],[{x0},{y0}]]]}},'
             '"properties":{"slr":' for x0, y0, x1, y1 in corners]
    for r in results:
        slr = json.dumps(r.slr)
        yield ('{"type":"FeatureCollection","features":[',
               ",".join(f'{heads[k]}{slr},"depth":{_json_number(depth)},'
                        f'"damage":{_json_number(round(dmg, 2))}}}}}'
                        for k, depth, dmg in zip(np.searchsorted(cells, r.cells).tolist(),
                                                 r.depths.tolist(), r.damages.tolist())),
               "]}\n")
