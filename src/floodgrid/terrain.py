"""The fishnet and everything on its cells: the tessellation of the study
area, the parcel-to-cell overlay (polygon clipping and area-weighted
apportionment), per-cell ground elevation, base flood elevation and flood
depth, and the base-flood and sea-level-rise scenario runs over them.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geodata
from .geodata import (BATCH_ENTRIES, BfeZone, DamageCurve, Raster, _ragged, _runs, cell_damage,
                      data_mask, format_numbers, ring_areas)

logger = logging.getLogger(__name__)


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
        return json.dumps(asdict(self))


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

# One row per (parcel, cell) attribution: the row-major cell index, the
# parcel's clipped area in that cell and the assessed value apportioned to it.
ATTRIBUTION_DTYPE = np.dtype([("cell", np.int64), ("area", float), ("value", float)])


def _clip(a, o, lengths, bound, keep_ge: bool):
    """One Sutherland-Hodgman half-plane step on every ring at once.

    ``a`` holds each vertex's coordinate on the clip axis and ``o`` the other;
    ring m is the next ``lengths[m]`` vertices and keeps ``a >= bound[m]``
    (``keep_ge``) or ``a <= bound[m]``. For each edge s -> e, s being the
    vertex before e (wrapping round), the crossing is emitted when s and e lie
    on different sides, then e when it is inside. Kept and crossing vertices
    are gathered once each, by index, into slots from a cumsum, with the
    scalar step's arithmetic. Returns the clipped ``(a, o, lengths)``.
    """
    b = np.repeat(bound, lengths)
    inside = a >= b if keep_ge else a <= b
    starts = np.cumsum(lengths) - lengths
    live = lengths > 0
    prev = np.arange(-1, a.size - 1)
    prev[starts[live]] = (starts + lengths - 1)[live]
    cross = inside[prev] != inside
    emit = cross.astype(np.int64) + inside
    ends = np.concatenate(([0], np.cumsum(emit)))  # e emits to slots ends[e]..ends[e + 1] - 1
    out_a, out_o = np.empty(ends[-1]), np.empty(ends[-1])
    keep = np.flatnonzero(inside)
    at = ends[1:][keep] - 1
    out_a[at], out_o[at] = a[keep], o[keep]
    e = np.flatnonzero(cross)
    s, at = prev[e], ends[e]
    be, a_s, o_s = b[e], a[s], o[s]
    out_a[at] = be
    out_o[at] = o_s + (be - a_s) / (a[e] - a_s) * (o[e] - o_s)
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
    cell, q = _runs(n_rings[p])
    area = piece_area[q == 0]
    np.subtract.at(area, cell[q > 0], piece_area[q > 0])
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
    BATCH_ENTRIES ring-vertex x bbox-cell copies.

    A parcel with a geometric area <= 0, or whose apportioned value is not
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
        cuts = np.searchsorted(copies, np.arange(BATCH_ENTRIES, copies[-1] if n else 0,
                                                 BATCH_ENTRIES), "right")
        bounds = [0, *cuts.tolist(), n]
        parts = [_apportion_chunk(table, g, lo, hi, j0[lo:hi], nj[lo:hi], i0[lo:hi], ni[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if degenerate.size:
        area, = format_numbers(table.area[n:n + 1])
        what = "zero geometric area" if table.area[n] == 0 else f"negative geometric area {area}"
        raise ValueError(f"degenerate parcel {table.parcel_id[n]!r} ({what})")
    return np.concatenate(parts) if parts else np.empty(0, dtype=ATTRIBUTION_DTYPE)


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

    The sums run over bands of the DEM rows that fall in one fishnet row, each
    read in parts of at most ``BATCH_ENTRIES // ncols`` rows (at least one), so
    memory does not grow with the cell size. Each cell is summed within one
    band, in row-major order, exactly as one bincount over the whole raster
    would: the band's first part starts its cells' sums at 0 and every part
    carries them on sample by sample. A body streamed from a named file still
    open is one ``geodata._forked`` call over whole bands: this process and
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

    step = max(1, BATCH_ENTRIES // dem.ncols)
    # the fishnet column of each sample of the largest part, row-major
    part_cols = np.broadcast_to(jj, (min(step, int(np.diff(edges).max())), jj.size)).ravel()

    def add(a, b, read=dem.reread):  # bands a to b - 1, read() in parts of at most step rows
        bands = zip(edges[a:b].tolist(), edges[a + 1:b + 1].tolist())
        cuts = [*(r for e, f in bands for r in range(e, f, step)), int(edges[b])]
        firsts = set(edges[a:b].tolist())
        # cuts is one longer than the parts, so zip runs read() to its end and its checks
        for start, part in zip(cuts, read(cuts)):
            lo = ii[start] * g.n_cols
            if lo < 0:
                continue  # outside the grid; a streamed band is checked all the same
            block, row = part[:, c0:c1], slice(lo, lo + g.n_cols)
            ok = data_mask(block, dem.nodata_value)
            if start in firsts:
                sums[row] = counts[row] = 0
            # add.at adds in index order, as one bincount over the band would; a sample left
            # out adds -0.0, which changes no sum. Overflow is checked below.
            with np.errstate(over="ignore"):
                np.add.at(sums[row], part_cols[:block.size], np.where(ok, block, -0.0).ravel())
            counts[row] += np.bincount(jj, weights=ok.sum(axis=0), minlength=g.n_cols)

    # add() sets all the cells of a band, so a failed split leaves nothing behind
    if not (dem.body and not dem._file[0].closed and geodata._forked(add, len(edges) - 1)):
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
    in the zone's y-range are scanned, in chunks of about BATCH_ENTRIES row
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
        step = max(1, BATCH_ENTRIES // (x1.size + g.n_cols))
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
    (an ATTRIBUTION_DTYPE array) must already be in deterministic order
    (see apportion_many). An exposure sum that overflows raises ValueError.
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
    """Yield cells.csv line by line, header first, row-major; absent elevations/BFEs are empty.
    The cells are spelled and yielded BATCH_ENTRIES // 16 at a time, so what is held is bounded."""
    yield "row,col,mean_elevation,bfe,exposed_value,exposed_area\n"
    for start in range(0, len(states.mean_elevation), BATCH_ENTRIES // 16):
        cut = slice(start, start + BATCH_ENTRIES // 16)
        elev, bfe = (("" if s == "nan" else s for s in format_numbers(column[cut]))
                     for column in (states.mean_elevation, states.bfe))
        rows = zip(elev, bfe, states.exposed_value[cut].tolist(),
                   format_numbers(states.exposed_area[cut]))
        for k, (e, b, value, area) in enumerate(rows, start):
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


def flooded_cells_geojson(g: GridSpec, results: list[ScenarioResult]) -> Iterator[tuple[str, ...]]:
    """Yield per scenario a GeoJSON FeatureCollection of flooded cells as (head, body, tail).

    One square polygon per flooded cell with properties slr, depth, damage
    (damage rounded to cents at serialization). The bytes are those of
    ``json.dumps(doc, separators=(",", ":"))`` on the nested dicts: each
    ring is rendered once per call from json spellings of the cell_rect
    corners, then spliced into a fixed feature template with the scenario's
    ``slr`` (json-spelled, so int and float keep their form) and the repr of
    ``depth`` and ``round(damage, 2)``, as json spells a finite float (``sweep``
    keeps both finite). A document is rendered only when it is asked for,
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
               ",".join(f'{heads[k]}{slr},"depth":{depth!r},"damage":{round(dmg, 2)!r}}}}}'
                        for k, depth, dmg in zip(np.searchsorted(cells, r.cells).tolist(),
                                                 r.depths.tolist(), r.damages.tolist())),
               "]}\n")
