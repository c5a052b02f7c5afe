"""Readers and writers for the external data formats.

Covers ESRI ASCII grid rasters, the GeoJSON subset used for parcels and
base-flood-elevation zones, damage-curve tables, and the scenario report
CSV. All coordinates are planar feet; no reprojection is performed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Raised when an input file does not conform to its expected format."""


def format_number(x: float) -> str:
    """Shortest decimal rendering that parses back to the same float.

    Integral values drop the trailing ``.0`` so canonical files stay compact.
    """
    s = repr(float(x))
    if s.endswith(".0"):
        return s[:-2]
    return s


# ---------------------------------------------------------------------------
# Raster (ESRI ASCII grid)
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(eq=False)
class Raster:
    """Rectangular elevation grid with georeferencing header.

    ``values`` is row-major with the first row northernmost. Cells equal to
    ``nodata_value`` (exact comparison) or non-finite carry no elevation.
    """

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float
    values: np.ndarray

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {self.ncols}x{self.nrows}")
        if self.cellsize <= 0:
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")
        if not all(math.isfinite(v) for v in self.bbox()):
            raise ValueError(f"raster extent {self.bbox()!r} is not finite")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.ncols * self.nrows:
            raise ValueError(
                f"value count mismatch: expected {self.ncols * self.nrows}, "
                f"got {self.values.size}"
            )
        self.values = self.values.reshape(self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Raster):
            return NotImplemented
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xllcorner == other.xllcorner
            and self.yllcorner == other.yllcorner
            and self.cellsize == other.cellsize
            and self.nodata_value == other.nodata_value
            and np.array_equal(self.values, other.values)
        )

    @property
    def xmax(self) -> float:
        return self.xllcorner + self.ncols * self.cellsize

    @property
    def ymax(self) -> float:
        return self.yllcorner + self.nrows * self.cellsize

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) extent of the raster."""
        return (self.xllcorner, self.yllcorner, self.xmax, self.ymax)


def data_mask(values: np.ndarray, nodata_value: float) -> np.ndarray:
    """True where a raster sample is neither NODATA nor non-finite."""
    return (values != nodata_value) & np.isfinite(values)


def _parse_values_per_line(body: list[str], expected: int, text_len: int) -> np.ndarray:
    """Parse the value lines of an ASCII grid one line at a time.

    Any row wrapping is accepted. A bad token raises ParseError with its
    line and token position; a total other than ``expected`` raises a count
    mismatch.
    """
    # Filled line by line. A text holds at most one value per two characters,
    # so a header promising more is a count mismatch, not an allocation.
    values = np.empty(max(0, min(expected, text_len // 2 + 1)))
    n = 0
    for lineno, line in enumerate(body, start=len(_HEADER_KEYS) + 1):
        tokens = line.split()
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            for pos, token in enumerate(tokens, start=1):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}, token {pos}: non-numeric token {token!r}"
                    ) from None
        if n + len(row) <= values.size:
            values[n:n + len(row)] = row
        n += len(row)
    if n != expected:
        raise ParseError(f"value count mismatch: expected {expected}, got {n}")
    return values


def parse_ascii_grid(text: str) -> Raster:
    """Parse an ESRI ASCII grid: 6 header lines, then whitespace-separated values.

    Header keys are case-insensitive. Errors carry the offending line (and
    token) position.
    """
    lines = text.splitlines()
    if len(lines) < len(_HEADER_KEYS):
        raise ParseError(
            f"expected {len(_HEADER_KEYS)} header lines, file has only {len(lines)}"
        )

    header: dict[str, float] = {}
    for lineno, line in enumerate(lines[: len(_HEADER_KEYS)], start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: malformed header line {line!r}")
        key, token = parts[0].lower(), parts[1]
        if key not in _HEADER_KEYS:
            raise ParseError(f"line {lineno}: unknown header key {parts[0]!r}")
        if key in header:
            raise ParseError(f"line {lineno}: duplicate header key {key!r}")
        if key in ("ncols", "nrows"):
            try:
                header[key] = int(token)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-numeric token {token!r} for {key!r}"
                ) from None
        else:
            try:
                header[key] = float(token)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-numeric token {token!r} for {key!r}"
                ) from None
            # nodata_value may be nan: non-finite samples are NODATA anyway
            if key != "nodata_value" and not math.isfinite(header[key]):
                raise ParseError(f"line {lineno}: non-finite value {token!r} for {key!r}")

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ParseError(f"missing header key(s): {', '.join(missing)}")

    expected = int(header["ncols"]) * int(header["nrows"])
    body = lines[len(_HEADER_KEYS):]
    values = np.empty(0)
    # numpy's C reader converts with PyOS_string_to_double, so every value
    # is bit-identical to float(token). It refuses wrapped rows of unequal
    # length and tokens only float() accepts ("1_0", non-ASCII digits); the
    # per-line loop takes those and names the position of a bad token.
    # An empty body never reaches loadtxt, which would warn about it.
    # Given max_rows, loadtxt allocates its result once instead of growing
    # it by realloc, which can copy the whole buffer (when malloc put it on
    # the heap) and add it to the peak RSS. Blank lines are left out:
    # loadtxt skips them anyway, and warns about them under max_rows.
    rows = [line for line in body if line.strip()]
    if rows:
        try:
            values = np.loadtxt(rows, dtype=float, comments=None, ndmin=2,
                                max_rows=len(rows)).ravel()
        except ValueError:
            values = _parse_values_per_line(body, expected, len(text))
    if values.size != expected:
        raise ParseError(f"value count mismatch: expected {expected}, got {values.size}")

    try:
        return Raster(
            ncols=int(header["ncols"]),
            nrows=int(header["nrows"]),
            xllcorner=header["xllcorner"],
            yllcorner=header["yllcorner"],
            cellsize=header["cellsize"],
            nodata_value=header["nodata_value"],
            values=values,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_ascii_grid(r: Raster) -> str:
    """Serialize a Raster in canonical form.

    Lowercase keys, single-space separators, one line per raster row,
    shortest round-trip decimal rendering. ``parse_ascii_grid`` of the
    result reproduces ``r`` exactly.
    """
    lines = [
        f"ncols {r.ncols}",
        f"nrows {r.nrows}",
        f"xllcorner {format_number(r.xllcorner)}",
        f"yllcorner {format_number(r.yllcorner)}",
        f"cellsize {format_number(r.cellsize)}",
        f"nodata_value {format_number(r.nodata_value)}",
    ]
    for row in r.values:
        lines.append(" ".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parcels and BFE zones (GeoJSON subset)
# ---------------------------------------------------------------------------

Ring = list[tuple[float, float]]


@dataclass
class Parcel:
    """Polygon with assessed value and recorded land area.

    Rings are stored open: closure between the last and first vertex is
    implied. Members split out of a MultiPolygon feature share the feature's
    assessment pool; ``group_area`` lets the overlay stage apportion against
    the whole feature's geometric area.
    """

    parcel_id: str
    outer_ring: Ring
    holes: list[Ring] = field(default_factory=list)
    current_assessment: float = 0.0
    land_area: float = 0.0
    base_flood: float = 0.0
    group_area: float | None = None

    def __post_init__(self):
        if len(self.outer_ring) < 3:
            raise ValueError(
                f"parcel {self.parcel_id!r}: outer ring has fewer than 3 vertices"
            )
        for h in self.holes:
            if len(h) < 3:
                raise ValueError(
                    f"parcel {self.parcel_id!r}: hole ring has fewer than 3 vertices"
                )
        if self.current_assessment < 0:
            raise ValueError(f"parcel {self.parcel_id!r}: negative assessment")
        if self.land_area < 0:
            raise ValueError(f"parcel {self.parcel_id!r}: negative land area")

    @property
    def rings(self) -> list[Ring]:
        """Outer ring followed by holes, the even-odd evaluation set."""
        return [self.outer_ring] + list(self.holes)


@dataclass
class BfeZone:
    """Flood-hazard zone polygon carrying a static base flood elevation."""

    rings: list[Ring]
    static_bfe: float

    def __post_init__(self):
        if not self.rings or len(self.rings[0]) < 3:
            raise ValueError("BFE zone outer ring has fewer than 3 vertices")
        if not np.isfinite(self.static_bfe):
            raise ValueError(f"static_bfe must be finite, got {self.static_bfe}")


def _normalize_ring(coords, where: str) -> Ring:
    """Convert GeoJSON ring coordinates to open (x, y) tuples."""
    try:
        ring = [(float(p[0]), float(p[1])) for p in coords]
    except (TypeError, ValueError, IndexError):
        raise ParseError(f"{where}: malformed ring coordinates") from None
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise ParseError(f"{where}: ring with < 3 vertices")
    return ring


def _feature_polygons(geometry, where: str) -> list[list[Ring]]:
    """Ring lists (outer first) for a Polygon or MultiPolygon geometry."""
    if not isinstance(geometry, dict) or "type" not in geometry:
        raise ParseError(f"{where}: missing or malformed geometry")
    gtype = geometry["type"]
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polys = [coords]
    elif gtype == "MultiPolygon":
        polys = coords
    else:
        raise ParseError(f"{where}: non-polygon geometry {gtype!r}")
    if not isinstance(polys, list) or not polys:
        raise ParseError(f"{where}: empty geometry coordinates")
    out = []
    for p, rings in enumerate(polys):
        if not isinstance(rings, list) or not rings:
            raise ParseError(f"{where}: polygon {p} has no rings")
        out.append([_normalize_ring(rg, f"{where}, polygon {p}, ring {k}")
                    for k, rg in enumerate(rings)])
    return out


def _load_feature_collection(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("root object is not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection has no features array")
    return features


def _require_property(props, name, where: str) -> float:
    if name not in props:
        raise ParseError(f"{where}: missing required property {name!r}")
    try:
        value = float(props[name])
    except (TypeError, ValueError):
        raise ParseError(
            f"{where}: non-numeric value {props[name]!r} for property {name!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value {props[name]!r} for property {name!r}")
    return value


def parse_parcels(text: str) -> list[Parcel]:
    """Parse a GeoJSON FeatureCollection of parcels.

    Each feature needs Polygon or MultiPolygon geometry and properties
    ``parcel_id``, ``current_assessment``, ``land_area`` (``base_flood``
    optional, defaulting to 0). A MultiPolygon feature yields one Parcel per
    member polygon with ids suffixed ``#k``; members share the feature's
    assessment pool via a common group geometric area.
    """
    from .overlay import polygon_area

    parcels: list[Parcel] = []
    for idx, feature in enumerate(_load_feature_collection(text)):
        where = f"feature {idx}"
        if not isinstance(feature, dict):
            raise ParseError(f"{where}: not an object")
        props = feature.get("properties") or {}
        if "parcel_id" not in props:
            raise ParseError(f"{where}: missing required property 'parcel_id'")
        pid = str(props["parcel_id"])
        assessment = _require_property(props, "current_assessment", where)
        land_area = _require_property(props, "land_area", where)
        base_flood = (_require_property(props, "base_flood", where)
                      if "base_flood" in props else 0.0)

        polys = _feature_polygons(feature.get("geometry"), where)
        try:
            if len(polys) == 1:
                parcels.append(Parcel(
                    parcel_id=pid,
                    outer_ring=polys[0][0],
                    holes=polys[0][1:],
                    current_assessment=assessment,
                    land_area=land_area,
                    base_flood=base_flood,
                ))
            else:
                group_area = sum(polygon_area(rings) for rings in polys)
                for k, rings in enumerate(polys):
                    parcels.append(Parcel(
                        parcel_id=f"{pid}#{k}",
                        outer_ring=rings[0],
                        holes=rings[1:],
                        current_assessment=assessment,
                        land_area=land_area,
                        base_flood=base_flood,
                        group_area=group_area,
                    ))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
    return parcels


def parse_bfe_zones(text: str) -> list[BfeZone]:
    """Parse a GeoJSON FeatureCollection of BFE zones.

    Features need polygon geometry and a ``static_bfe`` property. MultiPolygon
    members become separate zones in member order, preserving input order
    overall (first containing zone wins downstream).
    """
    zones: list[BfeZone] = []
    for idx, feature in enumerate(_load_feature_collection(text)):
        where = f"feature {idx}"
        if not isinstance(feature, dict):
            raise ParseError(f"{where}: not an object")
        props = feature.get("properties") or {}
        bfe = _require_property(props, "static_bfe", where)
        for rings in _feature_polygons(feature.get("geometry"), where):
            try:
                zones.append(BfeZone(rings=rings, static_bfe=bfe))
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
    return zones


# ---------------------------------------------------------------------------
# Damage curve
# ---------------------------------------------------------------------------

@dataclass
class DamageCurve:
    """Monotone depth (ft) to damage-fraction breakpoint table."""

    breakpoints: list[tuple[float, float]]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ValueError("damage curve needs at least 2 breakpoints")
        self.breakpoints = [(float(d), float(f)) for d, f in self.breakpoints]
        depths = [d for d, _ in self.breakpoints]
        fractions = [f for _, f in self.breakpoints]
        if not all(math.isfinite(v) for v in depths + fractions):
            raise ValueError("breakpoint depths and fractions must be finite")
        if any(not b > a for a, b in zip(depths, depths[1:])):
            raise ValueError("depths strictly increasing violated")
        if any(f < 0 or f > 1 for f in fractions):
            raise ValueError("fraction outside [0, 1]")
        if any(b < a for a, b in zip(fractions, fractions[1:])):
            raise ValueError("fractions nondecreasing violated")


def parse_damage_curve(text: str) -> DamageCurve:
    """Parse a JSON array of [depth_ft, fraction] pairs into a DamageCurve."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ParseError("damage curve must be a JSON array of [depth, fraction] pairs")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError(f"entry {i}: expected a [depth, fraction] pair")
        try:
            pairs.append((float(item[0]), float(item[1])))
        except (TypeError, ValueError):
            raise ParseError(f"entry {i}: non-numeric pair {item!r}") from None
    try:
        return DamageCurve(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Scenario report CSV
# ---------------------------------------------------------------------------

REPORT_HEADER = "scenario,total_flooding_usd,total_area_flooded_sqft,cost_pct_delta,area_pct_delta"


def write_report(results) -> str:
    """Render scenario results as the report CSV.

    One row per scenario ordered by sea level rise; the base row leaves both
    delta columns empty. Deltas print as percentages with 2 decimals; money
    is rounded to cents at serialization only.
    """
    results = list(results)
    if not results:
        raise ValueError("empty results")
    slrs = [r.slr for r in results]
    if any(not b > a for a, b in zip(slrs, slrs[1:])):
        raise ValueError("scenarios must be ascending")

    lines = [REPORT_HEADER]
    for r in results:
        cost_delta = "" if r.cost_pct_delta is None else f"{r.cost_pct_delta * 100:.2f}"
        area_delta = "" if r.area_pct_delta is None else f"{r.area_pct_delta * 100:.2f}"
        lines.append(
            f"{format_number(r.slr)},{r.total_damage:.2f},"
            f"{format_number(r.total_flooded_area)},{cost_delta},{area_delta}"
        )
    return "\n".join(lines) + "\n"
