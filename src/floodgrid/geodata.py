"""Readers and writers for the external data formats.

Covers ESRI ASCII grid rasters, the GeoJSON subset used for parcels and
base-flood-elevation zones, damage-curve tables, and the scenario report
CSV. All coordinates are planar feet; no reprojection is performed.
"""

from __future__ import annotations

import gc
import io
import json
import math
import operator
import os
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

import numpy as np

from .overlay import _ragged, ring_areas


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


def format_numbers(values: np.ndarray):
    """format_number of each value, lazily: repr, less the ".0" it ends in exactly on
    the integral values below 1e16 in magnitude (from 1e16 up it has an exponent)."""
    cut = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    return map(operator.getitem, map(repr, values.tolist()),
               map((slice(None), slice(-2)).__getitem__, cut.tolist()))


# ---------------------------------------------------------------------------
# Raster (ESRI ASCII grid)
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# ASCII whitespace to str.isspace() and loadtxt; bytes.strip() keeps \x1c-\x1f
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


@dataclass(eq=False)
class Raster:
    """Rectangular elevation grid with georeferencing header.

    ``values`` is row-major with the first row northernmost. Cells equal to
    ``nodata_value`` (exact comparison) or non-finite carry no elevation.
    ``parse_ascii_grid`` of a binary file leaves ``values`` None: ``bands``
    reads the rows from the file. If the file has a name, ``body`` is its
    path, the byte offset of the first row and its ``os.stat_result``, and
    ``reread`` reads rows anew from there.
    """

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float
    values: np.ndarray | None
    _stream: Callable | None = field(default=None, init=False, repr=False)
    body: tuple[str, int, os.stat_result] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {self.ncols}x{self.nrows}")
        if self.cellsize <= 0:
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")
        if not all(math.isfinite(v) for v in self.bbox()):
            raise ValueError(f"raster extent {self.bbox()!r} is not finite")
        if self.values is None:
            return
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.ncols * self.nrows:
            raise ValueError(f"value count mismatch: expected {self.ncols * self.nrows}, "
                             f"got {self.values.size}")
        self.values = self.values.reshape(self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Raster):
            return NotImplemented
        return (all(getattr(self, k) == getattr(other, k) for k in _HEADER_KEYS)
                and (self.values is other.values  # both None when streamed
                     or np.array_equal(self.values, other.values, equal_nan=True)))

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) extent of the raster."""
        return (self.xllcorner, self.yllcorner, self.xllcorner + self.ncols * self.cellsize,
                self.yllcorner + self.nrows * self.cellsize)

    def bands(self, edges) -> Iterator[np.ndarray]:
        """Rows ``edges[k]:edges[k + 1]`` of ``values`` for each k in turn, where
        ``edges`` ascend from 0 to nrows; a raster read from a file reads them here."""
        if self.values is None:
            return self._stream(edges)
        return (self.values[a:b] for a, b in zip(edges[:-1], edges[1:]))

    def reread(self, edges) -> Iterator[np.ndarray]:
        """As ``bands``, for ``edges`` ascending within 0 to nrows, read anew from
        the file of ``body``; ValueError where ``bands`` would fall back to the
        per-line parse, or if the path now leads to another file."""
        path, offset, stat = self.body
        with open(path, "rb") as fh:
            if not os.path.samestat(os.fstat(fh.fileno()), stat):
                raise ValueError(f"{path} is no longer the file read")
            fh.seek(offset)
            rows = (line for line in fh if line.strip(_ASCII_SPACE))
            next(islice(rows, edges[0], edges[0]), None)  # skips the rows before edges[0]
            yield from _read_bands(rows, self.nrows, self.ncols, edges, None)


def data_mask(values: np.ndarray, nodata_value: float) -> np.ndarray:
    """True where a raster sample is neither NODATA nor non-finite."""
    return (values != nodata_value) & np.isfinite(values)


def _parse_values_per_line(text: str, expected: int) -> np.ndarray:
    """Parse the value lines of an ASCII grid text one line at a time.

    Any row wrapping is accepted. A bad token raises ParseError with its
    line and token position; a total other than ``expected`` raises a count
    mismatch.
    """
    values = array("d")
    n = len(_HEADER_KEYS)
    for lineno, line in enumerate(text.splitlines()[n:], start=n + 1):
        tokens = line.split()
        try:
            values.extend(map(float, tokens))
        except ValueError:
            for pos, token in enumerate(tokens, start=1):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(f"line {lineno}, token {pos}: "
                                     f"non-numeric token {token!r}") from None
    if len(values) != expected:
        raise ParseError(f"value count mismatch: expected {expected}, got {len(values)}")
    return np.array(values, dtype=float)


def _read_bands(rows, nrows: int, ncols: int, edges, text) -> Iterator[np.ndarray]:
    """Yield rows ``edges[k]:edges[k + 1]`` of a grid body for each k in turn.

    Each band is one ``np.loadtxt`` call over ``rows``, the non-blank body
    lines from row ``edges[0]`` on; it must return whole rows of ``ncols``
    values, and nothing may follow a band that ends at ``nrows``. Failing
    that, the rest is sliced from the per-line parse of ``text()``, which
    raises any error with its position (the bands so far had ``ncols``
    values a line, so it reads the same values there); or, given no
    ``text``, ValueError.
    """
    # numpy's C reader gives the doubles float() gives, and refuses what only
    # float() reads ("1_0", non-ASCII digits). Given max_rows, it allocates
    # its result once, reads no line past it, and warns about empty input.
    done = 0
    try:
        for start, end in zip(edges[:-1], edges[1:]):
            first = next(rows, None)
            if first is None:
                break
            band = np.loadtxt(chain([first], rows), dtype=float, comments=None, ndmin=2,
                              max_rows=end - start, encoding="ascii")
            if band.shape != (end - start, ncols):
                break
            yield band
            done += 1
        else:
            if edges[-1] < nrows or next(rows, None) is None:
                return
    except ValueError:
        pass
    if text is None:
        raise ValueError(f"the body is not {ncols} values a line from row {edges[done]} on")
    values = _parse_values_per_line(text(), nrows * ncols).reshape(nrows, ncols)
    yield from (values[a:b] for a, b in zip(edges[done:-1], edges[done + 1:]))


def parse_ascii_grid(source) -> Raster:
    """Parse an ESRI ASCII grid: 6 header lines, then whitespace-separated values.

    ``source`` is a binary file open for reading, of which only the header
    is read here: ``Raster.bands`` reads the rows while the file is open,
    and ``values`` stays None. Given the text instead, its lines are read
    the same way and ``values`` holds the rows. Header keys are
    case-insensitive. Errors carry the offending line (and token) position.
    """
    if isinstance(source, str):  # only the UTF-8 bytes of the text reach the parse
        raster = parse_ascii_grid(io.BytesIO(
            "\n".join([*source.splitlines(), ""]).encode(errors="replace")))  # "?" for a surrogate
        (raster.values,) = raster.bands([0, raster.nrows])
        raster._stream = None  # lets the copy of the text go
        return raster

    def text() -> str:
        source.seek(0)
        return source.read().decode()

    n = len(_HEADER_KEYS)
    size = source.seek(0, os.SEEK_END)
    source.seek(0)
    head = [line.decode().splitlines() if line.isascii() else [] for line in islice(source, n)]
    offset = source.tell()
    odd = any(len(parts) != 1 for parts in head)
    head = text().splitlines()[:n] if odd else [parts[0] for parts in head]
    rows = (line for line in source if line.strip(_ASCII_SPACE))
    if len(head) < n:
        raise ParseError(f"expected {n} header lines, file has only {len(head)}")
    header: dict[str, float] = {}
    for lineno, line in enumerate(head, start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: malformed header line {line!r}")
        key, token = parts[0].lower(), parts[1]
        if key not in _HEADER_KEYS:
            raise ParseError(f"line {lineno}: unknown header key {parts[0]!r}")
        if key in header:
            raise ParseError(f"line {lineno}: duplicate header key {key!r}")
        counts = key in ("ncols", "nrows")
        try:
            header[key] = int(token) if counts else float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric token {token!r} for {key!r}") from None
        # nodata_value may be nan: non-finite samples are NODATA anyway
        if not counts and key != "nodata_value" and not math.isfinite(header[key]):
            raise ParseError(f"line {lineno}: non-finite value {token!r} for {key!r}")
    ncols, nrows = header["ncols"], header["nrows"]
    # A text holds at most one value per two characters. Given no rows, or
    # more values than that, the per-line parse or the Raster checks fail.
    stream = not odd and ncols >= 1 and nrows >= 1 and ncols * nrows <= size // 2 + 1
    try:
        raster = Raster(*(header[k] for k in _HEADER_KEYS),
                        None if stream else _parse_values_per_line(text(), ncols * nrows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if stream:
        raster._stream = partial(_read_bands, rows, nrows, ncols, text=text)
        if isinstance(getattr(source, "name", None), str):
            raster.body = (source.name, offset, os.fstat(source.fileno()))
    return raster


def write_ascii_grid(r: Raster) -> str:
    """Serialize a Raster in canonical form.

    Lowercase keys, single-space separators, one line per raster row,
    shortest round-trip decimal rendering. ``parse_ascii_grid`` of the
    result reproduces ``r`` exactly.
    """
    lines = [f"{key} {format_number(getattr(r, key))}" for key in _HEADER_KEYS]
    (values,) = r.bands([0, r.nrows])
    lines += map(" ".join, map(format_numbers, values))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parcels and BFE zones (GeoJSON subset)
# ---------------------------------------------------------------------------

def _ring(coords, where: str) -> np.ndarray:
    """A GeoJSON ring as an open (n, 2) float array of finite (x, y) vertices."""
    try:
        ring = np.array(coords, dtype=float)
        if ((ring == 0) | (ring == 1)).any() and bool in map(type, chain.from_iterable(coords)):
            raise TypeError  # JSON true or false, read as 1.0 or 0.0
    except (TypeError, ValueError, OverflowError):
        ring = None
    if ring is not None and ring.size == 0:
        ring = ring.reshape(0, 2)  # no positions: a short ring, not a malformed one
    if ring is None or ring.ndim != 2 or ring.shape[1] < 2:
        raise ParseError(f"{where}: malformed ring coordinates")
    ring = ring[:, :2]
    if not np.isfinite(ring).all():
        raise ParseError(f"{where}: non-finite ring coordinates")
    if len(ring) >= 2 and ring[0, 0] == ring[-1, 0] and ring[0, 1] == ring[-1, 1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise ParseError(f"{where}: ring with < 3 vertices")
    return ring


def _member_vertices(members, n_members, ids):
    """Vertices, rings per member and vertices per ring of GeoJSON members.

    ``members[m]`` lists member m's rings of (x, y) positions and is named
    ``ids[m]`` in errors; feature k has the next ``n_members[k]`` members.
    The result is that of ``_ring`` on every ring, concatenated, and a bad
    ring raises the ParseError of the first one. Rings whose positions all
    have the same number of coordinates, the usual case, are converted in
    one numpy call.
    """
    ring_counts = np.array([len(rings) for rings in members], dtype=np.int64)
    rings = [ring for rings in members for ring in rings]
    try:
        lengths = np.array([len(ring) for ring in rings], dtype=np.int64)
        (dim,) = set(map(len, chain.from_iterable(rings)))  # one size for all positions
        xy = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), dtype=float,
                         count=lengths.sum() * dim).reshape(-1, dim)
        if ((xy == 0) | (xy == 1)).any() and bool in map(
                type, chain.from_iterable(chain.from_iterable(rings))):
            raise TypeError  # JSON true or false: _ring names the ring
    except (TypeError, ValueError, OverflowError):
        xy = None
    if (xy is not None and xy.shape[1] >= 2 and (lengths >= 3).all()
            and np.isfinite(xy[:, :2]).all()):
        last = np.cumsum(lengths) - 1
        closed = (xy[last - lengths + 1, :2] == xy[last, :2]).all(axis=1)
        if (lengths - closed >= 3).all():
            keep = np.ones(len(xy), dtype=bool)
            keep[last[closed]] = False
            return xy[keep, :2], ring_counts, lengths - closed
    feature_of = np.repeat(np.arange(len(n_members)), n_members).tolist()
    rings = [_ring(ring, f"feature {idx}: parcel {pid!r}, ring {r}")
             for rings, idx, pid in zip(members, feature_of, ids)
             for r, ring in enumerate(rings)]
    lengths = np.array([len(ring) for ring in rings], dtype=np.int64)
    return (np.concatenate(rings) if rings else np.empty((0, 2))), ring_counts, lengths


def _property_error(idx: int, pid: str, raw) -> ParseError:
    """The ParseError of the first bad parcel property, checked in order."""
    where = f"feature {idx}"
    values = [_number(v, f"property {name!r} of parcel {pid!r}", where)
              for v, name in zip(raw, ("current_assessment", "land_area", "base_flood"))]
    return ParseError(f"{where}: parcel {pid!r}: negative "
                      + ("assessment" if values[0] < 0 else "land area"))


def _number(value, what: str, where: str) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    except (TypeError, ValueError):
        raise ParseError(f"{where}: non-numeric value {value!r} for {what}") from None
    if not math.isfinite(number):
        raise ParseError(f"{where}: non-finite value {value!r} for {what}")
    return number


class ParcelTable:
    """Parcels as columns: one row per polygon member, in stable parcel_id order.

    Row columns, numpy arrays of length ``len(table)``:

    - ``parcel_id`` (object): the feature's id, suffixed ``#k`` for member
      k of a MultiPolygon;
    - ``current_assessment``, ``land_area``, ``base_flood``: the feature's
      properties, shared by its members;
    - ``area``: the member's geometric area, ``|outer| - (0 + h1 + h2 ...)``;
    - ``denominator``: what apportionment divides by: ``area``, or for
      MultiPolygon members the feature's group area, ``0 + sum(|outer| -
      h1 - h2 ...)`` over its members in input order;
    - ``bbox``: ``(n, 4)`` xmin, ymin, xmax, ymax of the outer ring.

    Geometry is ragged: row k's rings are ``ring_offsets[k]`` up to
    ``ring_offsets[k + 1]``, outer ring first, then the holes in order, and
    ring r's vertices are ``x``/``y`` from ``vertex_offsets[r]`` up to
    ``vertex_offsets[r + 1]``. Rings are open: the closing edge is implied.

    ``features`` yields one ``(parcel_id, polygons, current_assessment,
    land_area, base_flood)`` record per GeoJSON feature. ``polygons`` lists
    each member as its rings of (x, y) positions, outer ring first; a
    repeated closing vertex is dropped. A bad record is a ParseError naming
    ``feature N`` (its position) and the parcel: a non-numeric or non-finite
    property, a negative assessment or land area, or a malformed,
    non-finite or short (< 3 vertices) ring.
    """

    def __init__(self, features):
        ids, member_rings, n_members = [], [], []
        props = array("d")
        try:
            for idx, (pid, polygons, assessment, land_area, base_flood) in enumerate(features):
                pid = str(pid)
                try:
                    values = [float(assessment), float(land_area), float(base_flood)]
                    ok = (values[0] >= 0 and values[1] >= 0 and all(map(math.isfinite, values))
                          # JSON true and false are not numbers
                          and bool not in (type(assessment), type(land_area), type(base_flood)))
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise _property_error(idx, pid if len(polygons) == 1 else f"{pid}#0",
                                          (assessment, land_area, base_flood))
                if len(polygons) == 1:
                    ids.append(pid)
                else:
                    ids += [f"{pid}#{k}" for k in range(len(polygons))]
                member_rings += polygons
                n_members.append(len(polygons))
                props.extend(values)
        except ParseError:
            _member_vertices(member_rings, n_members, ids)  # an earlier bad ring comes first
            raise
        xy, ring_counts, lengths = _member_vertices(member_rings, n_members, ids)

        area = ring_areas(xy[:, 0], xy[:, 1], lengths)
        outer = np.cumsum(ring_counts) - ring_counts
        holes = np.zeros(len(ids))  # 0 + h1 + h2 ...
        poly = area[outer]          # |outer| - h1 - h2 ...
        for q in range(1, ring_counts.max(initial=0)):
            has = ring_counts > q
            holes[has] += area[outer[has] + q]
            poly[has] -= area[outer[has] + q]
        n_members = np.array(n_members, dtype=np.int64)
        first_member = np.cumsum(n_members) - n_members
        group = np.zeros(n_members.size)
        for k in range(n_members.max(initial=0)):
            has = n_members > k
            group[has] += poly[first_member[has] + k]
        feature = np.repeat(np.arange(n_members.size), n_members)
        area = area[outer] - holes
        denominator = np.where(n_members[feature] > 1, group[feature], area)
        starts = np.cumsum(lengths) - lengths
        bbox = np.column_stack([reduce.reduceat(xy[:, axis], starts)[outer]
                                for reduce in (np.minimum, np.maximum) for axis in (0, 1)])

        # rows, rings and vertices in stable parcel_id order
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
        rings = _ragged(outer[order], ring_counts[order])
        self.x, self.y = xy[_ragged(starts[rings], lengths[rings])].T.copy()
        self.ring_offsets = np.concatenate(([0], np.cumsum(ring_counts[order])))
        self.vertex_offsets = np.concatenate(([0], np.cumsum(lengths[rings])))
        self.parcel_id = np.array(ids, dtype=object)[order]
        self.area, self.denominator, self.bbox = area[order], denominator[order], bbox[order]
        values = np.frombuffer(props, dtype=float).reshape(-1, 3)[feature[order]]
        self.current_assessment, self.land_area, self.base_flood = values.T.copy()

    def __len__(self) -> int:
        return len(self.parcel_id)


@dataclass
class BfeZone:
    """Flood-hazard zone polygon carrying a static base flood elevation.

    ``rings`` holds the outer ring, then the holes, each open: an (n, 2)
    array as parsed, or a list of (x, y) pairs.
    """

    rings: list
    static_bfe: float

    def __post_init__(self):
        if not self.rings or len(self.rings[0]) < 3:
            raise ValueError("BFE zone outer ring has fewer than 3 vertices")
        if not np.isfinite(self.static_bfe):
            raise ValueError(f"static_bfe must be finite, got {self.static_bfe}")
        for k, ring in enumerate(self.rings):
            if not np.isfinite(np.asarray(ring, dtype=float)).all():
                raise ValueError(f"BFE zone ring {k} has a non-finite vertex")


def load_json(text: str):
    """The JSON document ``text``; one it cannot decode, or nested too deep, is a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def _features(text: str, required) -> Iterator[tuple[str, dict, list]]:
    """``(where, properties, polygons)`` per feature of a GeoJSON FeatureCollection:
    ``feature N``, an object holding each name in ``required`` (null reads as
    none), and the raw ring lists (outer first) of each Polygon or MultiPolygon
    member. A layout error is a ParseError, raised when its feature is reached."""
    doc = load_json(text)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("root object is not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection has no features array")
    for idx, feature in enumerate(features):
        where = f"feature {idx}"
        if not isinstance(feature, dict):
            raise ParseError(f"{where}: not an object")
        props = {} if feature.get("properties") is None else feature["properties"]
        if not isinstance(props, dict):
            raise ParseError(f"{where}: properties must be an object")
        for name in required:
            if name not in props:
                raise ParseError(f"{where}: missing required property {name!r}")
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict) or "type" not in geometry:
            raise ParseError(f"{where}: missing or malformed geometry")
        gtype = geometry["type"]
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ParseError(f"{where}: non-polygon geometry {gtype!r}")
        polys = geometry.get("coordinates")
        polys = [polys] if gtype == "Polygon" else polys
        if not isinstance(polys, list) or not polys:
            raise ParseError(f"{where}: empty geometry coordinates")
        for p, rings in enumerate(polys):
            if not isinstance(rings, list) or not rings:
                raise ParseError(f"{where}: polygon {p} has no rings")
        yield where, props, polys


def parse_parcels(text: str) -> ParcelTable:
    """Parse a GeoJSON FeatureCollection of parcels into a ParcelTable.

    Each feature needs Polygon or MultiPolygon geometry and properties
    ``parcel_id``, ``current_assessment``, ``land_area`` (``base_flood``
    optional, defaulting to 0). A MultiPolygon feature yields one row per
    member polygon with ids suffixed ``#k``; members share the feature's
    assessment pool via a common group geometric area.
    """
    # the collector would only traverse the large, acyclic decoded document
    enabled = gc.isenabled()
    gc.disable()
    try:
        return ParcelTable((props["parcel_id"], polygons, props["current_assessment"],
                            props["land_area"], props.get("base_flood", 0.0))
                           for _, props, polygons in _features(
                               text, ("parcel_id", "current_assessment", "land_area")))
    finally:
        if enabled:
            gc.enable()


def parse_bfe_zones(text: str) -> list[BfeZone]:
    """Parse a GeoJSON FeatureCollection of BFE zones.

    Features need polygon geometry and a ``static_bfe`` property. MultiPolygon
    members become separate zones in member order, preserving input order
    overall (first containing zone wins downstream).
    """
    zones: list[BfeZone] = []
    for where, props, polygons in _features(text, ("static_bfe",)):
        bfe = _number(props["static_bfe"], "property 'static_bfe'", where)
        for p, rings in enumerate(polygons):
            # _ring and _number leave nothing for BfeZone to reject
            rings = [_ring(c, f"{where}, polygon {p}, ring {k}") for k, c in enumerate(rings)]
            zones.append(BfeZone(rings=rings, static_bfe=bfe))
    return zones


# ---------------------------------------------------------------------------
# Damage curve
# ---------------------------------------------------------------------------

@dataclass
class DamageCurve:
    """Monotone depth (ft) to damage-fraction breakpoint table."""

    breakpoints: list[tuple[float, float]]

    def __post_init__(self):
        pairs = []
        for i, pair in enumerate(self.breakpoints):
            try:
                if bool in map(type, pair):  # JSON true and false are not numbers
                    raise TypeError
                d, f = map(float, pair)
            except OverflowError:  # an integer too large for a float
                d = f = math.inf
            except (TypeError, ValueError):
                raise ValueError(f"entry {i}: non-numeric pair {pair!r}") from None
            if not (math.isfinite(d) and math.isfinite(f)):
                raise ValueError(f"entry {i}: non-finite value in {pair!r} (must be finite)")
            pairs.append((d, f))
        if len(pairs) < 2:
            raise ValueError("damage curve needs at least 2 breakpoints")
        self.breakpoints = pairs
        depths, fractions = zip(*pairs)
        if any(not b > a for a, b in zip(depths, depths[1:])):
            raise ValueError("depths strictly increasing violated")
        if any(f < 0 or f > 1 for f in fractions):
            raise ValueError("fraction outside [0, 1]")
        if any(b < a for a, b in zip(fractions, fractions[1:])):
            raise ValueError("fractions nondecreasing violated")


def parse_damage_curve(text: str) -> DamageCurve:
    """Parse a JSON array of [depth_ft, fraction] pairs into a DamageCurve."""
    raw = load_json(text)
    if not isinstance(raw, list):
        raise ParseError("damage curve must be a JSON array of [depth, fraction] pairs")
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"entry {i}: expected a [depth, fraction] pair")
    try:
        return DamageCurve(raw)
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
