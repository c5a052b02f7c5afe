"""Readers and writers for the external data formats.

Covers ESRI ASCII grid rasters, the GeoJSON subset used for parcels and
base-flood-elevation zones, damage-curve tables, and the scenario report
CSV. All coordinates are planar feet; no reprojection is performed. Work
that a reader or writer splits between forked processes goes through
``_forked`` here.
"""

from __future__ import annotations

import gc
import io
import json
import math
import operator
import os
import pickle
import signal
from array import array
from collections import deque
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass, field
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
# Work split between forked processes
# ---------------------------------------------------------------------------

def _workers() -> int:
    """How many processes share a split task: one per CPU this process may run
    on, or one where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _parts(n: int, least: int = 1) -> list[tuple[int, int]]:
    """range(n) as contiguous (start, stop) parts in order: one per ``_workers()``,
    but no more than give each ``least`` items, and one at the least."""
    k = max(1, min(_workers(), n // least))
    bounds = [n * r // k for r in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _forked(runs) -> list | None:
    """Call ``runs[0]()`` here while each later run is called in a forked child
    that sends its value back, pickled, through a pipe of its own: the values in
    run order. None if a child's run raises or the child dies, if ``runs[0]``
    raises OSError or ValueError, or if a fork fails; no child outlives the call."""
    pids, pipes = [], []
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as fh:  # this process keeps only the read end
                if (pid := os.fork()) == 0:  # a child never returns into the caller
                    try:
                        pickle.dump(run(), fh)
                        fh.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        values = [runs[0]()]
        for pipe in pipes:
            data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]  # reaped: an interrupted wait leaves it for the kill below
            if status:
                return None
            values.append(pickle.loads(data))
        return values
    except (OSError, ValueError):
        return None
    finally:
        for pid in pids:
            with suppress(ChildProcessError, ProcessLookupError):  # reaped if SIGCHLD is ignored
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


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
    ``parse_ascii_grid`` of a binary file leaves ``values`` None: ``bands`` reads
    the rows from the file on each call, and if the file has a name, ``reread``
    from the path and ``os.stat_result`` in ``body``.
    """

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float
    values: np.ndarray | None
    _file: tuple | None = field(default=None, init=False, repr=False)  # (file, body offset)
    body: tuple[str, os.stat_result] | None = field(default=None, init=False, repr=False)

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
            return _read_bands(*self._file, self.nrows, self.ncols, edges, strict=False)
        return (self.values[a:b] for a, b in zip(edges[:-1], edges[1:]))

    def reread(self, edges) -> Iterator[np.ndarray]:
        """As ``bands``, for ``edges`` ascending within 0 to nrows, read anew from the path
        in ``body``: ValueError if it now leads to another file, or unless each non-blank
        line (split at LF) is one row of ``ncols`` values. No per-line parse: a part of a
        split skips the lines before its rows trusting each is one row, which only the
        part owning them checks, so one failed part sends every band to this process."""
        path, stat = self.body
        with open(path, "rb") as fh:
            if not os.path.samestat(os.fstat(fh.fileno()), stat):
                raise ValueError(f"{path} is no longer the file read")
            yield from _read_bands(fh, self._file[1], self.nrows, self.ncols, edges, strict=True)


def data_mask(values: np.ndarray, nodata_value: float) -> np.ndarray:
    """True where a raster sample is neither NODATA nor non-finite."""
    return (values != nodata_value) & np.isfinite(values)


def _lines(source) -> Iterator[str]:
    """``str.splitlines(keepends=True)`` of the text of the binary file ``source``,
    read from its start a line at a time; a byte that is not UTF-8 is the
    UnicodeDecodeError of its line, whose ``offset`` is the line's in the file."""
    source.seek(0)
    for line in source:
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            exc.offset = source.tell() - len(line)
            raise
        yield from text.splitlines(keepends=True)


def _parse_values_per_line(source, expected: int) -> Iterator[list[float]]:
    """The ``float()`` values of each grid body line of the binary file ``source``
    in turn, read from its start a line at a time, however the rows are wrapped.
    A bad token is a ParseError with its line and token position, and a total
    other than ``expected`` a count mismatch at the end."""
    lines, n, got = _lines(source), len(_HEADER_KEYS), 0
    for lineno, line in enumerate(islice(lines, n, None), start=n + 1):
        tokens, values = line.split(), []
        try:
            values.extend(map(float, tokens))
        except ValueError:  # extend kept the values before the bad token
            deque(lines, 0)  # as with the whole text, a decode error comes first
            raise ParseError(f"line {lineno}, token {len(values) + 1}: "
                             f"non-numeric token {tokens[len(values)]!r}") from None
        got += len(values)
        yield values
    if got != expected:
        raise ParseError(f"value count mismatch: expected {expected}, got {got}")


def _read_bands(source, offset, nrows: int, ncols: int, edges, strict) -> Iterator[np.ndarray]:
    """Yield rows ``edges[k]:edges[k + 1]`` of the grid body at byte ``offset``
    of the binary file ``source`` for each k in turn.

    Each band is one ``np.loadtxt`` call over the body's non-blank lines,
    split at LF, after the first ``edges[0]``, and must be whole rows of
    ``ncols`` values, with nothing after row nrows. Else the rest is read by
    the per-line parse of ``source``, or is a ValueError if ``strict``.
    """
    # numpy's C reader gives the doubles float() gives, splits a line where
    # str.split() does, and refuses a lone \r and what only float() reads ("1_0",
    # non-ASCII digits). Given max_rows it reads no line past it; it warns on no lines.
    source.seek(offset)  # the rows before edges[0] are skipped on the first next()
    rows = islice((line for line in source if line.strip(_ASCII_SPACE)), edges[0], None)
    done = 0
    with suppress(ValueError):  # a UnicodeDecodeError too: the per-line parse gives its offset
        for start, end in zip(edges[:-1], edges[1:]):
            if (first := next(rows, None)) is None:
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
    if strict:
        raise ValueError(f"the body is not {ncols} values a line from row {edges[done]} on")
    band = None  # not held while the rest is read
    values = chain.from_iterable(_parse_values_per_line(source, nrows * ncols))
    next(islice(values, edges[done] * ncols, edges[done] * ncols), None)  # the rows read
    for start, end in zip(edges[done:-1], edges[done + 1:]):
        yield np.fromiter(values, dtype=float, count=(end - start) * ncols).reshape(-1, ncols)
    deque(values, 0)  # to the count mismatch of a longer body


def parse_ascii_grid(source) -> Raster:
    """Parse an ESRI ASCII grid: 6 header lines, then whitespace-separated values.

    ``source`` is a binary file open for reading, of which only the header
    is read here: ``Raster.bands`` reads the rows while the file is open,
    and ``values`` stays None. Given the text instead, its lines are read
    the same way and ``values`` holds the rows. Header keys are
    case-insensitive. Errors carry the offending line (and token) position.
    """
    if isinstance(source, str):  # its UTF-8 bytes, "?" for a surrogate, are parsed
        raster = parse_ascii_grid(io.BytesIO(source.encode(errors="replace")))
        (raster.values,) = raster.bands([0, raster.nrows])
        raster._file = None  # lets the copy of the text go
        return raster

    n = len(_HEADER_KEYS)
    size, lines = source.seek(0, os.SEEK_END), _lines(source)
    head = list(islice(lines, n))
    if len(head) < n:
        raise ParseError(f"expected {n} header lines, file has only {len(head)}")
    header: dict[str, float] = {}
    for lineno, line in enumerate(head, start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: malformed header line {line.splitlines()[0]!r}")
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
    # A text holds at most one value per two characters: the body or Raster fail
    if min(ncols, nrows) < 1 or ncols * nrows > size // 2 + 1:
        deque(_parse_values_per_line(source, ncols * nrows), 0)
    try:
        raster = Raster(*(header[k] for k in _HEADER_KEYS), None)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    raster._file = (source, len("".join(head).encode()))
    if isinstance(getattr(source, "name", None), str):
        raster.body = (source.name, os.fstat(source.fileno()))
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

def _vertices(rings) -> np.ndarray | None:
    """The positions of ``rings`` as one (n, size) float64 array, null as NaN; None
    unless each is a list of ``size`` numbers, which str, true and false are not."""
    try:
        positions = list(chain.from_iterable(rings))
        (size,) = set(map(len, positions)) or {2}  # no positions: (0, 2)
        try:
            xy = array("d", chain.from_iterable(positions))  # refuses a str
        except TypeError:
            xy = array("d", (math.nan if v is None else v for v in chain.from_iterable(positions)))
        xy = np.asarray(xy)
        if ((xy == 0) | (xy == 1)).any() and bool in map(type, chain.from_iterable(positions)):
            return None
        return xy.reshape(-1, size)
    except (TypeError, ValueError, OverflowError):
        return None


def _ring(coords, where: str) -> np.ndarray:
    """A GeoJSON ring as an open (n, 2) float array of finite (x, y) vertices."""
    ring = _vertices([coords])
    if ring is None or ring.shape[1] < 2:
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
    The result is that of ``_ring`` on every ring, concatenated, converted at
    once; a bad ring raises the ParseError of the first one.
    """
    ring_counts = np.array([len(rings) for rings in members], dtype=np.int64)
    rings = [ring for rings in members for ring in rings]
    xy = _vertices(rings)
    if xy is not None and xy.shape[1] >= 2 and np.isfinite(xy[:, :2]).all():
        lengths = np.array([len(ring) for ring in rings], dtype=np.int64)
        last = np.cumsum(lengths) - 1
        if (lengths >= 3).all():
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
