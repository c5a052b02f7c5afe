"""Readers and writers for the external data formats.

Covers ESRI ASCII grid rasters, the GeoJSON subset used for parcels and
base-flood-elevation zones, damage-curve tables (also evaluated here), and
the scenario report CSV. All coordinates are planar feet; no reprojection
is performed. Work split between forked processes, here or in another
module, is one ``_forked`` call.
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


class ParseError(ValueError):
    """Raised when an input file does not conform to its expected format."""


# Entries of one transient batch array, whatever the batch size: ring vertices
# times bbox cells clipped at once (a traced peak of about 5.5 MB), scanline
# rows times their zone edges plus grid columns, or DEM rows read into the
# zonal sums at once times the DEM's columns. A 64th of it is the parcel
# members whose rings are flattened at once: some 8 k positions of 8-vertex rings.
# A 16th is the rows of cells.csv or scatter.csv spelled at once, ~150 B of objects each.
BATCH_ENTRIES = 1 << 16


def format_numbers(values):
    """The shortest decimal that reads back as each float of ``values``, lazily:
    repr, less the ".0" it ends in exactly on the integral values below 1e16 in
    magnitude (from 1e16 up it has an exponent), so canonical files stay compact."""
    values = np.asarray(values, dtype=float)
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


def _forked(run, n: int, least: int = 1) -> list | None:
    """The values of ``run(a, b)`` over contiguous parts [a, b) of range(n), in order:
    one per ``_workers()`` but none of fewer than ``least`` items, the first run here,
    each later one in a forked child that pipes its value back pickled. None, with no
    fork or run, for fewer than two parts; None if a child's run raises or the child dies,
    if the first run raises OSError or ValueError, or if a fork fails; no child outlives it."""
    k = min(_workers(), n // least)
    if k < 2:
        return None
    bounds = [n * r // k for r in range(k + 1)]
    pids, pipes = [], []
    try:
        for a, b in zip(bounds[1:], bounds[2:]):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as fh:  # this process keeps only the read end
                if (pid := os.fork()) == 0:  # a child never returns into the caller
                    try:
                        pickle.dump(run(a, b), fh)
                        fh.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        values = [run(0, bounds[1])]
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
                and np.array_equal(*(next(r.bands([0, r.nrows])) for r in (self, other)),
                                   equal_nan=True))

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
    header = format_numbers([getattr(r, key) for key in _HEADER_KEYS])
    lines = [f"{key} {s}" for key, s in zip(_HEADER_KEYS, header)]
    (values,) = r.bands([0, r.nrows])
    lines += map(" ".join, map(format_numbers, values))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parcels and BFE zones (GeoJSON subset)
# ---------------------------------------------------------------------------

def _coordinate(v) -> float:
    """``v + 0.0``, TypeError for a str: null as NaN, an integer too large for a float inf."""
    try:
        return math.nan if v is None else v + 0.0
    except OverflowError:
        return math.inf


def _vertices(rings) -> np.ndarray | None:
    """The positions of ``rings`` as one (n, size) float64 array read by ``_coordinate``;
    None unless each is a list of ``size`` numbers, which str, true and false are not."""
    try:
        positions = list(chain.from_iterable(rings))
        (size,) = set(map(len, positions)) or {2}  # no positions: (0, 2)
        try:
            xy = array("d", chain.from_iterable(positions))  # refuses a str
        except (TypeError, OverflowError):
            xy = array("d", map(_coordinate, chain.from_iterable(positions)))
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


def _member_vertices(members, n_members, ids, first: int):
    """Vertices, rings per member and vertices per ring of GeoJSON members.

    ``members`` are the members of features ``first`` on, feature k having
    ``n_members[k]``, and ``members[m]`` lists member m's rings of (x, y)
    positions; the last ``len(members)`` of ``ids`` name them in errors.
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
    feature_of = np.repeat(np.arange(first, len(n_members)), n_members[first:]).tolist()
    rings = [_ring(ring, f"feature {idx}: parcel {pid!r}, ring {r}")
             for rings, idx, pid in zip(members, feature_of, ids[len(ids) - len(members):])
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
        if isinstance(value, (bool, str)):  # JSON true, false and strings are not numbers
            raise TypeError
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    except (TypeError, ValueError):
        raise ParseError(f"{where}: non-numeric value {value!r} for {what}") from None
    if not math.isfinite(number):
        raise ParseError(f"{where}: non-finite value {value!r} for {what}")
    return number


def ring_areas(x: np.ndarray, y: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Unsigned shoelace area of every ring in flat ``x``/``y``; 0 below 3 vertices.

    Ring r is the next ``lengths[r]`` vertices, open: the edge back to its
    vertex 0 is implied. Vertices are shifted to the ring's vertex 0 first,
    because the cross products of raw county-scale coordinates cancel
    catastrophically for small parcels. ``np.bincount`` adds the weighted
    cross products in index order, so each ring's sum is 0 + t0 + t1 ... in
    vertex order, bit-equal to a scalar ``total += term`` loop.
    """
    starts = np.cumsum(lengths) - lengths
    ring = np.repeat(np.arange(lengths.size), lengths)
    nxt = np.arange(1, x.size + 1)
    live = lengths > 0
    nxt[(starts + lengths - 1)[live]] = starts[live]
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x[starts[ring]]
        dy = y - y[starts[ring]]
        term = dx * dy[nxt] - dx[nxt] * dy
        area = np.abs(0.5 * np.bincount(ring, weights=term, minlength=lengths.size))
    area[lengths < 3] = 0.0
    return area


def _runs(counts: np.ndarray):
    """(run, position in run) of every item when run m holds counts[m] items."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[m]`` up to ``starts[m] + lengths[m]``, in order."""
    run, k = _runs(lengths)
    return starts[run] + k


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
    non-finite or short (< 3 vertices) ring. The rings are flattened in
    batches of ``BATCH_ENTRIES // 64`` members, so only one batch of the
    records is held. The error is the first bad record's, its properties
    checked before its rings.
    """

    def __init__(self, features):
        ids, n_members, members, parts = [], [], [], []  # members: those not yet flattened
        props, done = array("d"), 0  # done: the features flattened
        try:
            for idx, (pid, polygons, assessment, land_area, base_flood) in enumerate(features):
                pid = str(pid)
                raw = (assessment, land_area, base_flood)
                try:
                    values = list(map(float, raw))
                    ok = (values[0] >= 0 and values[1] >= 0 and all(map(math.isfinite, values))
                          # JSON true, false and strings are not numbers
                          and {bool, str}.isdisjoint(map(type, raw)))
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise _property_error(idx, pid if len(polygons) == 1 else f"{pid}#0", raw)
                if len(polygons) == 1:
                    ids.append(pid)
                else:
                    ids += [f"{pid}#{k}" for k in range(len(polygons))]
                members += polygons
                n_members.append(len(polygons))
                props.extend(values)
                if len(members) >= BATCH_ENTRIES // 64:
                    parts.append(_member_vertices(members, n_members, ids, done))
                    members, done = [], idx + 1
        except ParseError:
            _member_vertices(members, n_members, ids, done)  # an earlier bad ring comes first
            raise
        parts.append(_member_vertices(members, n_members, ids, done))
        xy, ring_counts, lengths = map(np.concatenate, zip(*parts))

        # bincount and subtract.at add in index order: each sum below runs in ring or member order
        area = ring_areas(xy[:, 0], xy[:, 1], lengths)
        outer = np.cumsum(ring_counts) - ring_counts
        member = np.repeat(np.arange(len(ids)), ring_counts)
        hole = np.ones(member.size, dtype=bool)
        hole[outer] = False
        holes = np.bincount(member[hole], weights=area[hole], minlength=len(ids))  # 0 + h1 + h2 ...
        poly = area[outer]  # |outer| - h1 - h2 ...
        np.subtract.at(poly, member[hole], area[hole])
        n_members = np.array(n_members, dtype=np.int64)
        feature = np.repeat(np.arange(n_members.size), n_members)
        group = np.bincount(feature, weights=poly, minlength=n_members.size)
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


def _document_features(text: str) -> list:
    """The "features" list of the GeoJSON FeatureCollection ``text``, decoded whole:
    an invalid document, then a root that is not a FeatureCollection, then one
    without a features array, is the ParseError."""
    doc = load_json(text)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("root object is not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection has no features array")
    return features


def _scanned_features(text: str) -> Iterator:
    """The features of ``_document_features`` yielded one at a time as decoded, the other
    root members decoded whole. Where that could differ, with an error or not, a ParseError
    follows the last feature read: a root that is not an object, a repeated root key, a
    non-array "features", a "type" other than "FeatureCollection", or text after the root."""
    scan, space = json.JSONDecoder().scan_once, json.decoder.WHITESPACE.match
    members, end, sep = {}, space(text).end(), "{"  # "{" opens the root, "," parts its members
    try:
        while text[end:end + 1] == sep:
            sep, end = ",", space(text, end + 1).end()
            if text[end:end + 1] != '"':
                break
            key, end = scan(text, end)
            end = space(text, end).end()
            if text[end:end + 1] != ":" or key in members:
                break
            end = space(text, end + 1).end()
            if key != "features" or text[end:end + 1] != "[":
                members[key], end = scan(text, end)
            else:
                members[key], end = [], space(text, end + 1).end()
                if text[end:end + 1] != "]":
                    while True:
                        feature, end = scan(text, end)
                        yield feature
                        end = space(text, end).end()
                        if text[end:end + 1] != ",":
                            break
                        end = space(text, end + 1).end()
                    if text[end:end + 1] != "]":
                        break
                end += 1
            end = space(text, end).end()
        else:
            if (text[end:end + 1] == "}" and space(text, end + 1).end() == len(text)
                    and isinstance(members.get("features"), list)
                    and members.get("type") == "FeatureCollection"):
                return
    except StopIteration:  # no JSON value where one must start
        pass
    raise ParseError("not a plain FeatureCollection document")


def _read_features(text: str, build):
    """``build`` of ``_scanned_features(text)``; where that raises a ValueError (a ParseError
    among them) or RecursionError, that of ``_document_features(text)``, result or error."""
    try:
        return build(_scanned_features(text))
    except (ValueError, RecursionError):
        pass  # out of the handler first, so the error's frames let their batch go
    return build(_document_features(text))


def _features(features, required) -> Iterator[tuple[str, dict, list]]:
    """``(where, properties, polygons)`` per raw GeoJSON feature of ``features``:
    ``feature N``, an object holding each name in ``required`` (null reads as
    none), and the raw ring lists (outer first) of each Polygon or MultiPolygon
    member. A layout error is a ParseError, raised when its feature is reached."""
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

    The features are decoded one at a time and their rings flattened in
    batches, so the peak holds the text, the table and one batch. An invalid
    or irregular document is decoded again whole, and its error is the one
    of the whole decoded document.
    """
    # the collector would only traverse the decoded features, which hold no cycles
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_features(text, _parcel_table)
    finally:
        if enabled:
            gc.enable()


def _parcel_table(features) -> ParcelTable:
    """The ParcelTable of the raw GeoJSON parcel ``features``."""
    return ParcelTable((props["parcel_id"], polygons, props["current_assessment"],
                        props["land_area"], props.get("base_flood", 0.0))
                       for _, props, polygons in _features(
                           features, ("parcel_id", "current_assessment", "land_area")))


def parse_bfe_zones(text: str) -> list[BfeZone]:
    """Parse a GeoJSON FeatureCollection of BFE zones.

    Features need polygon geometry and a ``static_bfe`` property. MultiPolygon
    members become separate zones in member order, preserving input order
    overall (first containing zone wins downstream). The document is decoded
    as by ``parse_parcels``.
    """
    return _read_features(text, _bfe_zones)


def _bfe_zones(features) -> list[BfeZone]:
    """The BfeZones of the raw GeoJSON zone ``features``, in order."""
    zones: list[BfeZone] = []
    for where, props, polygons in _features(features, ("static_bfe",)):
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
                if not {bool, str}.isdisjoint(map(type, pair)):  # not JSON numbers
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


def evaluate_curve(curve: DamageCurve, depth):
    """Damage fraction at ``depth`` by linear interpolation between breakpoints.

    Elementwise over arrays. Depths below the first breakpoint clamp to the
    first fraction, above the last to the last fraction. Each depth is
    interpolated as f0 + ((x - d0) / (d1 - d0)) * (f1 - f0) on the first
    segment whose right end reaches it, capped at f1 so that rounding never
    lets it fall as depth rises; ``np.interp`` rounds differently.
    """
    d = np.array([p[0] for p in curve.breakpoints])
    f = np.array([p[1] for p in curve.breakpoints])
    x = np.asarray(depth, dtype=float)
    k = np.clip(np.searchsorted(d, x), 1, len(d) - 1)
    d0, d1, f0, f1 = d[k - 1], d[k], f[k - 1], f[k]
    # depths off the curve's ends are replaced below; on a segment narrower
    # than they are far away (say 1e-308 wide), their ratio would overflow
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.minimum(f0 + ((x - d0) / (d1 - d0)) * (f1 - f0), f1)
    return np.where(x <= d[0], f[0], np.where(x >= d[-1], f[-1], out))[()]


def cell_damage(exposed_value, depth, curve: DamageCurve):
    """Damage cost (USD) at the given flood depth, elementwise.

    Zero where the cell is dry (depth <= 0, or NaN); otherwise curve
    fraction times exposed value. Fractions lie in [0, 1], so a cell never
    loses more than what it holds.
    """
    return np.where(depth > 0, evaluate_curve(curve, depth) * exposed_value, 0.0)[()]


def load_default_curve() -> DamageCurve:
    """Built-in placeholder curve.

    UNCALIBRATED: the shape loosely mimics published depth-damage curves and
    exists so the pipeline runs out of the box. Real assessments should
    supply a calibrated curve file.
    """
    return DamageCurve([(0, 0.0), (1, 0.15), (2, 0.22), (4, 0.3), (6, 0.4), (10, 0.6)])


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
    areas = format_numbers([r.total_flooded_area for r in results])
    for r, slr, area in zip(results, format_numbers(slrs), areas):
        cost_delta = "" if r.cost_pct_delta is None else f"{r.cost_pct_delta * 100:.2f}"
        area_delta = "" if r.area_pct_delta is None else f"{r.area_pct_delta * 100:.2f}"
        lines.append(f"{slr},{r.total_damage:.2f},{area},{cost_delta},{area_delta}")
    return "\n".join(lines) + "\n"
