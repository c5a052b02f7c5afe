"""Exploratory data analysis over the parcel attribute table.

Reproduces the filtering funnel (minimum value, minimum price per square
foot, positive base flood, positive area cost), Tukey-fence outlier removal,
the area-cost scatter export, an OLS fit, and the Breusch-Pagan
heteroskedasticity diagnostic.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from . import geodata
from .geodata import ParseError, format_numbers

logger = logging.getLogger(__name__)

# 5% critical value of chi-square with 1 degree of freedom
CHI2_1DF_5PCT = 3.8415

TABLE_HEADER = ["parcel_id", "current_assessment", "land_area", "shape_area", "base_flood"]

# The rows numpy's reader and the row loop read: a record each, in file order.
TABLE_DTYPE = np.dtype([("parcel_id", object)] + [(name, float) for name in TABLE_HEADER[1:]])

# A body with no byte but line breaks holds no rows.
_CONTENT = re.compile(rb"[^\r\n]")
# Whitespace to numpy's number reader but not to float()
_SEPARATORS = b"\x1c\x1d\x1e\x1f"

# Fewest scatter rows a forked part renders: on 2 CPUs a part of fewer than
# about 15 k rows is slower forked than rendered in this process.
SCATTER_PART_ROWS = 16384
# A parcel_id holding one of these may need csv.writer's quoting.
_QUOTED = re.compile('[,"\r\n]')


@dataclass
class EdaReport:
    """Filter funnel counts plus regression and heteroskedasticity results."""

    counts: dict[str, int]
    slope: float
    intercept: float
    r_squared: float
    bp_statistic: float
    heteroskedastic: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def read_attribute_table(source) -> dict[str, np.ndarray]:
    """Parse the attribute CSV (fixed 5-column header) into TABLE_HEADER columns, in file order.

    ``source`` is a binary file open at its start, read as UTF-8. A field
    may be of any length, as it may for numpy's reader. A row csv cannot
    split, or a non-numeric or non-finite field, is a ParseError naming the
    line on which its record ends; bytes that are not UTF-8 are a
    UnicodeDecodeError first.
    """
    # numpy's C reader quotes as csv.reader does and gives the doubles float()
    # gives. It refuses what only float() reads ("1_000", non-ASCII digits);
    # the row loop over the whole decoded text, which words every error, reads
    # those and what else numpy or the header check refuses. numpy warns on a
    # body without rows and strips _SEPARATORS around a number, so neither
    # reaches it; no multi-byte UTF-8 character holds a line break or
    # _SEPARATORS byte, so both show in the bytes.
    try:
        line = source.readline()
        header = next(csv.reader([line.decode()], strict=True), [])
        if [h.strip() for h in header] == TABLE_HEADER and _rows_for_numpy(source):
            source.seek(len(line))
            fh = io.TextIOWrapper(source, encoding="utf-8", newline="")
            try:
                table = np.loadtxt(fh, dtype=TABLE_DTYPE, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
            finally:
                fh.detach()  # leaves source open for the row loop
            if all(np.isfinite(table[name]).all() for name in TABLE_HEADER[1:]):
                return _columns(table)
    except (ValueError, csv.Error):  # a UnicodeDecodeError too
        pass
    source.seek(0)
    text = source.read().decode()
    limit = csv.field_size_limit(len(text) + 1)  # no field outgrows the text
    reader = csv.reader(io.StringIO(text, newline=""))  # a line may end in \n, \r\n or \r
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty attribute table")
        if [h.strip() for h in header] != TABLE_HEADER:
            raise ParseError(f"line 1: expected header {','.join(TABLE_HEADER)!r}, "
                             f"got {','.join(header)!r}")
        return _columns(_read_rows(reader))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _rows_for_numpy(source) -> bool:
    """Whether the rest of ``source`` holds a byte that is no line break, and no _SEPARATORS."""
    content = False
    for chunk in iter(lambda: source.read(1 << 20), b""):
        if any(byte in chunk for byte in _SEPARATORS):
            return False
        content = content or bool(_CONTENT.search(chunk))
    return content


def _columns(rows: np.ndarray) -> dict[str, np.ndarray]:
    """TABLE_DTYPE ``rows`` as TABLE_HEADER columns: StringDType ids, each str freed, and floats."""
    ids = rows["parcel_id"].astype(np.dtypes.StringDType())
    rows["parcel_id"] = None
    return {"parcel_id": ids, **{name: rows[name].copy() for name in TABLE_HEADER[1:]}}


def _read_rows(reader) -> np.ndarray:
    """The table body, row by row from ``reader``: the reference for the C reader.

    A number is any field float() reads. A row with the wrong number of
    fields, or a field float() refuses or reads as non-finite, is a
    ParseError naming ``reader.line_num``, the line on which the row ends.
    """
    def rows():
        for row in reader:
            if not row:
                continue
            if len(row) != len(TABLE_HEADER):
                raise ParseError(f"line {reader.line_num}: expected {len(TABLE_HEADER)} fields, "
                                 f"got {len(row)}")
            try:
                values = tuple(map(float, row[1:]))
            except ValueError:
                raise ParseError(f"line {reader.line_num}: non-numeric field in {row!r}") from None
            if not all(map(math.isfinite, values)):
                raise ParseError(f"line {reader.line_num}: non-finite field in {row!r}")
            yield (row[0], *values)

    return np.fromiter(rows(), dtype=TABLE_DTYPE)


def area_cost(t, rows) -> np.ndarray:
    """Per row ``rows`` (index or mask) of ``t``: shape_area / land_area * current_assessment,
    defined and finite."""
    land = t["land_area"][rows]
    bad = land <= 0
    if bad.any():
        raise ValueError(f"undefined area cost for parcel {t['parcel_id'][rows][bad][0]!r} "
                         "(land_area <= 0)")
    with np.errstate(over="ignore"):
        cost = t["shape_area"][rows] / land * t["current_assessment"][rows]
    bad = ~np.isfinite(cost)
    if bad.any():
        raise OverflowError(f"area cost of parcel {t['parcel_id'][rows][bad][0]!r} is not finite")
    return cost


def filter_records(t) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int]]:
    """Apply the four record filters in order to the columns ``t``, counting survivors.

    All comparisons are strict: assessment > $10,000, price per square foot
    (assessment / land area) > $1, base flood > 0, area cost > 0. Returns
    run_eda's arguments: the survivors' ids, shape areas and area costs, each
    gathered by one mask, and the counts.
    """
    assessment, land = t["current_assessment"], t["land_area"]
    counts = {"input": len(assessment)}

    keep = assessment > 10_000
    counts["min_assessment"] = int(np.count_nonzero(keep))

    # a price over a land area <= 0 is masked out, whatever the division gives
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        keep &= (land > 0) & (assessment / land > 1)
    counts["min_price_per_sqft"] = int(np.count_nonzero(keep))

    keep &= t["base_flood"] > 0
    counts["positive_base_flood"] = int(np.count_nonzero(keep))

    cost = area_cost(t, keep)
    positive = cost > 0
    keep[keep] = positive
    counts["positive_area_cost"] = int(np.count_nonzero(positive))
    return t["parcel_id"][keep], t["shape_area"][keep], cost[positive], counts


def tukey_outlier_mask(values) -> np.ndarray:
    """Boolean mask flagging values outside the 1.5*IQR Tukey fences.

    Quartiles use linear interpolation of order statistics at position
    p*(n-1), 0-based.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError(f"need at least 4 values for outlier fences, got {v.size}")
    q1, q3 = np.quantile(v, [0.25, 0.75])
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return (v < lo) | (v > hi)


def _dot(a: np.ndarray, b: np.ndarray, statistic: str) -> float:
    """np.dot(a, b) as a float; a sum that overflows is an OverflowError."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.dot(a, b))
    if not math.isfinite(value):
        raise OverflowError(f"{statistic} is not finite")
    return value


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    with np.errstate(over="ignore"):  # an overflowed mean fails in _dot, which names the sum
        xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = _dot(dx, dx, "sum of squared x deviations")
    if sxx == 0:
        raise ValueError("degenerate regressor (constant x)")
    slope = _dot(dx, y - ym, "sum of x-y cross deviations") / sxx
    return slope, float(ym - slope * xm)


def _fit(x, y) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
    """Check the observations and fit y on x: (x, y, slope, intercept, residuals)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValueError(f"need at least 3 observations, got {x.size}")
    slope, intercept = _least_squares_line(x, y)
    return x, y, slope, intercept, y - (intercept + slope * x)


def ols_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y): returns (slope, intercept, r_squared).

    A sum of squares that overflows raises OverflowError naming it.
    """
    x, y, slope, intercept, resid = _fit(x, y)
    ss_res = _dot(resid, resid, "residual sum of squares")
    if y.min() == y.max():  # nothing to explain, whatever y - mean(y) rounds to
        return slope, intercept, 1.0
    dy = y - y.mean()
    ss_tot = _dot(dy, dy, "total sum of squares")
    if ss_tot == 0:
        if ss_res == 0:
            return slope, intercept, 1.0
        raise ValueError("zero total variance with nonzero residuals")
    return slope, intercept, 1.0 - ss_res / ss_tot


def breusch_pagan(x, y) -> tuple[float, bool]:
    """Breusch-Pagan LM test of the fit of y on x.

    Squared residuals from the main fit are regressed on x (with intercept);
    the statistic is n times the R-squared of that auxiliary regression.
    The boolean compares against the 5% chi-square(1) critical value. When
    the squared residuals carry no variance at all there is nothing to
    explain and the statistic is 0. A sum of squares that overflows raises
    OverflowError naming it.
    """
    x, _, _, _, e2 = _fit(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        e2 *= e2  # squared in place: the residuals are not read again
        de = e2 - e2.mean()
    ss_tot = _dot(de, de, "Breusch-Pagan total sum of squares")
    del de  # not held through the auxiliary fit
    if ss_tot == 0:
        return 0.0, False
    aux_slope, aux_intercept = _least_squares_line(x, e2)
    aux_resid = e2 - (aux_intercept + aux_slope * x)
    r2 = 1.0 - _dot(aux_resid, aux_resid, "Breusch-Pagan residual sum of squares") / ss_tot
    lm = x.size * r2
    return lm, lm > CHI2_1DF_5PCT


def scatter_export(ids: np.ndarray, shape_area: np.ndarray, cost: np.ndarray) -> list[str]:
    """Plot-ready CSV of the kept records' columns, as run_eda returns them:
    parcel_id, shape_area, area_cost.

    Its chunks: the header line, then parts of at least SCATTER_PART_ROWS
    rows, one per CPU, rendered by one ``geodata._forked`` call in this process
    and forked children, or all here in one part should it not split or fail:
    the bytes are the same. A part is spelled ``BATCH_ENTRIES // 16`` rows at a
    time, as one str.format a row, or by csv.writer if an id of them is not a str or
    holds one of _QUOTED: both spell the other ids alike.
    """
    step = geodata.BATCH_ENTRIES // 16

    def batch(a, b):
        cells = (ids[a:b].tolist(), format_numbers(shape_area[a:b]), format_numbers(cost[a:b]))
        try:
            plain = not _QUOTED.search("".join(cells[0]))
        except TypeError:
            plain = False
        if plain:
            return "".join(map("{},{},{}\n".format, *cells))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(zip(*cells))
        return buf.getvalue()

    def rows(a, b):
        return "".join(batch(c, min(c + step, b)) for c in range(a, b, step))

    parts = geodata._forked(rows, len(ids), SCATTER_PART_ROWS) or [rows(0, len(ids))]
    return ["parcel_id,shape_area,area_cost\n", *parts]


def run_eda(ids: np.ndarray, shape: np.ndarray, cost: np.ndarray, counts: dict[str, int]
            ) -> tuple[EdaReport, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The EDA past filter_records, whose values it takes: outlier removal, OLS, Breusch-Pagan.

    A record is dropped as an outlier if it trips the Tukey fences on either
    area cost or shape area. The outlier stage is skipped when fewer than 4
    records survive the filters (fences need 4 values). Raises ValueError
    when fewer than 3 records remain for the regression. Returns the report and
    scatter_export's arguments: the kept ids, shape areas and costs.
    """
    inlier = (~(tukey_outlier_mask(cost) | tukey_outlier_mask(shape)) if len(cost) >= 4
              else np.ones(len(cost), dtype=bool))
    shape, cost = shape[inlier], cost[inlier]
    counts = {**counts, "outlier_removal": len(cost)}
    logger.info("filter funnel: %s", " -> ".join(f"{k}={v}" for k, v in counts.items()))

    if len(cost) < 3:
        raise ValueError(f"only {len(cost)} records survive filtering; regression impossible")

    slope, intercept, r2 = ols_fit(shape, cost)
    lm, het = breusch_pagan(shape, cost)

    report = EdaReport(counts=counts, slope=slope, intercept=intercept, r_squared=r2,
                       bp_statistic=lm, heteroskedastic=het)
    return report, (ids[inlier], shape, cost)  # the ids gathered past the fits' peak
