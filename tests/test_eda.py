"""EDA pipeline: filters, outlier fences, OLS, Breusch-Pagan, scatter export."""

import csv
import io
import json
import os
import signal
import time
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, ols_normal_equations
from floodgrid import eda, geodata
from floodgrid.eda import (
    CHI2_1DF_5PCT,
    TABLE_DTYPE,
    TABLE_HEADER,
    ParseError,
    area_cost,
    breusch_pagan,
    filter_records,
    ols_fit,
    read_attribute_table,
    run_eda,
    scatter_export,
    tukey_outlier_mask,
)
from floodgrid.geodata import format_number


def record(pid="r", assessment=100_000.0, land=5_000.0, shape=5_000.0, bfe=8.0):
    """A one-row attribute table."""
    return np.array([(pid, assessment, land, shape, bfe)], dtype=TABLE_DTYPE)


def table(*rows):
    """The one-row tables ``rows`` stacked in order."""
    return np.concatenate(rows) if rows else np.empty(0, dtype=TABLE_DTYPE)


class TestAreaCost:
    def test_equal_areas(self):
        assert area_cost(record()).tolist() == [100_000.0]

    def test_half_ratio(self):
        assert area_cost(record(shape=2_500.0)).tolist() == [50_000.0]

    def test_zero_land_area(self):
        with pytest.raises(ValueError, match="undefined area cost"):
            area_cost(record(land=0.0))
        with pytest.raises(ValueError, match="undefined area cost for parcel 'b'"):
            area_cost(table(record("a"), record("b", land=-1.0), record("c", land=0.0)))

    def test_column_in_row_order(self):
        t = table(record("a"), record("b", shape=2_500.0), record("c", assessment=3.0))
        assert area_cost(t).tolist() == [100_000.0, 50_000.0, 3.0]

    def test_overflow_names_parcel(self):
        t = table(record("a"), record("huge", shape=1e308, land=1e-10))
        with pytest.raises(OverflowError, match="area cost of parcel 'huge' is not finite"):
            area_cost(t)


class TestFilterRecords:
    def test_threshold_is_strict(self):
        kept, _ = filter_records(record(assessment=10_000.0))
        assert len(kept) == 0
        kept, _ = filter_records(record(assessment=10_000.01))
        assert len(kept) == 1

    def test_price_per_sqft_strict(self):
        # $50,000 over 100,000 sqft = $0.50/sqft
        kept, _ = filter_records(record(assessment=50_000.0, land=100_000.0))
        assert len(kept) == 0
        kept, _ = filter_records(record(assessment=50_000.0, land=50_000.0))
        assert len(kept) == 0

    def test_zero_base_flood_excluded(self):
        kept, _ = filter_records(record(bfe=0.0))
        assert len(kept) == 0

    def test_zero_area_cost_excluded(self):
        kept, _ = filter_records(record(shape=0.0))
        assert len(kept) == 0

    def test_nonpositive_land_area_fails_price_filter(self):
        kept, counts = filter_records(table(record(land=0.0), record(land=-5.0)))
        assert len(kept) == 0
        assert counts["min_assessment"] == 2
        assert counts["min_price_per_sqft"] == 0

    def test_price_overflowing_to_inf_passes_without_warning(self):
        # 1e300 / 1e-10 overflows; the area cost 1e-20 / 1e-10 * 1e300 does not
        kept, _ = filter_records(record(assessment=1e300, land=1e-10, shape=1e-20))
        assert len(kept) == 1

    def test_stage_counts(self):
        records = table(
            record("ok"),
            record("cheap", assessment=9_000.0),
            record("low_price", assessment=20_000.0, land=100_000.0),
            record("no_bfe", bfe=0.0),
            record("no_shape", shape=0.0),
        )
        kept, counts = filter_records(records)
        assert kept["parcel_id"].tolist() == ["ok"]
        assert all(type(v) is int for v in counts.values())
        assert counts == {
            "input": 5,
            "min_assessment": 4,
            "min_price_per_sqft": 3,
            "positive_base_flood": 2,
            "positive_area_cost": 1,
        }

    def test_order_invariant(self):
        rng = np.random.default_rng(67)
        records = table(*(record(f"r{k}", assessment=float(rng.uniform(0, 50_000)))
                          for k in range(30)))
        kept_a, _ = filter_records(records)
        kept_b, _ = filter_records(records[::-1])
        assert set(kept_a["parcel_id"]) == set(kept_b["parcel_id"])
        assert kept_b.tolist() == kept_a[::-1].tolist()


class TestTukeyMask:
    def test_single_outlier(self):
        # Q1 = 2, Q3 = 4, upper fence = 4 + 1.5*2 = 7
        mask = tukey_outlier_mask([1, 2, 3, 4, 100])
        assert mask.tolist() == [False, False, False, False, True]

    def test_constant_sequence(self):
        assert not tukey_outlier_mask([5.0] * 10).any()

    def test_tight_data_unflagged(self):
        assert not tukey_outlier_mask([10, 11, 12, 13, 14]).any()

    def test_requires_four_values(self):
        with pytest.raises(ValueError, match="at least 4"):
            tukey_outlier_mask([1, 2, 3])

    def test_values_within_one_iqr_of_median_never_flagged(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            v = rng.uniform(0, 100, int(rng.integers(4, 40)))
            med = np.median(v)
            q1, q3 = np.quantile(v, [0.25, 0.75])
            iqr = q3 - q1
            mask = tukey_outlier_mask(v)
            near = np.abs(v - med) <= iqr
            assert not (mask & near).any()


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, intercept, r2 = ols_fit(x, 2 * x + 1)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_case(self):
        slope, intercept, r2 = ols_fit([0, 1, 2], [0, 0, 3])
        assert slope == pytest.approx(1.5, rel=1e-12)
        assert intercept == pytest.approx(-0.5, rel=1e-12)
        assert r2 == pytest.approx(0.75, rel=1e-12)

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError, match="degenerate regressor"):
            ols_fit([3, 3, 3], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ols_fit([1, 2, 3], [1, 2])

    def test_fewer_than_three_observations_rejected(self):
        with pytest.raises(ValueError, match="^need at least 3 observations, got 2$"):
            ols_fit([1, 2], [1, 2])

    def test_constant_y_is_explained_exactly(self):
        # no variance to explain and none left over
        assert ols_fit([1, 2, 3], [2.0, 2.0, 2.0]) == (0.0, 2.0, 1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(3, 200))
            x = rng.uniform(-100, 100, n)
            while np.all(x == x[0]):
                x = rng.uniform(-100, 100, n)
            y = rng.uniform(-5, 5) * x + rng.uniform(-100, 100) + rng.normal(0, 10, n)
            mine = ols_fit(x, y)
            oracle = ols_normal_equations(x, y)
            for a, b in zip(mine, oracle):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(79)
        x = rng.uniform(0, 100, 50)
        y = 3 * x + rng.normal(0, 20, 50)
        slope, intercept, _ = ols_fit(x, y)
        resid = y - (intercept + slope * x)
        assert abs(resid.sum()) <= 1e-9 * len(y) * np.abs(y).max()

    def test_affine_response_invariance(self):
        rng = np.random.default_rng(83)
        x = rng.uniform(0, 10, 40)
        y = 2 * x + rng.normal(0, 1, 40)
        s1, i1, r1 = ols_fit(x, y)
        c = 37.5
        s2, i2, r2 = ols_fit(x, c * y)
        assert s2 == pytest.approx(c * s1, rel=1e-9)
        assert i2 == pytest.approx(c * i1, rel=1e-9)
        assert r2 == pytest.approx(r1, rel=1e-9)


def huge_shape_areas():
    """15 records with finite area costs whose sums of squares overflow."""
    k = np.arange(15)
    shape = 4e203 * (1 + 0.01 * k)
    return shape, shape / 4000 * (5e4 + 1000 * k)


class TestOverflowingSums:
    def test_ols_names_the_statistic(self):
        x, y = huge_shape_areas()
        with pytest.raises(OverflowError, match="^sum of squared x deviations is not finite$"):
            ols_fit(x, y)

    def test_breusch_pagan_names_the_statistic(self):
        x, y = huge_shape_areas()
        with pytest.raises(OverflowError, match="^sum of squared x deviations is not finite$"):
            breusch_pagan(x, y)

    def test_overflowing_residuals(self):
        # the regressor is tame; the residuals' squares overflow
        x = np.arange(15.0)
        y = 1e160 * np.where(np.arange(15) % 2, 1.0, -1.0) * (1 + x)
        with pytest.raises(OverflowError, match="^residual sum of squares is not finite$"):
            ols_fit(x, y)
        with pytest.raises(OverflowError,
                           match="^Breusch-Pagan total sum of squares is not finite$"):
            breusch_pagan(x, y)


def bp_fixture(proportional: bool):
    """Seeded synthetic data; LM values cross-checked once against an
    independent statistics package and frozen here."""
    rng = np.random.default_rng(20240811)
    x = rng.uniform(1, 100, 500)
    if proportional:
        eps = rng.normal(0.0, 1.0, 500) * 0.8 * x
    else:
        eps = rng.normal(0.0, 40.0, 500)
    return x, 5 * x + eps


class TestBreuschPagan:
    def test_exact_fit_gives_zero(self):
        x = np.arange(10.0)
        lm, het = breusch_pagan(x, 2 * x + 1)
        assert lm == 0.0
        assert het is False

    def test_funnel_fixture(self):
        x, y = bp_fixture(proportional=True)
        lm, het = breusch_pagan(x, y)
        assert lm == pytest.approx(84.16095194970491, rel=1e-8)
        assert lm > CHI2_1DF_5PCT
        assert het is True

    def test_homoskedastic_fixture(self):
        x, y = bp_fixture(proportional=False)
        lm, het = breusch_pagan(x, y)
        assert lm == pytest.approx(1.5258249389205614, rel=1e-8)
        assert lm < CHI2_1DF_5PCT
        assert het is False

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError, match="degenerate regressor"):
            breusch_pagan([1, 1, 1, 1], [1, 2, 3, 4])


class TestScatterExport:
    def test_empty_input(self):
        assert scatter_export(table()) == "parcel_id,shape_area,area_cost\n"

    def test_rows_in_input_order(self):
        rs = table(record("a"), record("b", shape=2_500.0), record("c", shape=7_500.0))
        out = scatter_export(rs).strip().split("\n")
        assert len(out) == 4
        assert out[1].startswith("a,")
        assert out[2] == "b,2500,50000"

    def test_full_precision_round_trip(self):
        r = record("p", assessment=123_456.789, land=3_333.31, shape=1_234.567)
        line = scatter_export(r).strip().split("\n")[1]
        _, shape_s, cost_s = line.split(",")
        assert float(shape_s) == r["shape_area"][0]
        assert float(cost_s) == area_cost(r)[0]

    def test_ids_are_quoted_as_csv(self):
        out = scatter_export(table(record("x,1"), record('say "hi"')))
        assert out.split("\n")[1:3] == ['"x,1",5000,100000', '"say ""hi""",5000,100000']

    def test_column_renderer_is_format_number(self):
        edges = [-0.0, 0.0, 0.1, 123.0, 1e15, 2.0 ** 53, 9999999999999998.0, 1e16, 1e-4, 1e-5,
                 5e-324, 1.7976931348623157e308, 0.5, 1e16 + 2, 123456.789, 1e22,
                 float("inf"), float("nan")]
        rng = np.random.default_rng(5)
        lognormal = np.exp(rng.normal(0, 12, 2000))
        values = np.concatenate([edges, np.negative(edges), lognormal, np.round(lognormal)])
        assert list(geodata.format_numbers(values)) == list(map(format_number, values.tolist()))


class TestScatterSplit:
    """Scatter rows split between forked processes give the bytes one process
    gives, and the bytes csv.writer gives; ``forks`` (conftest) holds True per
    split where every process rendered its part, False where this one
    rendered them all after a failure."""

    IDS = {
        "ascii": [f"r{k:06d}" for k in range(40)],
        "non-ascii": [f"{name}-{k}" for k in range(10)
                      for name in ("Zürich", "東京", "ß", "\U0001f30a")],
        **{f"with {name}": [f"x{char}{k}" if k % 3 else f"p{k}" for k in range(40)]
           for name, char in (("comma", ","), ("quote", '"'), ("cr", "\r"), ("lf", "\n"))},
        "quoted": [f"{name}{k}" for k in range(8)
                   for name in ("plain", "x,1", 'say "hi"', "a\r\nb", "")],
        "not str": [k if k % 3 else None for k in range(40)],
    }

    @pytest.fixture(autouse=True)
    def small_parts(self, monkeypatch):
        monkeypatch.setattr(eda, "SCATTER_PART_ROWS", 2)

    @staticmethod
    def records(ids, seed=0):
        """A table of kept records with parcel ids ``ids``."""
        rng = np.random.default_rng(seed)
        t = np.empty(len(ids), dtype=TABLE_DTYPE)
        t["parcel_id"] = ids
        t["current_assessment"] = np.round(np.exp(rng.normal(12.0, 1.0, len(ids))), 2)
        t["land_area"] = np.round(rng.uniform(2_000, 40_000, len(ids)), 1)
        t["shape_area"] = np.round(t["land_area"] * rng.uniform(0.7, 1.3, len(ids)), 1)
        t["base_flood"] = 6.0
        return t

    @staticmethod
    def written(t) -> bytes:
        """The scatter of ``t`` as one csv.writer writes it."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["parcel_id", "shape_area", "area_cost"])
        writer.writerows(zip(t["parcel_id"], map(format_number, t["shape_area"].tolist()),
                             map(format_number, area_cost(t).tolist())))
        return buf.getvalue().encode()

    @staticmethod
    def outcome(monkeypatch, t, workers) -> bytes:
        monkeypatch.setattr(geodata, "_workers", lambda: workers)
        try:
            return scatter_export(t).encode()
        finally:
            assert_no_child_left()

    @pytest.mark.parametrize("kind", IDS)
    def test_bytes_match_one_process(self, monkeypatch, forks, kind):
        t = self.records(self.IDS[kind])
        expected = self.written(t)
        for workers in (1, 2, 3, 8):
            assert self.outcome(monkeypatch, t, workers) == expected
        assert forks == [True] * 3  # one process renders all; every split renders its parts
        if kind == "quoted":
            assert b'\n"x,10",' in expected and b'\n"say ""hi""1",' in expected

    def test_parts_hold_the_fewest_rows(self, monkeypatch, forks):
        monkeypatch.setattr(eda, "SCATTER_PART_ROWS", 20)
        t = self.records(self.IDS["ascii"])
        for rows, splits in ((39, 0), (40, 1)):
            assert self.outcome(monkeypatch, t[:rows], 8) == self.written(t[:rows])
            assert len(forks) == splits
        assert geodata._parts(40, 20) == [(0, 20), (20, 40)]
        assert geodata._parts(0, 20) == [(0, 0)]

    def test_a_child_that_dies_is_rendered_here(self, monkeypatch, forks):
        t = self.records(self.IDS["non-ascii"])
        parent, format_numbers = os.getpid(), eda.format_numbers

        def die_in_child(values):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_numbers(values)
        monkeypatch.setattr(eda, "format_numbers", die_in_child)
        assert self.outcome(monkeypatch, t, 3) == self.written(t)
        assert forks == [False]

    def test_failed_fork_reaps_the_child_forked(self, monkeypatch, forks):
        t = self.records(self.IDS["quoted"])
        fork, calls = os.fork, []

        def fork_once():
            calls.append(1)
            if len(calls) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()
        monkeypatch.setattr(os, "fork", fork_once)
        assert self.outcome(monkeypatch, t, 4) == self.written(t)
        assert len(calls) == 2 and forks == [False]

    def test_interrupted_wait_reaps_the_child(self, monkeypatch):
        t = self.records(self.IDS["ascii"])
        waitpid, calls = os.waitpid, []

        def interrupted_once(pid, options):
            calls.append(pid)
            if len(calls) == 1:  # the child has sent its part, and is not yet reaped
                raise KeyboardInterrupt
            return waitpid(pid, options)
        monkeypatch.setattr(os, "waitpid", interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            self.outcome(monkeypatch, t, 2)
        assert len(calls) == 3  # the interrupted wait, the kill's wait, no child left

    def test_interrupt_stops_every_child(self, monkeypatch):
        t = self.records(self.IDS["ascii"])
        parent = os.getpid()

        def interrupt_here(values):  # while the children take their time
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
        monkeypatch.setattr(eda, "format_numbers", interrupt_here)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self.outcome(monkeypatch, t, 3)
        assert time.perf_counter() - t0 < 30


class TestReadAttributeTable:
    GOOD = (
        "parcel_id,current_assessment,land_area,shape_area,base_flood\n"
        "a,100000,5000,5000,8\n"
        "b,50000,2000,1800,0\n"
    )

    def test_parse(self):
        records = read_attribute_table(self.GOOD)
        assert records.dtype == TABLE_DTYPE
        assert len(records) == 2
        assert records["parcel_id"][0] == "a"
        assert records["base_flood"][1] == 0.0
        assert records.tolist() == [("a", 100000.0, 5000.0, 5000.0, 8.0),
                                    ("b", 50000.0, 2000.0, 1800.0, 0.0)]

    def test_header_only_gives_empty_table(self):
        records = read_attribute_table(self.GOOD.split("\n")[0] + "\n")
        assert records.dtype == TABLE_DTYPE and len(records) == 0

    def test_values_are_float_of_each_field(self):
        fields = ["0.1", "1e-320", "-0", "1_000", "  7.5 ", "123456789.123456789"]
        text = self.GOOD.split("\n")[0] + "\n" + "".join(
            f"p{k},{f},{f},{f},{f}\n" for k, f in enumerate(fields))
        records = read_attribute_table(text)
        for name in TABLE_HEADER[1:]:
            assert [v.hex() for v in records[name].tolist()] == \
                [float(f).hex() for f in fields]

    def test_quoted_ids_and_blank_lines(self):
        text = self.GOOD + '\n"c,d",1,2,3,4\n\n'
        assert read_attribute_table(text)["parcel_id"].tolist() == ["a", "b", "c,d"]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "-NaN", "1e999"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_non_finite_field_reports_line(self, token, column):
        fields = ["d", "100000", "5000", "5000", "8"]
        fields[column] = token
        # blank lines before the bad row still count
        bad = self.GOOD + "\nc,1,2,3,4\n\n\n" + ",".join(fields) + "\ne,1,2,3,4\n"
        with pytest.raises(ParseError) as exc:
            read_attribute_table(bad)
        assert str(exc.value) == f"line 8: non-finite field in {fields!r}"

    def test_first_non_finite_row_is_reported(self):
        bad = self.GOOD + '"x,y",nan,1,1,1\n' + "z,1,inf,1,1\n"
        with pytest.raises(ParseError, match=r"line 4: non-finite field in \['x,y', 'nan'"):
            read_attribute_table(bad)

    def test_infinite_assessment_rejected(self):
        text = (self.GOOD.split("\n")[0] + "\n"
                "a,100000,5000,5000,8\nb,200000,5000,4000,8\nc,inf,5000,3000,8\n")
        with pytest.raises(ParseError, match="line 4: non-finite field"):
            read_attribute_table(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            read_attribute_table("id,value\n1,2\n")

    def test_non_numeric_field_reports_line(self):
        bad = self.GOOD + "c,lots,1,1,1\n"
        with pytest.raises(ParseError, match="line 4"):
            read_attribute_table(bad)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            read_attribute_table(
                "parcel_id,current_assessment,land_area,shape_area,base_flood\na,1,2\n")


HEADER_LINE = ",".join(TABLE_HEADER) + "\n"
LONG_ID_CHARS = 140_000  # over csv.field_size_limit()'s default of 131072


def table_outcome(text):
    """read_attribute_table's result, its columns bit for bit, or its error."""
    try:
        t = read_attribute_table(text)
    except (ParseError, csv.Error) as exc:
        return type(exc), str(exc)
    assert t.dtype == TABLE_DTYPE and t.ndim == 1
    assert all(type(pid) is str for pid in t["parcel_id"])
    return t["parcel_id"].tolist(), [t[name].tobytes() for name in TABLE_HEADER[1:]]


def row_loop_outcome(text):
    """table_outcome with numpy's reader refusing every body, so the row loop reads it."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", refuse)
        return table_outcome(text)


@pytest.fixture
def row_loop_calls(monkeypatch):
    """How many times read_attribute_table fell back to the row loop."""
    calls = []
    read_rows = eda._read_rows

    def spy(reader):
        calls.append(1)
        return read_rows(reader)

    monkeypatch.setattr(eda, "_read_rows", spy)
    return calls


# body after the header, whether numpy's reader reads it (no row loop)
EDGE_TABLES = {
    "quoted comma": ('"lot 4, block 2",1,2,3,4\n', True),
    "quoted quote": ('"say ""hi""",1,2,3,4\n', True),
    "quoted newline": ('"a\nb",1,2,3,4\nc,1,2,3,inf\n', False),
    "hash in id": ("a#b,1,2,3,4\n", True),
    "underscore digits": ("a,1_000,2,3,4\n", False),
    "arabic digits": ("a,\u0661\u0662,2,3,4\n", False),
    "full-width digits": ("a,\uff11,2,3,4\n", False),
    "padded fields": (" a , 1 ,\t2\t,3 ,4 \n", True),
    "no-break space padding": ("a,\xa01\xa0,2,3,4\n", True),
    "whitespace-only line": ("a,1,2,3,4\n  \nb,1,2,3,4\n", False),
    "crlf": ("a,1,2,3,4\r\n\r\nb,1,2,3,4\r\n", True),
    "no final newline": ("a,1,2,3,4\nb,1,2,3,4", True),
    "empty id": (",1,2,3,4\n", True),
    "empty field": ("a,,2,3,4\n", False),
    "four fields": ("a,1,2,3\n", False),
    "six fields": ("a,1,2,3,4,5\n", False),
    "hex": ("a,0x10,2,3,4\n", False),
    "nan": ("a,1,2,3,4\n\nb,nan,2,3,4\n", False),
    "1e400": ("a,1e400,2,3,4\n", False),
    "infinity": ("a,1,-Infinity,3,4\n", False),
    "nul in id": ("a\x00,1,2,3,4\n", True),
    "nul in number": ("a,1\x00,2,3,4\n", False),
    "header only": ("", False),
    "line breaks only": ("\n\r\n\n", False),
    "separator padding": ("a,\x1c1,2,3,4\n", False),
    "separator in id": ("\x1fa,1,2,3,4\n", False),
    "quoted number": ('a,"1",2,3,4\n', True),
    "quote inside id": ('a"b,1,2,3,4\n', True),
    "text after closing quote": ('"a"b,1,2,3,4\n', True),
    "unterminated quote": ('"a,1,2,3,4\n', False),
    "signed zero and subnormals": ("a,-0,1e-320,5e-324,4\n", True),
}


class TestReaderOracle:
    """numpy's C reader against the row loop it replaced, which stays the reference."""

    @pytest.mark.parametrize("name", EDGE_TABLES)
    def test_edge_tables(self, name, row_loop_calls):
        body, fast = EDGE_TABLES[name]
        text = HEADER_LINE + body
        expected = row_loop_outcome(text)
        row_loop_calls.clear()
        assert table_outcome(text) == expected
        assert row_loop_calls == ([] if fast else [1])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        pid = st.text(st.sampled_from(list('ab #,"\n\r1.\t\x00\x1d\xa0\u0661')), max_size=6)
        number = st.one_of(
            st.floats(width=64).map(repr),
            st.integers(-10 ** 20, 10 ** 20).map(str),
            st.sampled_from([" 7.5 ", "1_000", "\u0661", "nan", "-inf", "1e400", "", "0x10",
                             "-0", '"1"', ' "1"', "1e-320", "\xa02", "\x1d3", "5.", ".5",
                             "1E5", "+1", "inf ", "'1'", "1 2", "\t4\t"]),
        )
        rows = []
        for _ in range(data.draw(st.integers(0, 6))):
            fields = [data.draw(pid)] + data.draw(st.lists(number, min_size=3, max_size=5))
            if data.draw(st.booleans()):
                fields[0] = '"' + fields[0].replace('"', '""') + '"'
            rows.append(",".join(fields))
            rows += [""] * data.draw(st.integers(0, 1))
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = HEADER_LINE + end.join(rows) + data.draw(st.sampled_from(["", end]))
        assert table_outcome(text) == row_loop_outcome(text)

    def test_benchmark_shaped_table_skips_the_row_loop(self, row_loop_calls):
        rng = np.random.default_rng(3)
        columns = np.round(np.exp(rng.normal(9.0, 2.0, (4, 500))), 1).tolist()
        text = HEADER_LINE + "".join(f"r{k:06d},{a!r},{b!r},{c!r},{d!r}\n"
                                     for k, (a, b, c, d) in enumerate(zip(*columns)))
        assert table_outcome(text) == row_loop_outcome(text)
        row_loop_calls.clear()
        assert len(read_attribute_table(text)) == 500
        assert row_loop_calls == []
        # one spelling only float() reads sends the whole body to the row loop
        read_attribute_table(text.replace("r000007,", "r000007,1_0", 1))
        assert row_loop_calls == [1]


    @pytest.mark.parametrize("number, row_loop", [("1", False), ("1_000", True)])
    def test_id_longer_than_the_csv_field_limit(self, row_loop_calls, number, row_loop):
        limit = csv.field_size_limit()
        assert limit < LONG_ID_CHARS
        text = HEADER_LINE + "a,1,2,3,4\n" + "x" * LONG_ID_CHARS + f",{number},2,3,4\n"
        expected = row_loop_outcome(text)
        row_loop_calls.clear()
        assert table_outcome(text) == expected
        assert row_loop_calls == ([1] if row_loop else [])
        assert expected[0] == ["a", "x" * LONG_ID_CHARS]  # both readers accept it
        assert csv.field_size_limit() == limit

    # a bare \r ends a line, so the rest of the id starts a row of its own
    @pytest.mark.parametrize("body, message", [
        ("a\rb,1,2,3,4\n", "line 2: expected 5 fields, got 1"),
        ("a,1,2,3,4\r\nb\r,1,2,3,4\r\n", "line 3: expected 5 fields, got 1"),
        ("x" * LONG_ID_CHARS + ",1" + "0" * LONG_ID_CHARS + ",2,3,4\n", "line 2: non-finite field"),
    ], ids=["cr in id", "cr after a crlf row", "long id and number"])
    def test_what_csv_refuses_is_a_parse_error_naming_the_line(self, body, message):
        text = HEADER_LINE + body
        expected = row_loop_outcome(text)
        assert table_outcome(text) == expected
        assert expected[0] is ParseError and expected[1].startswith(message)


    # a record ends on the line after each line break quoted in it
    @pytest.mark.parametrize("body, message", [
        ('"a\nb",1,2,3,4\nc,x,2,3,4\n', "line 4: non-numeric field in ['c', 'x', '2', '3', '4']"),
        ('"a\nb",1,2,3,4\n\nc,1,2,3\n', "line 5: expected 5 fields, got 4"),
        ('"a\r\nb",1,2,3,4\nc,1,2,3,nan\n',
         "line 4: non-finite field in ['c', '1', '2', '3', 'nan']"),
        ('"a\n\nb",1,2,3,inf\n', "line 4: non-finite field in ['a\\n\\nb', '1', '2', '3', 'inf']"),
    ])
    def test_error_names_the_physical_line_the_record_ends_on(self, body, message):
        text = HEADER_LINE + body
        assert table_outcome(text) == row_loop_outcome(text) == (ParseError, message)

    @pytest.mark.parametrize("name", [name for name in EDGE_TABLES if name != "quoted newline"])
    def test_bare_cr_line_ends_read_as_lf(self, name):
        text = (HEADER_LINE + EDGE_TABLES[name][0]).replace("\r\n", "\n")
        twin = text.replace("\n", "\r")
        assert table_outcome(twin) == row_loop_outcome(twin) == table_outcome(text)


class TestRunEda:
    def make_records(self):
        """20 records, 5 of which fail the filters in known ways."""
        rng = np.random.default_rng(89)
        records = []
        for k in range(15):
            shape = float(rng.uniform(2_000, 8_000))
            records.append(record(f"good{k:02d}", assessment=float(rng.uniform(50_000, 500_000)),
                                  land=float(rng.uniform(2_000, 8_000)), shape=shape))
        records.append(record("cheap", assessment=5_000.0))
        records.append(record("lowprice", assessment=20_000.0, land=1_000_000.0))
        records.append(record("dry", bfe=0.0))
        records.append(record("noshape", shape=0.0))
        records.append(record("cheap2", assessment=10_000.0))
        return table(*records)

    def test_funnel_counts(self):
        report, kept = run_eda(self.make_records())
        assert report.counts["input"] == 20
        assert report.counts["min_assessment"] == 18
        assert report.counts["min_price_per_sqft"] == 17
        assert report.counts["positive_base_flood"] == 16
        assert report.counts["positive_area_cost"] == 15
        assert report.counts["outlier_removal"] == len(kept)
        assert 0.0 <= report.r_squared <= 1.0
        assert report.bp_statistic >= 0.0

    def test_too_few_survivors(self):
        with pytest.raises(ValueError, match="regression impossible"):
            run_eda(np.repeat(record("cheap", assessment=1.0), 10))

    def test_overflowing_area_cost_names_parcel(self):
        records = table(self.make_records(), record("huge", shape=1e308, land=1e-10))
        with pytest.raises(OverflowError, match="parcel 'huge'"):
            run_eda(records)

    def test_report_json_shape(self):
        report, _ = run_eda(self.make_records())
        doc = json.loads(report.to_json())
        assert set(doc) == {"counts", "slope", "intercept", "r_squared",
                            "bp_statistic", "heteroskedastic"}
        assert isinstance(doc["heteroskedastic"], bool)


Record = namedtuple("Record", TABLE_HEADER)


def per_record_eda(text):
    """The per-record pipeline the columnar one replaced, kept as the oracle.

    Plain float fields, one list comprehension per funnel stage, the area
    cost computed record by record, and the report and scatter rendered row
    by row. Returns (counts, report JSON, scatter CSV).
    """
    rows = list(csv.reader(io.StringIO(text)))[1:]
    rs = [Record(row[0], *map(float, row[1:])) for row in rows if row]

    def cost(r):
        return r.shape_area / r.land_area * r.current_assessment

    counts = {"input": len(rs)}
    rs = [r for r in rs if r.current_assessment > 10_000]
    counts["min_assessment"] = len(rs)
    rs = [r for r in rs if r.land_area > 0 and r.current_assessment / r.land_area > 1]
    counts["min_price_per_sqft"] = len(rs)
    rs = [r for r in rs if r.base_flood > 0]
    counts["positive_base_flood"] = len(rs)
    rs = [r for r in rs if cost(r) > 0]
    counts["positive_area_cost"] = len(rs)
    if len(rs) >= 4:
        bad = (tukey_outlier_mask(np.array([cost(r) for r in rs]))
               | tukey_outlier_mask(np.array([r.shape_area for r in rs])))
        rs = [r for r, flagged in zip(rs, bad) if not flagged]
    counts["outlier_removal"] = len(rs)

    x = np.array([r.shape_area for r in rs])
    y = np.array([cost(r) for r in rs])
    slope, intercept, r2 = ols_fit(x, y)
    lm, het = breusch_pagan(x, y)
    report = json.dumps({
        "counts": counts,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r2,
        "bp_statistic": lm,
        "heteroskedastic": het,
    }, indent=2) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["parcel_id", "shape_area", "area_cost"])
    for r in rs:
        writer.writerow([r.parcel_id, format_number(r.shape_area), format_number(cost(r))])
    return counts, report, buf.getvalue()


def random_attribute_csv(rng, n):
    """Attribute CSV with exact filter ties, awkward ids and blank lines."""
    assessment = np.round(np.exp(rng.normal(11.5, 1.2, n)), 2)
    land = np.round(np.exp(rng.normal(9.0, 0.8, n)), 1)  # heavy tail: shape-area outliers
    shape = np.round(land * rng.uniform(0.7, 1.3, n), 1)
    flood = np.where(rng.random(n) < 0.8, np.round(rng.uniform(1, 12, n), 1), 0.0)
    pick = rng.random((6, n)) < 0.04
    assessment[pick[0]] = 10_000.0
    land[pick[1]] = assessment[pick[1]]  # exactly $1 per sqft
    land[pick[2]] = 0.0
    shape[pick[3]] = 0.0
    flood[pick[4]] = 0.0
    land[pick[5]] = -land[pick[5]]
    ids = [f"p{k}" if k % 7 else f"p{k}, lot {k % 3}" for k in range(n)]
    ids[2::11] = [f" p{k} " for k in range(2, n, 11)]
    ids[1] = 'say "a,b"'
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for k, row in enumerate(zip(ids, assessment.tolist(), land.tolist(),
                                shape.tolist(), flood.tolist())):
        if rng.random() < 0.03:
            buf.write("\n")
        writer.writerow([row[0], *map(repr, row[1:])])
    return buf.getvalue()


class TestPerRecordReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_match_per_record_pipeline(self, seed):
        text = random_attribute_csv(np.random.default_rng(9000 + seed), 400)
        assert '"p7, lot 1"' in text and "\n\n" in text

        ref_counts, ref_report, ref_scatter = per_record_eda(text)
        report, kept = run_eda(read_attribute_table(text))
        assert report.counts == ref_counts
        assert report.to_json() == ref_report
        assert scatter_export(kept) == ref_scatter
        # the ties sit on the failing side of every strict filter
        assert ref_counts["min_assessment"] < ref_counts["input"]
        assert ref_counts["outlier_removal"] >= 3
