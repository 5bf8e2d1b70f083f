"""Scan serialization: round-trips, precision, byte identity with the
row-by-row reference writers, reader strictness, plot-script emission."""

import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import scan_io, stability
from powergeom.cli import main
from powergeom.errors import SchemaMismatch
from powergeom.geometry import CLASS_LABELS, geometry_report
from powergeom.models import FlowKind, PowerModel
from powergeom.scan_io import (
    BLOCK_ROWS,
    FORMAT_TAG,
    SCAN_COLUMNS,
    ScanRow,
    ScanTable,
    diagonal_table,
    emit_plot_script,
    format_float,
    grid_table,
    read_scan,
    render_csv,
    render_json,
    write_table,
)
from powergeom.stability import (Scan, ScanSpec, axis_samples,
                                  scan_diagonal, scan_grid)

IMAG = PowerModel(FlowKind.IMAGINARY)


def text(render, table):
    """The whole file text of a block renderer."""
    return "".join(render(table))


def rows_equal(a, b):
    for ra, rb in zip(a, b):
        ta, tb = tuple(ra), tuple(rb)
        for fa, fb in zip(ta[:-1], tb[:-1]):
            if math.isnan(fa) and math.isnan(fb):
                continue
            if fa != fb:
                return False
        if ta[-1] != tb[-1]:
            return False
    return len(a) == len(b)


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        for x in (math.pi, -1.55, 1e-300, 3.0, 0.1, 2.0 / 3.0,
                  -4.9406564584124654e-324):
            assert float(format_float(x)) == x

    def test_nan_renders_as_nan(self):
        assert format_float(math.nan) == "nan"
        assert math.isnan(float("nan"))


class TestCsvRoundTrip:
    def test_grid_csv(self, tmp_path):
        scan = scan_grid(IMAG, (-1.2, 1.2), n=9)
        table = grid_table(scan)
        path = tmp_path / "scan.csv"
        write_table(table, str(path), "csv")
        back = read_scan(str(path))
        assert back.metadata == table.metadata
        assert rows_equal(back.rows, table.rows)

    def test_diagonal_csv_with_nan_curvature(self, tmp_path):
        model = PowerModel(FlowKind.REAL)
        table = diagonal_table(scan_diagonal(model, (-1.0, 1.0), n=11))
        assert any(math.isnan(r.curvature) for r in table.rows)
        path = tmp_path / "diag.csv"
        write_table(table, str(path), "csv")
        back = read_scan(str(path))
        assert rows_equal(back.rows, table.rows)
        assert back.metadata["command"] == "diagonal"

    def test_json_round_trip(self, tmp_path):
        model = PowerModel(FlowKind.REAL)
        table = diagonal_table(scan_diagonal(model, (-1.0, 1.0), n=7))
        path = tmp_path / "diag.json"
        write_table(table, str(path), "json")
        back = read_scan(str(path))
        assert back.metadata == table.metadata
        assert rows_equal(back.rows, table.rows)

    def test_rows_are_tuples_in_column_order(self, tmp_path):
        tables = [grid_table(scan_grid(IMAG, (-1.2, 1.2), n=5)),
                  diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=7))]
        for fmt in ("csv", "json"):
            path = tmp_path / f"scan.{fmt}"
            write_table(tables[0], str(path), fmt)
            tables.append(read_scan(str(path)))
        for table in tables:
            for row in table.rows:
                assert isinstance(row, tuple)
                assert row == (row.a1, row.a2, row.value, row.g11, row.g12,
                               row.g22, row.det, row.curvature, row.label)

    def test_render_deterministic(self):
        scan = scan_grid(IMAG, (-0.7, 0.7), n=5)
        for render in (render_csv, render_json):
            assert (text(render, grid_table(scan))
                    == text(render, grid_table(scan)))

    def test_schema_mismatch_on_foreign_csv(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(SchemaMismatch):
            read_scan(str(path))

    def test_metadata_echoes_resolved_config(self, tmp_path):
        scan = scan_grid(PowerModel(FlowKind.COMPLEX, v=2.0, r0=0.5),
                         (-1.0, 1.0), (-0.5, 0.5), n=4)
        meta = grid_table(scan).metadata
        assert meta["model"] == "complex"
        assert float(meta["v"]) == 2.0
        assert float(meta["r0"]) == 0.5
        assert float(meta["a2_min"]) == -0.5
        assert meta["n"] == "4"
        assert meta["unit"] == "rad"


def _row_bits(row):
    return ([float(x).hex() for x in (row.a1, row.a2, row.value, row.g11,
                                      row.g12, row.g22, row.det,
                                      row.curvature)], row.label)


def _report_bits(rep):
    return ([float(x).hex() for x in (*rep.point, rep.value, rep.metric.g11,
                                      rep.metric.g12, rep.metric.g22,
                                      rep.det, rep.curvature)],
            rep.classification.label)


class TestRowsMatchSinglePoints:
    """Scan rows come from the column path, reports from one point at a
    time; both must give the same bits and the same class everywhere."""

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_grid_rows(self, kind):
        model = PowerModel(kind, v=1.3, r0=0.7)
        table = grid_table(scan_grid(model, n=33))
        assert len(table.rows) == 33 * 33
        for row in table.rows:
            rep = geometry_report(model, (row.a1, row.a2))
            assert _row_bits(row) == _report_bits(rep), (row.a1, row.a2)

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_diagonal_rows(self, kind):
        model = PowerModel(kind, v=1.3, r0=0.7)
        table = diagonal_table(scan_diagonal(model, n=65))
        assert len(table.rows) == 65
        for row in table.rows:
            rep = geometry_report(model, (row.a1, row.a2))
            assert _row_bits(row) == _report_bits(rep), row.a1


def reference_csv(table):
    """The row-by-row CSV writer the column-wise one must match."""
    out = io.StringIO()
    for key, value in table.metadata.items():
        out.write(f"# {key}={value}\n")
    out.write(",".join(SCAN_COLUMNS) + "\n")
    for r in table.rows:
        out.write(",".join((
            format_float(r.a1), format_float(r.a2), format_float(r.value),
            format_float(r.g11), format_float(r.g12), format_float(r.g22),
            format_float(r.det), format_float(r.curvature), r.label)) + "\n")
    return out.getvalue()


def reference_json(table):
    """The per-record dict JSON writer the column-wise one must match."""
    records = [{
        "a1": r.a1, "a2": r.a2, "value": r.value,
        "g11": r.g11, "g12": r.g12, "g22": r.g22, "det": r.det,
        "curvature": None if math.isnan(r.curvature) else r.curvature,
        "class": r.label,
    } for r in table.rows]
    return json.dumps({"metadata": table.metadata, "records": records},
                      indent=1) + "\n"


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308,
                sys.float_info.max, -sys.float_info.max, 1e16, 1e-5, 0.1)
_doubles = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# Unicode, quotes, backslashes, control characters, ", " and "%".
_text = st.one_of(
    st.sampled_from(("", "a, b", '"', "\\", "\n", "\x00\x1f\x7f", "%s",
                     "\u00e9\u2028\U0001f600", "NaN")),
    st.text())


@st.composite
def _scan_tables(draw, extra_metadata=st.just({})):
    """Tables of grids and diagonals of 2 to 12 points per axis, made by
    ``grid_table`` and ``diagonal_table``, with any doubles where a scan
    file has no redundancy: value, g11, g12, g22 and curvature. a1 and a2
    are the axis samples of the bounds, det is g11*g22 - g12*g12, and the
    labels are any classes. ``extra_metadata`` adds keys after the scan's."""
    n, grid = draw(st.integers(2, 12)), draw(st.booleans())
    bounds = [tuple(sorted(draw(st.lists(st.floats(-1.5, 1.5), min_size=2,
                                         max_size=2, unique=True))))
              for _ in range(1 + grid)]
    axes = [axis_samples(b, n) for b in bounds]
    size = n * n if grid else n
    value, g11, g12, g22, curvature = (
        np.array(draw(st.lists(_doubles, min_size=size, max_size=size)))
        for _ in range(5))
    with np.errstate(over="ignore", invalid="ignore"):
        det = g11 * g22 - g12 * g12
    columns = {
        "a1": np.tile(axes[0], n) if grid else axes[0],
        "a2": np.repeat(axes[1], n) if grid else axes[0],
        "value": value, "g11": g11, "g12": g12, "g22": g22, "det": det,
        "curvature": curvature,
        "codes": np.array(draw(st.lists(
            st.integers(0, len(CLASS_LABELS) - 1), min_size=size,
            max_size=size)), np.int8)}
    model = PowerModel(draw(st.sampled_from(list(FlowKind))))
    spec = ScanSpec(model, "scan" if grid else "diagonal", bounds[0],
                    bounds[-1], n)
    table = (grid_table if grid else diagonal_table)(Scan(spec, columns))
    for key, text in draw(extra_metadata).items():
        table.metadata.setdefault(key, text)
    return table


class TestByteIdentity:
    """The column-wise writers give the bytes of the row-by-row ones."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_scan_tables(st.dictionaries(_text, _text, max_size=4)))
    def test_arbitrary_tables(self, table):
        assert text(render_csv, table) == reference_csv(table)
        assert text(render_json, table) == reference_json(table)

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_scans(self, kind):
        model = PowerModel(kind, v=1.3, r0=0.7)
        for table in (grid_table(scan_grid(model, (-1.2, 0.9), (-0.4, 1.4),
                                           n=17)),
                      diagonal_table(scan_diagonal(model, n=33))):
            assert text(render_csv, table) == reference_csv(table)
            assert text(render_json, table) == reference_json(table)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_doubles, min_size=1, max_size=40))
    def test_float_text_round_trips_bits(self, column):
        """Each double's CSV and JSON text reads back with its bits; a nan
        reads back as a nan, and as null from curvature's JSON text."""
        def bits(xs):
            return ["nan" if math.isnan(x) else float(x).hex() for x in xs]
        want = bits(column)
        csv, floats, nulls = (scan_io._texts(column, style) for style in (
            scan_io._CSV, scan_io._JSON, scan_io._JSON_NULL))
        assert bits(map(float, csv)) == want
        assert bits(map(json.loads, floats)) == want
        nulls = list(map(json.loads, nulls))
        assert [x is None for x in nulls] == list(map(math.isnan, column))
        assert bits(x for x in nulls if x is not None) == [
            b for b in want if b != "nan"]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip_bits(self, tmp_path_factory, data):
        """``read_scan`` of a written grid or diagonal has the metadata and,
        bit for bit, the columns of the scan."""
        draw = data.draw
        model = PowerModel(draw(st.sampled_from(list(FlowKind))),
                           draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
        bounds = tuple(sorted(draw(st.lists(st.floats(-1.5, 1.5), min_size=2,
                                            max_size=2, unique=True))))
        n = draw(st.integers(2, 12))
        if draw(st.booleans()):
            bounds2 = tuple(sorted(draw(st.lists(
                st.floats(-1.5, 1.5), min_size=2, max_size=2, unique=True))))
            scan = scan_grid(model, bounds, bounds2, n)
            table = grid_table(scan)
        else:
            scan = scan_diagonal(model, bounds, n)
            table = diagonal_table(scan)
        folder = tmp_path_factory.mktemp("round-trip")
        for fmt in ("csv", "json"):
            path = str(folder / f"t.{fmt}")
            write_table(table, path, fmt)
            back = read_scan(path)
            assert back.metadata == table.metadata
            columns = back.rows.columns
            assert columns.keys() == scan.columns.keys()
            for name, column in scan.columns.items():
                assert columns[name].dtype == column.dtype
                assert columns[name].tobytes() == column.tobytes(), name


each_format = pytest.mark.parametrize("fmt", ["csv", "json"])
FORMATS = (("csv", render_csv, reference_csv),
           ("json", render_json, reference_json))


def _doubles_from_bits(bits):
    return np.asarray(bits, np.uint64).view(np.float64)


class TestCsvFloatKernel:
    """The CSV writer's float text is ``'%.17g' % x`` for every double: on
    its integer path (normal doubles of decimal exponent -11 to 16) and on
    the padded template it takes for every other value."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, np.float64)
        for start in range(0, len(values), 1 << 16):
            chunk = values[start:start + (1 << 16)].tolist()
            got = scan_io._texts(chunk, scan_io._CSV)
            want = ("%.17g," * len(chunk) % tuple(chunk)).split(",")[:-1]
            if got != want:
                bad = [(x.hex(), g, w) for x, g, w in zip(chunk, got, want)
                       if g != w]
                raise AssertionError(
                    f"numpy {np.__version__}: {len(bad)} of {len(chunk)} "
                    f"differ (hex, got, want): {bad[:5]}")

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261020)
        self._check(_doubles_from_bits(
            rng.integers(0, 1 << 64, 1_000_000, dtype=np.uint64)))

    def test_doubles_of_the_fast_range(self):
        rng = np.random.default_rng(28)
        size = 300_000
        sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(986, 1080, size, dtype=np.uint64)
        mantissa = rng.integers(0, 1 << 52, size, dtype=np.uint64)
        self._check(_doubles_from_bits(
            sign | exponent << np.uint64(52) | mantissa))

    def test_powers_of_ten_within_three_ulps(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        bits = tens.view(np.int64)[:, None] + np.arange(-3, 4)
        positive = bits[bits >= 0].astype(np.uint64)
        self._check(_doubles_from_bits(
            np.concatenate([positive, positive | np.uint64(1 << 63)])))

    def test_exact_ties(self):
        """x = o/2**(s+1) with o odd and o*5**s/2 a 17-digit number plus
        one half: the 17th digit is a tie, which rounds to even."""
        rng = np.random.default_rng(5)
        ties = []
        for s in range(1, 28):
            lo = -(-2 * 10 ** 16 // 5 ** s) | 1
            hi = min(2 * 10 ** 17 // 5 ** s, 1 << 53)
            if lo < hi:
                odd = rng.integers(lo // 2, (hi + 1) // 2, 2000) * 2 + 1
                ties += [o / 2 ** (s + 1) for o in odd.tolist() if o < hi]
        assert len(ties) > 40_000
        assert all(math.fmod(x * 2 ** 60, 1) == 0 for x in ties)  # exact
        self._check(ties + [-x for x in ties])

    def test_just_below_powers_of_ten(self):
        """The double nearest each power of ten and the four below it.
        Where one of them rounds up to the power in 17 digits it lies
        outside the integer path, which has no such carry."""
        values = []
        for k in range(-322, 309):
            values.append(float(f"1e{k}"))
            for _ in range(4):
                values.append(math.nextafter(values[-1], 0.0))
        self._check(values + [-x for x in values])
        carries = [x for x in values if Decimal(x) < Decimal("%.17g" % x)
                   and Decimal("%.17g" % x).normalize().as_tuple().digits
                   == (1,)]
        assert carries
        assert not [x for x in carries if 1e-11 <= x < 1e17]

    def test_neighbours_of_the_range_edges(self):
        edges = np.array([1e-11, 1e-5, 1e-4, 1e16, 1e17, 2.0 ** -37,
                          2.0 ** 57])
        bits = edges.view(np.int64)[:, None] + np.arange(-50, 51)
        values = _doubles_from_bits(bits.ravel().astype(np.uint64))
        self._check(np.concatenate([values, -values]))

    def test_special_values(self):
        self._check([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, sys.float_info.max,
                     -sys.float_info.max, 1.0, -1.0, 0.1, 1e-11, 1e16])


def _significant_digits(text):
    digits = text.lstrip("-").partition("e")[0].replace(".", "")
    return len(digits.strip("0"))


def _neighbours_read_back(x, n):
    """Whether the n-digit decimals either side of x read back as x."""
    return [float(Context(prec=n, rounding=rounding).plus(Decimal(x))) == x
            for rounding in (ROUND_FLOOR, ROUND_CEILING)]


class TestJsonFloatKernel:
    """The JSON writer's float text is the C encoder's for every double,
    ``json.dumps([x])[1:-1]``: ``repr`` on the integer path, where exact
    tests of x's 16-, 15- and 14-digit neighbours give its digits, and on
    the padded template for every value the path leaves to ``repr``."""

    @staticmethod
    def _check(values):
        """The kernel's JSON text of ``values``, checked against the
        encoder's, and which of them took the integer path."""
        values = np.asarray(values, np.float64)
        got = scan_io._texts(values, scan_io._JSON)
        # No float text holds ", ", so this is json.dumps([x])[1:-1] per x.
        want = json.dumps(values.tolist())[1:-1].split(", ")
        if got != want:
            bad = [(x.hex(), g, w) for x, g, w in zip(values.tolist(), got,
                                                       want) if g != w]
            raise AssertionError(
                f"numpy {np.__version__}: {len(bad)} of {len(got)} differ "
                f"(hex, got, want): {bad[:5]}")
        fast = np.concatenate([
            scan_io._decimal(values[at:at + BLOCK_ROWS], True)[0]
            for at in range(0, len(values), BLOCK_ROWS)])
        return got, fast

    @staticmethod
    def _near(centres, ulps):
        bits = (np.asarray(centres, np.float64).view(np.int64)[:, None]
                + np.arange(-ulps, ulps + 1))
        values = _doubles_from_bits(bits[bits >= 0].astype(np.uint64))
        return np.concatenate([values, -values])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261021)
        self._check(_doubles_from_bits(
            rng.integers(0, 1 << 64, 200_000, dtype=np.uint64)))

    def test_doubles_of_the_fast_range(self):
        rng = np.random.default_rng(32)
        size = 200_000
        sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(986, 1080, size, dtype=np.uint64)
        mantissa = rng.integers(0, 1 << 52, size, dtype=np.uint64)
        texts, fast = self._check(_doubles_from_bits(
            sign | exponent << np.uint64(52) | mantissa))
        assert fast.mean() > 0.95
        # 17 digits stand, or the 16- or the 15-digit neighbour is taken.
        assert set(map(_significant_digits, itertools.compress(
            texts, fast))) == {15, 16, 17}

    def test_powers_of_ten_within_three_ulps(self):
        self._check(self._near([float(f"1e{k}") for k in range(-323, 309)],
                               3))

    def test_powers_of_two_within_three_ulps(self):
        """Below 2**k the interval reaches half as far as above it: some
        16-digit neighbours below lie within half a gap of 2**k and still
        do not read back as it."""
        twos = [2.0 ** k for k in range(-1074, 1024)]
        _, fast = self._check(self._near(twos, 3))
        asymmetric = []
        for x in itertools.compress(twos, fast[3:len(twos) * 7:7]):
            below = Context(prec=16, rounding=ROUND_FLOOR).plus(Decimal(x))
            half = (Fraction(math.nextafter(x, math.inf)) - Fraction(x)) / 2
            if Fraction(x) - Fraction(below) <= half and float(below) != x:
                asymmetric.append(x)
        assert asymmetric

    def test_layout_switches(self):
        """repr writes e-notation below 1e-4 and from 1e16; the path ends
        at 1e-11 and 1e17."""
        self._check(self._near([1e-11, 1e-4, 1e15, 1e16, 1e17, 2.0 ** -37,
                                2.0 ** 57], 200))

    def test_carries_to_the_next_power_of_ten(self):
        """The double nearest 10**k lies below it for some k, and its
        shortest text, ``1e-06`` and the like, has E one above D's. Its
        14-digit neighbour above reads back, so ``repr`` writes it."""
        values = self._near([float(f"1e{k}") for k in range(-11, 17)], 3)
        texts, fast = self._check(values)
        carried = [abs(Decimal(x)) < abs(Decimal(text))
                   and _significant_digits(text) == 1
                   for x, text in zip(values.tolist(), texts)]
        assert any(carried) and not any(fast[carried])

    def test_integral_values(self):
        """Integral values in fixed-point form end in ``.0``."""
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.integers(10 ** 14, 2 ** 53, 50_000).astype(np.float64),
            rng.integers(-10 ** 6, 10 ** 6, 10_000).astype(np.float64),
            np.arange(2.0 ** 53 - 64, 2.0 ** 53 + 64, 2.0)])
        texts, fast = self._check(values)
        on_path = list(itertools.compress(texts, fast))
        assert on_path and all(text.endswith(".0") for text in on_path)

    def test_short_texts_leave_the_path(self):
        """A double whose repr has 14 digits or fewer is written by
        ``repr``; the path's tests would pick a 15-digit neighbour."""
        rng = np.random.default_rng(14)
        values = [float(f"{x:.{n}g}") for x, n in zip(
            rng.uniform(-100, 100, 50_000).tolist(),
            rng.integers(1, 15, 50_000).tolist())]
        texts, fast = self._check(values)
        short = [_significant_digits(text) <= 14 for text in texts]
        assert sum(short) > 40_000
        assert not any(fast[short])

    def test_both_neighbours_inside(self):
        """Where both 16-digit neighbours read back, the closer is
        taken, and where they are equally close ``repr`` decides."""
        rng = np.random.default_rng(16)
        values = rng.uniform(8, 10, 4000)
        ties = [562949953421312.25, 562949953421312.75, -562949953421313.25]
        texts, fast = self._check(np.concatenate([values, ties]))
        both = [x for x, text, on in zip(values.tolist(), texts, fast)
                if on and _significant_digits(text) == 16
                and all(_neighbours_read_back(x, 16))]
        assert len(both) > 100
        assert not fast[-3:].any()

    def test_special_values(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  5e-324, -5e-324, 2.2250738585072014e-308,
                  2.225073858507201e-308, sys.float_info.max,
                  -sys.float_info.max, 1.0, -1.0, 0.1, 1e-11, 1e16]
        self._check(values)
        assert scan_io._texts(values[2:6], scan_io._JSON_NULL) == [
            "Infinity", "-Infinity", "null", "null"]


def _assert_same_text(got, want):
    """``got == want``, failing with the first character that differs:
    pytest's own diff of two scan files' text runs for minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        raise AssertionError(
            f"character {at} of {len(got)} (want {len(want)}) differs: "
            f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def _assert_read_back(table, path, fmt="csv"):
    write_table(table, str(path), fmt)
    back = read_scan(str(path))
    for name, column in table.rows.columns.items():
        assert back.rows.columns[name].tobytes() == column.tobytes(), name


class TestFastPathExit:
    """Values the kernel's integer path does not hold render through the
    padded template, alone and mixed with the others in one block, and
    read back bit for bit, in both formats."""

    @staticmethod
    def _on_fast_path(column, fmt):
        return scan_io._decimal(np.ascontiguousarray(column),
                                fmt == "json")[0]

    @pytest.mark.parametrize("fmt, render, reference", FORMATS)
    @pytest.mark.parametrize("v", [1e-20, 1e20])  # k = 1e-40 and 1e40
    def test_scales_with_no_value_on_the_fast_path(self, tmp_path, v, fmt,
                                                   render, reference):
        table = grid_table(scan_grid(PowerModel(FlowKind.COMPLEX, v=v),
                                     n=33))
        for name in SCAN_COLUMNS[2:-1]:
            assert not self._on_fast_path(table.rows.columns[name], fmt).any()
        _assert_same_text(text(render, table), reference(table))
        _assert_read_back(table, tmp_path / f"scan.{fmt}", fmt)

    @pytest.mark.parametrize("fmt, render, reference", FORMATS)
    def test_real_diagonal(self, tmp_path, fmt, render, reference):
        table = diagonal_table(scan_diagonal(PowerModel(FlowKind.REAL), n=65))
        columns = table.rows.columns
        assert (columns["det"] == 0.0).all()
        assert np.isnan(columns["curvature"]).all()
        got = text(render, table)
        _assert_same_text(got, reference(table))
        if fmt == "json":
            assert (got.count('"det": 0.0,')
                    == got.count('"curvature": null,') == 65)
        _assert_read_back(table, tmp_path / f"diag.{fmt}", fmt)

    @pytest.mark.parametrize("fmt, render, reference", FORMATS)
    def test_block_of_both_kinds(self, tmp_path, fmt, render, reference):
        table = grid_table(scan_grid(IMAG, (-1.2, 0.9), n=32))
        fast = np.concatenate([
            self._on_fast_path(table.rows.columns[name], fmt)
            for name in SCAN_COLUMNS[2:-1]])
        assert fast.any() and not fast.all()
        _assert_same_text(text(render, table), reference(table))
        _assert_read_back(table, tmp_path / f"scan.{fmt}", fmt)
        values = [0.5, 0.0, math.nan, -1e-300, 2.5e20, -3.25, math.inf,
                  1e-11, 5e-324, 123456789.125, -math.inf]
        columns = dict(table.rows.columns)
        for name in SCAN_COLUMNS[2:-1]:
            columns[name] = np.resize(values, len(columns[name]))
        mixed = grid_table(Scan(table.rows.spec, columns))
        _assert_same_text(text(render, mixed), reference(mixed))

    @pytest.mark.parametrize("fmt, render, reference", FORMATS)
    def test_last_block_of_a_4001_point_diagonal(self, tmp_path, capsys, fmt,
                                                 render, reference):
        assert 4001 % BLOCK_ROWS == 929
        path = tmp_path / f"diag.{fmt}"
        assert main(["diagonal", "--model", "complex", "--n", "4001",
                     "--format", fmt, "--out", str(path)]) == 0
        capsys.readouterr()
        scan = scan_diagonal(PowerModel(FlowKind.COMPLEX), n=4001)
        table = diagonal_table(scan)
        pieces = list(render(table))
        # The last block's records, then the JSON tail.
        last = "".join(pieces[-1 - (fmt == "json"):])
        assert last.count("\n") == 929 * (1 if fmt == "csv" else 11) + (
            fmt == "json") * 3
        want = reference(table)
        _assert_same_text(last, want[-len(last):])
        _assert_same_text(path.read_text(), want)
        back = read_scan(str(path))
        for name, column in scan.columns.items():
            assert back.rows.columns[name].tobytes() == column.tobytes()


class TestBlockJoins:
    """Files rendered and written a block at a time have the bytes of the
    whole-table reference writers at every block join, for tables made
    from a scan's columns and for the tables read back from their files."""

    @staticmethod
    def _same(got, want):
        """``got == want``, or where they part; pytest's own diff of two
        long texts takes minutes."""
        if got == want:
            return
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        raise AssertionError(f"texts part at {at}: {got[at - 80:at + 80]!r}"
                             f" != {want[at - 80:at + 80]!r}")

    def _check(self, table, tmp_path):
        blocks = -(-len(table.rows) // BLOCK_ROWS)
        for fmt, render, reference in FORMATS:
            want = reference(table)
            assert len(list(render(table))) == blocks + 1  # head or tail
            self._same(text(render, table), want)
            path = tmp_path / f"table.{fmt}"
            write_table(table, str(path), fmt)
            written = path.read_bytes().decode("utf-8")
            self._same(written, want)
            if fmt == "json":
                json.loads(written)
            self._same(text(render, read_scan(str(path))), want)

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1])
    def test_diagonal_around_one_block(self, tmp_path, n):
        model = PowerModel(FlowKind.REAL, v=1.3, r0=0.7)  # nan curvature
        self._check(diagonal_table(scan_diagonal(model, (-1.2, 0.9), n=n)),
                    tmp_path)

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_grid_over_three_blocks_and_a_part(self, tmp_path, kind):
        n = math.isqrt(3 * BLOCK_ROWS) + 1
        assert n * n > 3 * BLOCK_ROWS and n * n % BLOCK_ROWS
        scan = scan_grid(PowerModel(kind, v=1.3, r0=0.7), (-1.2, 0.9),
                         (-0.4, 1.4), n=n)
        self._check(grid_table(scan), tmp_path)


class TestScanBackedRows:
    """A table makes its rows from its columns on demand: a scan's table
    and the tables read back from its files alike."""

    @staticmethod
    def _check(rows, scan):
        want = tuple(map(ScanRow, *(scan.columns[name].tolist()
                                    for name in SCAN_COLUMNS[:-1]),
                         map(CLASS_LABELS.__getitem__,
                             scan.columns["codes"].tolist())))
        assert len(rows) == len(want)
        assert tuple(rows) == want
        at = (0, 1023, 1024, -1, -1024, -1025, -len(want))
        assert [rows[i] for i in at] == [want[i] for i in at]
        for span in (slice(1020, 1030), slice(-3, None), slice(None, 5, 2),
                     slice(1030, 1020, -3)):
            assert rows[span] == want[span]
        assert all(type(x) is float for row in rows for x in row[:-1])
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                rows[i]

    def test_len_index_slice_and_iteration(self):
        scan = scan_grid(IMAG, (-1.2, 0.9), n=40)  # 1600 rows, two blocks
        self._check(grid_table(scan).rows, scan)

    @each_format
    def test_read_back_rows(self, tmp_path, monkeypatch, fmt):
        scan = scan_grid(IMAG, (-1.2, 0.9), n=40)
        path = tmp_path / f"scan.{fmt}"
        write_table(grid_table(scan), str(path), fmt)
        with monkeypatch.context() as patch:
            patch.setattr(scan_io, "ScanRow", None)  # a reader makes no row
            rows = read_scan(str(path)).rows
        assert type(rows) is type(grid_table(scan).rows)
        self._check(rows, scan)


class TestFailedWrite:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_truncated_file_is_left(self, tmp_path, monkeypatch, capsys,
                                       fmt):
        blocks = scan_io._blocks

        def second_block_fails(rows, texts):
            pieces = blocks(rows, texts)
            yield next(pieces)
            raise OSError("No space left on device")

        monkeypatch.setattr(scan_io, "_blocks", second_block_fails)
        path = tmp_path / f"scan.{fmt}"
        assert main(["scan", "--model", "imaginary", "--n", "64",
                     "--format", fmt, "--out", str(path)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert not path.exists()

    def test_a_pipe_is_not_removed(self, tmp_path, monkeypatch):
        """Only a regular file is removed: a FIFO that ``--out`` names
        stays when the write fails after its first block."""
        blocks = scan_io._blocks

        def second_block_fails(rows, texts):
            pieces = blocks(rows, texts)
            yield next(pieces)
            raise OSError("No space left on device")

        monkeypatch.setattr(scan_io, "_blocks", second_block_fails)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        read = []

        def drain():
            with open(path, "rb") as fh:
                read.append(len(fh.read()))

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        table = grid_table(scan_grid(IMAG, n=64))
        with pytest.raises(OSError, match="No space left on device"):
            write_table(table, str(path), "csv")
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert read and read[0] > 0
        assert stat.S_ISFIFO(os.lstat(path).st_mode)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_symlink_stays_and_its_target_goes(self, tmp_path, monkeypatch,
                                                 capsys, fmt):
        """Through a symlink to a regular file, a failed write removes the
        file it wrote, the link's target, and keeps the link."""
        blocks = scan_io._blocks

        def second_block_fails(rows, texts):
            pieces = blocks(rows, texts)
            yield next(pieces)
            raise OSError("No space left on device")

        monkeypatch.setattr(scan_io, "_blocks", second_block_fails)
        target, link = tmp_path / f"target.{fmt}", tmp_path / f"link.{fmt}"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["scan", "--model", "imaginary", "--n", "64",
                     "--format", fmt, "--out", str(link)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert sorted(tmp_path.iterdir()) == [link]

    def test_failing_pieces_leave_no_file(self, tmp_path):
        def pieces():
            yield "first piece\n"
            raise RuntimeError("render failed")

        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="render failed"):
            scan_io.write_text(str(path), pieces())
        assert list(tmp_path.iterdir()) == []


def _write_scan(tmp_path, fmt):
    table = grid_table(scan_grid(IMAG, (-1.0, 1.0), n=3))
    path = tmp_path / f"scan.{fmt}"
    write_table(table, str(path), fmt)
    return path


def _write_json(path, data):
    """``data`` in the writers' JSON layout."""
    path.write_text(json.dumps(data, indent=1) + "\n")


def _where(text, at):
    """Where character ``at`` of a writer's scan text lies, found line by
    line: the head, a row (from 1) and column, or after the last row."""
    head, row, start = True, 0, 0
    for line in text.splitlines(keepends=True):
        if head:
            where = "head"
            head = line != ' "records": [\n' and not line.startswith("a1,")
        elif text[:1] == "{":  # "  {", nine '   "name": x' lines, "  }"
            if line.startswith("  {"):
                row, column = row + 1, "a1"
            elif line.startswith('   "'):
                column = line.split('"')[1]
            elif line.startswith("  }"):
                column = "class"
            else:
                column = None
            where = (f"row {row}, column {column}" if column
                     else "after the last row")
        else:
            row += 1
            column = SCAN_COLUMNS[line.count(",", 0, at - start)]
            where = f"row {row}, column {column}"
        if at < start + len(line):
            return where
        start += len(line)
    return "after the last row"


def _differs(path, before, where=None, command="scan"):
    """The reader's message for ``path``, edited from the writer's bytes
    ``before``: the offset of the first byte that differs, and where it
    lies in ``before`` (by :func:`_where` unless given)."""
    after = path.read_bytes()
    at = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b),
              min(len(before), len(after)))
    if where is None:
        where = _where(before.decode(), at)
    return (f"{path}: byte {at} ({where}) differs from what {command} "
            "writes for its metadata")


class TestReaderStrictness:
    @pytest.mark.parametrize("line", ["", "# format=powergeom-scan-v0\n"])
    def test_csv_format_tag(self, tmp_path, line):
        path = _write_scan(tmp_path, "csv")
        text = path.read_text().replace(f"# format={FORMAT_TAG}\n", line)
        path.write_text(text)
        with pytest.raises(SchemaMismatch, match="format tag"):
            read_scan(str(path))

    @pytest.mark.parametrize("tag", [None, "powergeom-scan-v0"])
    def test_json_format_tag(self, tmp_path, tag):
        path = _write_scan(tmp_path, "json")
        data = json.loads(path.read_text())
        if tag is None:
            del data["metadata"]["format"]
        else:
            data["metadata"]["format"] = tag
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch, match="format tag"):
            read_scan(str(path))

    def test_csv_unknown_label(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        before = path.read_bytes()
        lines = path.read_text().split("\n")
        lines[-3] = lines[-3].rsplit(",", 1)[0] + ",BOGUS"
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before, "row 8, column class")

    @pytest.mark.parametrize("field,value", [
        ("class", "BOGUS"), ("class", 7), ("a1", "1.5"), ("a2", True),
        ("curvature", "nan"),
    ])
    def test_json_bad_field(self, tmp_path, field, value):
        path = _write_scan(tmp_path, "json")
        before = path.read_bytes()
        data = json.loads(path.read_text())
        data["records"][4][field] = value
        _write_json(path, data)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row 5, column {field}")

    @pytest.mark.parametrize("column", [0, 5, 7])
    def test_csv_non_number_names_file_and_column(self, tmp_path, column):
        path = _write_scan(tmp_path, "csv")
        before = path.read_bytes()
        lines = path.read_text().split("\n")
        cells = lines[-4].split(",")
        cells[column] = "abc"
        lines[-4] = ",".join(cells)
        path.write_text("\n".join(lines))
        name = SCAN_COLUMNS[column]
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row 7, column {name}")

    @pytest.mark.parametrize("text", ["1_5", " -0.5 ", "\t0.25", "\x0b0.5",
                                      "\u0661.5", "0.5\u2003"])
    @pytest.mark.parametrize("column", [0, 5, 7])
    def test_csv_number_text_no_writer_produces(self, tmp_path, column,
                                                text):
        float(text)  # Python reads it; the scan reader must not
        path = _write_scan(tmp_path, "csv")
        before = path.read_bytes()
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[-4].split(",")
        cells[column] = text
        lines[-4] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        name = SCAN_COLUMNS[column]
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row 7, column {name}")

    def test_json_nested_too_deeply_names_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100000)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == f"{path}: not a scan JSON object"

    def test_json_metadata_nested_too_deeply_names_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"metadata": ' + '{"a":' * 100000)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == f"{path}: JSON nested too deeply"

    def test_truncated_json_names_file(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        before = path.read_bytes()
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before)
        assert f" byte {len(text) // 2} (row " in str(info.value)

    def test_non_utf8_csv_names_file(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        before = path.read_bytes()
        path.write_bytes(before + b"\xff\n")
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before, "after the last row")

    def test_messages_for_one_bad_field(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        before = path.read_bytes()
        lines = path.read_text().split("\n")
        lines[-3] += ",extra"
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before, "row 8, column class")
        path = _write_scan(tmp_path, "json")
        before = path.read_bytes()
        data = json.loads(path.read_text())
        del data["records"][2]["g12"]
        _write_json(path, data)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before, "row 3, column g12")


class TestRowCount:
    """A scan file holds n^2 rows (n on a diagonal) for its metadata n."""

    @pytest.mark.parametrize("edit", ["drop", "duplicate"])
    @pytest.mark.parametrize("command", ["scan", "diagonal"])
    def test_csv_row_dropped_or_duplicated(self, tmp_path, command, edit):
        if command == "scan":
            table = grid_table(scan_grid(IMAG, (-1.0, 1.0), n=3))
        else:
            table = diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=9))
        path = tmp_path / "scan.csv"
        write_table(table, str(path), "csv")
        before = path.read_bytes()
        lines = path.read_text().split("\n")
        if edit == "drop":
            del lines[-2]
        else:
            lines.insert(-2, lines[-2])
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        where = "row 9, column a1" if edit == "drop" else "after the last row"
        assert str(info.value) == _differs(path, before, where, command)

    def test_json_record_removed(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        before = path.read_bytes()
        data = json.loads(path.read_text())
        data["records"].pop(4)
        _write_json(path, data)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before, "row 5, column a1")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [None, "", "three", "3.0", "03", "+3",
                                   " 3", "1", "0", "-3", "\u0663",
                                   "1" * 19])
    def test_n_missing_or_not_a_count(self, tmp_path, fmt, n):
        path = _write_scan(tmp_path, fmt)
        if fmt == "csv":
            line = "" if n is None else f"# n={n}\n"
            path.write_text(path.read_text().replace("# n=3\n", line))
        else:
            data = json.loads(path.read_text())
            if n is None:
                del data["metadata"]["n"]
            else:
                data["metadata"]["n"] = n
            path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: command='scan', n={n!r} is not "
                                   "a scan or diagonal of n >= 2 points")

    def test_json_n_must_be_text(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        data = json.loads(path.read_text())
        data["metadata"]["n"] = 3
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch, match="'scan', n=3 is not a scan"):
            read_scan(str(path))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [None, "grid", "Scan"])
    def test_command_must_be_scan_or_diagonal(self, tmp_path, fmt, command):
        path = _write_scan(tmp_path, fmt)
        if fmt == "csv":
            line = "" if command is None else f"# command={command}\n"
            path.write_text(path.read_text().replace("# command=scan\n",
                                                     line))
        else:
            data = json.loads(path.read_text())
            if command is None:
                del data["metadata"]["command"]
            else:
                data["metadata"]["command"] = command
            path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: command={command!r}, n='3' is "
                                   "not a scan or diagonal of n >= 2 points")


def _set_cell(path, fmt, row, name, value):
    """Write ``value`` into field ``name`` of record ``row`` (from 0) of a
    scan file: as ``%.17g`` text in a CSV, as a number in a JSON in the
    writers' layout."""
    if fmt == "csv":
        lines = path.read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line[:1] != "#")
        cells = lines[at + 1 + row].split(",")
        cells[SCAN_COLUMNS.index(name)] = format_float(value)
        lines[at + 1 + row] = ",".join(cells)
        path.write_text("\n".join(lines))
    else:
        data = json.loads(path.read_text())
        data["records"][row][name] = value
        _write_json(path, data)


def _set_metadata(path, fmt, key, value):
    """Set metadata ``key`` of a scan file to ``value`` where it stands, or
    remove it if ``value`` is None."""
    if fmt == "csv":
        lines = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
                 for line in path.read_text().split("\n")
                 if value is not None or not line.startswith(f"# {key}=")]
        path.write_text("\n".join(lines))
    else:
        data = json.loads(path.read_text())
        if value is None:
            del data["metadata"][key]
        else:
            data["metadata"][key] = value
        _write_json(path, data)


class TestRedundancy:
    """det is g11*g22 - g12*g12 and a1, a2 are the axis samples of the
    metadata bounds, bit for bit, or the file is a SchemaMismatch naming
    the row and column."""

    @each_format
    @pytest.mark.parametrize("name,row", [
        ("det", 2), ("g11", 2), ("g12", 2), ("g22", 2),
        ("det", 4),  # the DEGEN row: det +0.0 written as -0
    ])
    def test_det_rule(self, tmp_path, fmt, name, row):
        path = _write_scan(tmp_path, fmt)
        before = path.read_bytes()
        x = getattr(read_scan(str(path)).rows[row], name)
        _set_cell(path, fmt, row, name,
                  -x if x == 0.0 else math.nextafter(x, math.inf))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row {row + 1}, column {name}")

    @each_format
    @pytest.mark.parametrize("name,row,value", [
        ("a1", 5, 1.0 + 2 ** -52),  # one ulp off the axis's last sample
        ("a1", 1, -0.0),            # the middle sample is +0.0
        ("a2", 7, 0.0),             # a2 steps once every n records
        ("a2", 0, -0.5),
    ])
    def test_axis_rule_on_a_grid(self, tmp_path, fmt, name, row, value):
        path = _write_scan(tmp_path, fmt)  # axis -1, 0, 1 on both angles
        before = path.read_bytes()
        _set_cell(path, fmt, row, name, value)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row {row + 1}, column {name}")

    @each_format
    @pytest.mark.parametrize("name", ["a1", "a2"])
    def test_axis_rule_on_a_diagonal(self, tmp_path, fmt, name):
        table = diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=9))
        path = tmp_path / f"diag.{fmt}"
        write_table(table, str(path), fmt)
        before = path.read_bytes()
        _set_cell(path, fmt, 3, name, table.rows[4].a1)  # a1 != a2 there
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, before,
                                           f"row 4, column {name}", "diagonal")

    @each_format
    @pytest.mark.parametrize("key,value", [
        ("a2_max", "0.5"), ("a1_min", "-1.0000000000000002")])
    def test_axis_rule_against_edited_bounds(self, tmp_path, fmt, key,
                                             value):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, key, value)
        name = key[:2]
        row = 4 if key == "a2_max" else 1  # a2 changes from the second run
        # What the writer writes for the edited bounds.
        bounds = {"a1": [-1.0, 1.0], "a2": [-1.0, 1.0]}
        bounds[name][key.endswith("max")] = float(value)
        render = render_csv if fmt == "csv" else render_json
        want = text(render, grid_table(scan_grid(IMAG, *bounds.values(),
                                                 n=3)))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == _differs(path, want.encode(),
                                           f"row {row}, column {name}")

    @each_format
    @pytest.mark.parametrize("value", [None, "one"])
    def test_bounds_must_be_numbers(self, tmp_path, fmt, value):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, "a1_max", value)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: a1 bounds ('-1', {value!r}) are "
                                   "not numbers")

    def test_json_bound_beyond_any_double(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        _set_metadata(path, "json", "a1_max", 10 ** 400)  # float() overflows
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: a1 bounds ('-1', {10 ** 400}) "
                                   "are not numbers")

    @each_format
    @pytest.mark.parametrize("a1,a2,rule", [
        ((math.nan,) * 2, (math.nan,) * 2,
         "a1 bounds must satisfy lo < hi, got (nan, nan)"),
        ((1.0, -1.0), (1.0, -1.0),
         "a1 bounds must satisfy lo < hi, got (1.0, -1.0)"),
        ((-1.0, 1.0), (-1.56, 1.0),
         "a2 bounds (-1.56, 1.0) reach within 0.02 rad of +-pi/2"),
        ((-1.0, 1.0), (-0.5, 0.5), "diagonal a2 bounds (-0.5, 0.5) differ "
         "from its a1 bounds (-1.0, 1.0)"),
    ])
    def test_bounds_no_scan_can_have(self, tmp_path, fmt, a1, a2, rule):
        """A diagonal whose a1 and a2 are the axis samples of bounds that
        scan_diagonal rejects."""
        path = tmp_path / f"diag.{fmt}"
        write_table(diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=3)),
                    str(path), fmt)
        for name, bounds in (("a1", a1), ("a2", a2)):
            _set_metadata(path, fmt, f"{name}_min", format_float(bounds[0]))
            _set_metadata(path, fmt, f"{name}_max", format_float(bounds[1]))
            for row, x in enumerate(axis_samples(bounds, 3)):
                _set_cell(path, fmt, row, name, x)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == f"{path}: {rule}"

    @each_format
    def test_nan_det_where_the_metric_overflows(self, tmp_path, fmt):
        model = PowerModel(FlowKind.COMPLEX, v=1e76, r0=0.1)
        table = grid_table(scan_grid(model, n=8))
        path = tmp_path / f"scan.{fmt}"
        write_table(table, str(path), fmt)
        back = read_scan(str(path))
        assert sum(math.isnan(row.det) for row in back.rows) == 4
        assert rows_equal(back.rows, table.rows)


class TestMetadataRescan:
    """A file is what ``scan``/``diagonal`` writes for its metadata: any
    metadata they never write is a SchemaMismatch naming the file, and a
    scan larger than the file could hold is never made."""

    @each_format
    @pytest.mark.parametrize("key,csv_value,json_value,rule", [
        ("model", "bogus", "bogus", "is not a power model"),
        ("v", "-5", "-5", "is not a power model"),
        ("r0", "nan", "nan", "is not a power model"),
        ("guard", "7", "7", "(head) differs"),
        ("unit", "furlong", "furlong", "(head) differs"),
        # the value of the bound as a JSON number, or CSV text float()
        # reads the same
        ("a1_min", "-1.0", -1.0, "(head) differs"),
    ])
    def test_metadata_no_writer_writes(self, tmp_path, fmt, key, csv_value,
                                       json_value, rule):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, key, csv_value if fmt == "csv"
                      else json_value)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert rule in str(info.value)

    @each_format
    def test_no_scan_larger_than_the_file(self, tmp_path, fmt):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, "n", "1000000000")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(SchemaMismatch) as info:
                read_scan(str(path))
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"{path}: a scan of n=1000000000 has 1000000000000000000 rows, "
            f"more than {size} bytes can hold")
        assert elapsed < 1.0
        assert peak < 1 << 20

    @each_format
    def test_no_scan_above_the_point_ceiling(self, tmp_path, fmt,
                                             monkeypatch):
        """A scan its file could hold but no spec may describe is a
        mismatch too."""
        path = _write_scan(tmp_path, fmt)
        monkeypatch.setattr(stability, "MAX_POINTS", 8)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (
            f"{path}: a scan of n=3 has 9 points, more than the 8 a scan "
            "may hold")

    def test_rows_the_file_size_can_hold(self):
        """The bound is n**2 (n on a diagonal) rows of 22 bytes."""
        table = grid_table(scan_grid(IMAG, (-1.0, 1.0), n=3))
        diagonal = diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=3))
        for meta, rows in ((table.metadata, 9), (diagonal.metadata, 3)):
            assert scan_io._rescan(meta, 22 * rows, "f").metadata == meta
            with pytest.raises(SchemaMismatch, match=f"^f: a .* has {rows} "
                               f"rows, more than {22 * rows - 1} bytes"):
                scan_io._rescan(meta, 22 * rows - 1, "f")

    @each_format
    # g11*g22 of the scan and of its re-scan overflows
    def test_scale_that_overflows_is_read_without_warnings(self, tmp_path,
                                                           fmt):
        model = PowerModel(FlowKind.COMPLEX, v=1e76, r0=0.1)
        table = grid_table(scan_grid(model, n=8))
        path = tmp_path / f"scan.{fmt}"
        write_table(table, str(path), fmt)
        assert rows_equal(read_scan(str(path)).rows, table.rows)
        _set_metadata(path, fmt, "v", "1e75")
        with pytest.raises(SchemaMismatch, match="differs from what scan"):
            read_scan(str(path))


class TestDifferencePosition:
    """The reader names the offset of the first byte that differs from the
    writer's file and where it lies: the head, the row (from 1) and
    column, or after the last row."""

    @staticmethod
    def _check(path, fmt, positions, command, delete=True):
        """Flip, then delete, each byte at ``positions`` that lies after
        the head (a changed header row is a header mismatch)."""
        before = path.read_bytes()
        head = before.index(b"\na1," if fmt == "csv" else b"\n  {\n") + 1
        if fmt == "csv":
            head = before.index(b"\n", head) + 1
        for at in (at for at in positions if head <= at < len(before)):
            for edit in (bytes([before[at] ^ 1]), b"")[:1 + delete]:
                path.write_bytes(before[:at] + edit + before[at + 1:])
                with pytest.raises(SchemaMismatch) as info:
                    read_scan(str(path))
                assert str(info.value) == _differs(path, before,
                                                   command=command), at
        path.write_bytes(before)

    @each_format
    def test_every_byte_after_the_head(self, tmp_path, fmt):
        path = _write_scan(tmp_path, fmt)
        self._check(path, fmt, range(path.stat().st_size), "scan",
                    delete=False)

    @each_format
    def test_around_block_joins(self, tmp_path, fmt):
        table = diagonal_table(scan_diagonal(IMAG, (-1.2, 0.9),
                                             n=2 * BLOCK_ROWS + 1))
        path = tmp_path / f"diag.{fmt}"
        write_table(table, str(path), fmt)
        render = render_csv if fmt == "csv" else render_json
        joins = list(itertools.accumulate(map(len, render(table))))[:-1]
        self._check(path, fmt, [at + step for at in joins
                                for step in range(-30, 30, 7)], "diagonal")


@st.composite
def _mutated(draw, blob):
    """``blob`` after one to three truncations, byte flips, deletions or
    insertions."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(blob) - 1, 0)))
        edit = draw(st.sampled_from(("truncate", "flip", "delete",
                                     "insert")))
        if edit == "truncate":
            blob = blob[:at]
        elif edit == "flip" and blob:
            mask = draw(st.integers(1, 255))
            blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
        elif edit == "delete":
            blob = blob[:at] + blob[at + draw(st.integers(1, 16)):]
        else:
            blob = blob[:at] + draw(st.binary(min_size=1, max_size=16)) + (
                blob[at:])
    return blob


class TestByteMutations:
    """Whatever bytes a scan file is mutated into, ``read_scan`` returns a
    table or raises a SchemaMismatch that names the file; nothing else. A
    file it accepts is the file of the table written, byte for byte."""

    @each_format
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_table_or_schema_mismatch(self, tmp_path_factory, fmt, data):
        path = tmp_path_factory.getbasetemp() / f"mutated.{fmt}"
        written = grid_table(scan_grid(PowerModel(FlowKind.COMPLEX),
                                       (-1.0, 1.0), n=6))
        write_table(written, str(path), fmt)
        path.write_bytes(data.draw(_mutated(path.read_bytes())))
        try:
            table = read_scan(str(path))
        except SchemaMismatch as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert isinstance(table, ScanTable)
            render = render_csv if fmt == "csv" else render_json
            assert (text(render, table).encode() == path.read_bytes()
                    == text(render, written).encode())


class TestReaderChoice:
    """read_scan picks the reader from the content, not the file name."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["g.JSON", "g.CSV", "g", "g.json.bak"])
    def test_any_name(self, tmp_path, fmt, name):
        written = _write_scan(tmp_path, fmt)
        path = tmp_path / name
        path.write_bytes(written.read_bytes())
        want = read_scan(str(written))
        got = read_scan(str(path))
        assert got.metadata == want.metadata
        assert rows_equal(got.rows, want.rows)

    def test_csv_content_named_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(_write_scan(tmp_path, "csv").read_bytes())
        assert read_scan(str(path)).rows  # read as CSV, not JSON

    def test_empty_file_is_a_schema_mismatch(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        with pytest.raises(SchemaMismatch, match="no header row"):
            read_scan(str(path))


class TestPlotScript:
    def test_json_scan_is_rejected(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        with pytest.raises(SchemaMismatch, match="needs a CSV scan"):
            emit_plot_script(str(path))

    def test_grid_heatmap_script(self, tmp_path):
        scan = scan_grid(IMAG, (-1.0, 1.0), n=6)
        csv_path = tmp_path / "grid.csv"
        write_table(grid_table(scan), str(csv_path), "csv")
        out = emit_plot_script(str(csv_path), field="det")
        with open(out) as fh:
            text = fh.read()
        assert "imshow" in text
        assert "grid.csv" in text

    def test_diagonal_line_script_runs(self, tmp_path):
        pytest.importorskip("matplotlib")
        model = PowerModel(FlowKind.COMPLEX)
        table = diagonal_table(scan_diagonal(model, (-1.0, 1.0), n=15))
        csv_path = tmp_path / "diag.csv"
        write_table(table, str(csv_path), "csv")
        script = emit_plot_script(str(csv_path), field="value",
                                  out_path=str(tmp_path / "plot.py"))
        proc = subprocess.run([sys.executable, script], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.glob("*.png"))

    def test_out_path_naming_the_scan_is_refused(self, tmp_path):
        csv_path = _write_scan(tmp_path, "csv")
        before = csv_path.read_bytes()
        with pytest.raises(ValueError, match="is the input file"):
            emit_plot_script(str(csv_path), out_path=str(csv_path))
        assert csv_path.read_bytes() == before

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_plot_script(str(tmp_path / "absent.csv"))

    def test_bad_field_rejected(self, tmp_path):
        scan = scan_grid(IMAG, (-1.0, 1.0), n=4)
        csv_path = tmp_path / "g.csv"
        write_table(grid_table(scan), str(csv_path), "csv")
        with pytest.raises(ValueError):
            emit_plot_script(str(csv_path), field="g11")

    def test_schema_mismatch_propagates(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaMismatch):
            emit_plot_script(str(path))
