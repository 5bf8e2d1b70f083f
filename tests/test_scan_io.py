"""Scan serialization: round-trips, precision, byte identity with the
row-by-row reference writers, reader strictness, plot-script emission."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import scan_io
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
    read_scan_csv,
    read_scan_json,
    render_csv,
    render_json,
    write_table,
)
from powergeom.stability import (DiagonalScan, GridScan, axis_samples,
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
        back = read_scan_csv(str(path))
        assert back.metadata == table.metadata
        assert rows_equal(back.rows, table.rows)

    def test_diagonal_csv_with_nan_curvature(self, tmp_path):
        model = PowerModel(FlowKind.REAL)
        table = diagonal_table(scan_diagonal(model, (-1.0, 1.0), n=11))
        assert any(math.isnan(r.curvature) for r in table.rows)
        path = tmp_path / "diag.csv"
        write_table(table, str(path), "csv")
        back = read_scan_csv(str(path))
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
            tables.append(
                (read_scan_csv if fmt == "csv" else read_scan_json)(
                    str(path)))
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
            read_scan_csv(str(path))

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
    axes = [np.array(axis_samples(b, n)) for b in bounds]
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
    table = (grid_table(GridScan(model, *bounds, n, columns)) if grid else
             diagonal_table(DiagonalScan(model, *bounds, n, columns)))
    for key, text in draw(extra_metadata).items():
        table.metadata.setdefault(key, text)
    return table


def _float_bits(table):
    return [(tuple(float(x).hex() for x in tuple(r)[:-1]), r.label)
            for r in table.rows]


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_scan_tables())
    def test_round_trip_bits(self, tmp_path_factory, table):
        folder = tmp_path_factory.mktemp("round-trip")
        for name in ("t.csv", "t.json"):
            path = str(folder / name)
            write_table(table, path, name[2:])
            back = read_scan(path)
            assert back.metadata == table.metadata
            assert _float_bits(back) == _float_bits(table)


each_format = pytest.mark.parametrize("fmt", ["csv", "json"])
FORMATS = (("csv", render_csv, reference_csv),
           ("json", render_json, reference_json))


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
                         scan.class_labels()))
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


def _write_scan(tmp_path, fmt):
    table = grid_table(scan_grid(IMAG, (-1.0, 1.0), n=3))
    path = tmp_path / f"scan.{fmt}"
    write_table(table, str(path), fmt)
    return path


class TestReaderStrictness:
    @pytest.mark.parametrize("line", ["", "# format=powergeom-scan-v0\n"])
    def test_csv_format_tag(self, tmp_path, line):
        path = _write_scan(tmp_path, "csv")
        text = path.read_text().replace(f"# format={FORMAT_TAG}\n", line)
        path.write_text(text)
        with pytest.raises(SchemaMismatch, match="format tag"):
            read_scan_csv(str(path))

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
            read_scan_json(str(path))

    def test_csv_unknown_label(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        lines = path.read_text().split("\n")
        lines[-3] = lines[-3].rsplit(",", 1)[0] + ",BOGUS"
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaMismatch, match="'BOGUS'"):
            read_scan_csv(str(path))

    @pytest.mark.parametrize("field,value,match", [
        ("class", "BOGUS", "unknown class label 'BOGUS'"),
        ("class", 7, "unknown class label 7"),
        ("a1", "1.5", "'a1' holds a str"),
        ("a2", True, "'a2' holds a bool"),
        ("curvature", "nan", "'curvature' holds a str"),
    ])
    def test_json_bad_field(self, tmp_path, field, value, match):
        path = _write_scan(tmp_path, "json")
        data = json.loads(path.read_text())
        data["records"][4][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch, match=match):
            read_scan_json(str(path))

    @pytest.mark.parametrize("column", [0, 5, 7])
    def test_csv_non_number_names_file_and_column(self, tmp_path, column):
        path = _write_scan(tmp_path, "csv")
        lines = path.read_text().split("\n")
        cells = lines[-4].split(",")
        cells[column] = "abc"
        lines[-4] = ",".join(cells)
        path.write_text("\n".join(lines))
        name = SCAN_COLUMNS[column]
        with pytest.raises(SchemaMismatch) as info:
            read_scan_csv(str(path))
        assert str(info.value) == (f"{path}: column {name!r}: could not "
                                   "convert string to float: 'abc'")

    @pytest.mark.parametrize("text", ["1_5", " -0.5 ", "\t0.25", "\x0b0.5",
                                      "\u0661.5", "0.5\u2003"])
    @pytest.mark.parametrize("column", [0, 5, 7])
    def test_csv_number_text_no_writer_produces(self, tmp_path, column,
                                                text):
        float(text)  # Python reads it; the scan reader must not
        path = _write_scan(tmp_path, "csv")
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[-4].split(",")
        cells[column] = text
        lines[-4] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        name = SCAN_COLUMNS[column]
        with pytest.raises(SchemaMismatch) as info:
            read_scan_csv(str(path))
        assert str(info.value).startswith(
            f"{path}: column {name!r}: {text!r} is not a number as written")

    def test_json_nested_too_deeply_names_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100000)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == f"{path}: JSON nested too deeply"

    def test_truncated_json_names_file(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value).startswith(f"{path}: not JSON: ")

    def test_non_utf8_csv_names_file(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")

    def test_messages_for_one_bad_field(self, tmp_path):
        path = _write_scan(tmp_path, "csv")
        lines = path.read_text().split("\n")
        lines[-3] += ",extra"
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaMismatch,
                           match="expected 9 fields, got 10"):
            read_scan_csv(str(path))
        path = _write_scan(tmp_path, "json")
        data = json.loads(path.read_text())
        del data["records"][2]["g12"]
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch, match="bad record: 'g12'"):
            read_scan_json(str(path))


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
        lines = path.read_text().split("\n")
        if edit == "drop":
            del lines[-2]
        else:
            lines.insert(-2, lines[-2])
        path.write_text("\n".join(lines))
        got = 8 if edit == "drop" else 10
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        n = "3" if command == "scan" else "9"
        assert str(info.value) == (f"{path}: {got} rows, but a {command} "
                                   f"of n={n} has 9")

    def test_json_record_removed(self, tmp_path):
        path = _write_scan(tmp_path, "json")
        data = json.loads(path.read_text())
        data["records"].pop(4)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == f"{path}: 8 rows, but a scan of n=3 has 9"

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
    scan file: as ``%.17g`` text in a CSV, as a number in a JSON."""
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
        path.write_text(json.dumps(data))


def _set_metadata(path, fmt, key, value):
    if fmt == "csv":
        lines = [line for line in path.read_text().split("\n")
                 if not line.startswith(f"# {key}=")]
        if value is not None:
            lines.insert(0, f"# {key}={value}")
        path.write_text("\n".join(lines))
    else:
        data = json.loads(path.read_text())
        data["metadata"].pop(key)
        if value is not None:
            data["metadata"][key] = value
        path.write_text(json.dumps(data))


class TestRedundancy:
    """det is g11*g22 - g12*g12 and a1, a2 are the axis samples of the
    metadata bounds, bit for bit, or the file is a SchemaMismatch naming
    the row."""

    @each_format
    @pytest.mark.parametrize("name,row", [
        ("det", 2), ("g11", 2), ("g12", 2), ("g22", 2),
        ("det", 4),  # the DEGEN row: det +0.0 written as -0
    ])
    def test_det_rule(self, tmp_path, fmt, name, row):
        path = _write_scan(tmp_path, fmt)
        x = getattr(read_scan(str(path)).rows[row], name)
        _set_cell(path, fmt, row, name,
                  -x if x == 0.0 else math.nextafter(x, math.inf))
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: row {row + 1}: det is not "
                                   "g11*g22 - g12*g12")

    @each_format
    @pytest.mark.parametrize("name,row,value", [
        ("a1", 5, 1.0 + 2 ** -52),  # one ulp off the axis's last sample
        ("a1", 1, -0.0),            # the middle sample is +0.0
        ("a2", 7, 0.0),             # a2 steps once every n records
        ("a2", 0, -0.5),
    ])
    def test_axis_rule_on_a_grid(self, tmp_path, fmt, name, row, value):
        path = _write_scan(tmp_path, fmt)  # axis -1, 0, 1 on both angles
        _set_cell(path, fmt, row, name, value)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: row {row + 1}: {name} is not the "
                                   "axis sample of the metadata bounds "
                                   "(-1.0, 1.0)")

    @each_format
    @pytest.mark.parametrize("name", ["a1", "a2"])
    def test_axis_rule_on_a_diagonal(self, tmp_path, fmt, name):
        table = diagonal_table(scan_diagonal(IMAG, (-1.0, 1.0), n=9))
        path = tmp_path / f"diag.{fmt}"
        write_table(table, str(path), fmt)
        _set_cell(path, fmt, 3, name, table.rows[4].a1)  # a1 != a2 there
        with pytest.raises(SchemaMismatch, match=f"^{path}: row 4: {name} "
                           "is not the axis sample"):
            read_scan(str(path))

    @each_format
    @pytest.mark.parametrize("key,value", [
        ("a2_max", "0.5"), ("a1_min", "-1.0000000000000002")])
    def test_axis_rule_against_edited_bounds(self, tmp_path, fmt, key,
                                             value):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, key, value)
        name = key[:2]
        row = 4 if key == "a2_max" else 1  # a2 changes from the second run
        with pytest.raises(SchemaMismatch, match=f"^{path}: row {row}: "
                           f"{name} is not the axis sample"):
            read_scan(str(path))

    @each_format
    @pytest.mark.parametrize("value", [None, "one"])
    def test_bounds_must_be_numbers(self, tmp_path, fmt, value):
        path = _write_scan(tmp_path, fmt)
        _set_metadata(path, fmt, "a1_max", value)
        with pytest.raises(SchemaMismatch) as info:
            read_scan(str(path))
        assert str(info.value) == (f"{path}: a1 bounds ('-1', {value!r}) are "
                                   "not numbers")

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
    # g11*g22 overflows (the scale defect, ROADMAP item 1) and numpy warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_det_where_the_metric_overflows(self, tmp_path, fmt):
        model = PowerModel(FlowKind.COMPLEX, v=1e76, r0=0.1)
        table = grid_table(scan_grid(model, n=8))
        path = tmp_path / f"scan.{fmt}"
        write_table(table, str(path), fmt)
        back = read_scan(str(path))
        assert sum(math.isnan(row.det) for row in back.rows) == 4
        assert rows_equal(back.rows, table.rows)


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
    table or raises a SchemaMismatch that names the file; nothing else."""

    @each_format
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_table_or_schema_mismatch(self, tmp_path_factory, fmt, data):
        path = tmp_path_factory.getbasetemp() / f"mutated.{fmt}"
        write_table(grid_table(scan_grid(PowerModel(FlowKind.COMPLEX),
                                         (-1.0, 1.0), n=6)), str(path), fmt)
        path.write_bytes(data.draw(_mutated(path.read_bytes())))
        try:
            table = read_scan(str(path))
        except SchemaMismatch as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert isinstance(table, ScanTable)


class TestReaderChoice:
    """read_scan picks the reader from the content, not the file name."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["g.JSON", "g.CSV", "g", "g.json.bak"])
    def test_any_name(self, tmp_path, fmt, name):
        written = _write_scan(tmp_path, fmt)
        path = tmp_path / name
        path.write_bytes(written.read_bytes())
        want = (read_scan_json if fmt == "json" else read_scan_csv)(
            str(written))
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
