"""Scan serialization: round-trips, precision, plot-script emission."""

import math
import subprocess
import sys

import pytest

from powergeom.errors import SchemaMismatch
from powergeom.geometry import geometry_report
from powergeom.models import FlowKind, PowerModel
from powergeom.scan_io import (
    diagonal_table,
    emit_plot_script,
    format_float,
    grid_table,
    read_scan,
    read_scan_csv,
    render_csv,
    render_json,
    write_table,
)
from powergeom.stability import scan_diagonal, scan_grid

IMAG = PowerModel(FlowKind.IMAGINARY)


def rows_equal(a, b):
    from dataclasses import astuple
    for ra, rb in zip(a, b):
        ta, tb = astuple(ra), astuple(rb)
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

    def test_render_deterministic(self):
        scan = scan_grid(IMAG, (-0.7, 0.7), n=5)
        assert render_csv(grid_table(scan)) == render_csv(grid_table(scan))
        assert render_json(grid_table(scan)) == render_json(grid_table(scan))

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


class TestPlotScript:
    def test_grid_heatmap_script(self, tmp_path):
        scan = scan_grid(IMAG, (-1.0, 1.0), n=6)
        csv_path = tmp_path / "grid.csv"
        write_table(grid_table(scan), str(csv_path), "csv")
        out = emit_plot_script(str(csv_path), field="det")
        text = open(out).read()
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
