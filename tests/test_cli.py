"""Command-line interface: exit codes, files, determinism, units."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import powergeom
from powergeom import backend, cli
from powergeom.cli import main
from powergeom.geometry import CLASS_LABELS, geometry_report
from powergeom.models import FlowKind, PowerModel
from powergeom.scan_io import format_float, read_scan_csv
from powergeom.stability import scan_diagonal


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScan:
    def test_writes_csv_with_metadata(self, tmp_path, capsys):
        out = tmp_path / "det.csv"
        code, stdout, _ = run(["scan", "--model", "real", "--n", "64",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "4096 records" in stdout
        table = read_scan_csv(str(out))
        assert len(table.rows) == 4096
        assert table.metadata["model"] == "real"
        assert table.metadata["n"] == "64"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["scan", "--model", "complex", "--n", "24",
                        "--out", str(out)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_block_split_does_not_change_bytes(self, tmp_path, capsys,
                                               monkeypatch):
        outs = []
        # 96x96 = 9216 points spans three default blocks
        for block in (backend.BLOCK, 1000, 96 * 96):
            monkeypatch.setattr(backend, "BLOCK", block)
            out = tmp_path / f"b{block}.csv"
            assert run(["scan", "--model", "imaginary", "--n", "96",
                        "--out", str(out)], capsys)[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, _, _ = run(["scan", "--model", "real", "--n", "8",
                          "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["records"]) == 64

    def test_degree_unit_conversion(self, tmp_path, capsys):
        out = tmp_path / "deg.csv"
        code, _, _ = run(["scan", "--model", "real", "--n", "3",
                          "--unit", "deg", "--min", "-45", "--max", "45",
                          "--out", str(out)], capsys)
        assert code == 0
        table = read_scan_csv(str(out))
        assert float(table.metadata["a1_max"]) == pytest.approx(math.pi / 4)
        assert table.metadata["unit"] == "rad"

    def test_domain_error_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run(["scan", "--model", "real", "--max", "1.58",
                                 "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err == ("error: a1 bounds (-1.55, 1.58) reach within 0.02 "
                       "rad of +-pi/2\n")
        assert not out.exists()

    def test_usage_error_exits_two(self, capsys):
        assert run(["scan", "--model", "real"], capsys)[0] == 2
        assert run(["scan", "--model", "nuclear", "--out", "x"], capsys)[0] == 2
        assert run(["frobnicate"], capsys)[0] == 2

    def test_asymmetric_domain_flags(self, tmp_path, capsys):
        out = tmp_path / "asym.csv"
        code, _, _ = run(["scan", "--model", "real", "--n", "4",
                          "--min", "-1.0", "--max", "1.0",
                          "--min2", "0.0", "--max2", "0.5",
                          "--out", str(out)], capsys)
        assert code == 0
        meta = read_scan_csv(str(out)).metadata
        assert float(meta["a2_min"]) == 0.0
        assert float(meta["a2_max"]) == 0.5


class TestDiagonal:
    def test_writes_and_summarizes_transitions(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code, stdout, _ = run(["diagonal", "--model", "complex", "--n", "101",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "det zero crossings" in stdout
        assert "curvature spikes" in stdout
        table = read_scan_csv(str(out))
        assert table.metadata["command"] == "diagonal"
        assert all(r.a1 == r.a2 for r in table.rows)

    def test_spike_threshold_flag(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code, stdout, _ = run(["diagonal", "--model", "complex", "--n", "51",
                               "--spike-threshold", "10",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "|R| > 10" in stdout


class TestNonFiniteScan:
    """A scan whose scaled floats leave the float range is a data error:
    one error line naming the quantity and k, and no file."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [["scan", "--n", "8"],
                                         ["diagonal", "--n", "9"]],
                             ids=lambda argv: argv[0])
    def test_overflowing_scale(self, command, fmt, tmp_path):
        """At k = 1e153 the scaled ``g11*g22 - g12^2`` is ``inf - inf``;
        the error comes before transitions are bisected, so no numpy
        warning is printed either."""
        out = tmp_path / f"s.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "powergeom.cli", *command, "--model",
             "complex", "--v", "1e76", "--r0", "0.1", "--format", fmt,
             "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
            timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: det is nan at k = V^2/R0 = 1e+153 (a1 = -1.55, a2 = "
            "-1.55): the scaled geometry is out of float range"]
        assert not out.exists()

    def test_curvature_off_a_degen_point(self, tmp_path, capsys,
                                         monkeypatch):
        changed = []

        def with_infinite_curvature(*args, **kwargs):
            scan = scan_diagonal(*args, **kwargs)
            at = list(scan.columns["codes"]).index(CLASS_LABELS.index("INDEF"))
            scan.columns["curvature"][at] = math.inf
            changed.append(float(scan.columns["a1"][at]))
            return scan

        monkeypatch.setattr(cli, "scan_diagonal", with_infinite_curvature)
        out = tmp_path / "d.csv"
        code, stdout, stderr = run(["diagonal", "--model", "complex", "--n",
                                    "11", "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        a = changed[0]
        assert stderr == (f"error: curvature is inf at k = V^2/R0 = 1.0 "
                          f"(a1 = {a!r}, a2 = {a!r}): the scaled geometry is "
                          "out of float range\n")
        assert not out.exists()

    def test_nan_curvature_of_degen_points_is_written(self, tmp_path,
                                                      capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(["diagonal", "--model", "real", "--n", "11",
                          "--out", str(out)], capsys)
        assert code == 0
        rows = read_scan_csv(str(out)).rows
        assert all(r.label == "DEGEN" and math.isnan(r.curvature)
                   for r in rows)


@pytest.mark.parametrize("argv,message", [
    (["scan", "--n", "1"], "need at least 2 samples per axis, got 1"),
    (["scan", "--min", "1", "--max", "-1"],
     "a1 bounds must satisfy lo < hi, got (1.0, -1.0)"),
    (["scan", "--min", "0.5", "--max", "0.5"],
     "a1 bounds must satisfy lo < hi, got (0.5, 0.5)"),
    (["scan", "--min2", "0.5", "--max2", "0.5"],
     "a2 bounds must satisfy lo < hi, got (0.5, 0.5)"),
    (["scan", "--min2", "1", "--max2", "-1"],
     "a2 bounds must satisfy lo < hi, got (1.0, -1.0)"),
    (["scan", "--max", "1.5508"],
     "a1 bounds (-1.55, 1.5508) reach within 0.02 rad of +-pi/2"),
    (["scan", "--min2", "-1.56"],
     "a2 bounds (-1.56, 1.55) reach within 0.02 rad of +-pi/2"),
    (["diagonal", "--n", "1"], "need at least 2 samples per axis, got 1"),
    (["diagonal", "--min", "0.3", "--max", "0.3"],
     "a1 bounds must satisfy lo < hi, got (0.3, 0.3)"),
    (["diagonal", "--min", "1", "--max", "-1"],
     "a1 bounds must satisfy lo < hi, got (1.0, -1.0)"),
    (["diagonal", "--min", "-1.5508"],
     "a1 bounds (-1.5508, 1.55) reach within 0.02 rad of +-pi/2"),
    (["diagonal", "--max", "1.56"],
     "a1 bounds (-1.55, 1.56) reach within 0.02 rad of +-pi/2"),
])
def test_scan_domain_rejections(argv, message, tmp_path, capsys):
    """A scan no ScanSpec accepts exits 1 with one error line and no
    file. A diagonal's one axis is named a1."""
    out = tmp_path / "s.csv"
    code, stdout, stderr = run([*argv, "--model", "real", "--out", str(out)],
                               capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "diagonal"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1e6"])
def test_bad_spike_threshold_exits_one_and_writes_nothing(
        command, bad, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, stderr = run([command, "--model", "complex", "--n", "9",
                                f"--spike-threshold={bad}",
                                "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == ("error: spike threshold must be finite and > 0, "
                      f"got {float(bad)!r}\n")
    assert not out.exists()


class TestClassify:
    def test_indefinite_diagonal_point(self, capsys):
        code, stdout, _ = run(["classify", "--model", "imaginary",
                               "--a1", "0.5", "--a2", "0.5"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert data["class"] == "INDEF"
        assert data["det"] < 0

    def test_degenerate_origin_has_null_curvature(self, capsys):
        code, stdout, _ = run(["classify", "--model", "real",
                               "--a1", "0", "--a2", "0"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert data["class"] == "DEGEN"
        assert data["curvature"] is None

    def test_degrees_accepted(self, capsys):
        code, stdout, _ = run(["classify", "--model", "imaginary", "--unit",
                               "deg", "--a1", "30", "--a2", "30"], capsys)
        assert code == 0
        assert json.loads(stdout)["a1"] == pytest.approx(math.pi / 6)

    def test_pole_angle_exits_one(self, capsys):
        code, _, err = run(["classify", "--model", "real",
                            "--a1", "1.5707963", "--a2", "0"], capsys)
        assert code == 1
        assert "pole" in err

    @pytest.mark.parametrize("scale", [["--v", "1e77", "--r0", "1"],
                                       ["--v", "1e154", "--r0", "1e154"]])
    def test_non_finite_result_is_one_error_line(self, scale, tmp_path):
        """At k = 1e154 the scaled ``g11*g22 - g12^2`` is ``inf - inf``:
        one error line naming the determinant and k, not ``"det": NaN``."""
        proc = subprocess.run(
            [sys.executable, "-m", "powergeom.cli", "classify", "--model",
             "complex", *scale, "--a1", "1.5", "--a2", "-1.5"],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
            timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: det is nan at k = V^2/R0 = 1e+154: the scaled geometry "
            "is out of float range"]

    @pytest.mark.parametrize("flow", ["real", "imaginary", "complex"])
    @pytest.mark.parametrize("v", ["1", "1e50"])
    def test_output_is_strict_json(self, flow, v, capsys):
        code, stdout, _ = run(["classify", "--model", flow, "--v", v,
                               "--a1", "1.5", "--a2", "-1.5"], capsys)
        assert code == 0
        report = _strict_json(stdout)
        for key in ("value", "g11", "g12", "g22", "det", "curvature"):
            assert math.isfinite(report[key]), key


class TestVerifyPaper:
    def test_report_file_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code, stdout, _ = run(["verify-paper", "--model", "real",
                                   "--samples", "100", "--seed", "7",
                                   "--out", str(out)], capsys)
            assert code == 0
            assert "5 verified, 0 discrepant" in stdout
        assert a.read_bytes() == b.read_bytes()

    def test_imaginary_report_lists_discrepancies(self, tmp_path, capsys):
        out = tmp_path / "imag.json"
        code, stdout, _ = run(["verify-paper", "--model", "imaginary",
                               "--samples", "60", "--seed", "1",
                               "--out", str(out)], capsys)
        assert code == 0  # discrepancies are surfaced, not fatal
        assert "METRIC_I_12" in stdout and "DET_I" in stdout
        data = json.loads(out.read_text())
        by_id = {q["id"]: q for q in data["quantities"]}
        assert by_id["METRIC_I_12"]["status"] == "DISCREPANT"
        assert by_id["DET_I"]["status"] == "DISCREPANT"
        assert by_id["CURV_I"]["status"] == "VERIFIED"

    @pytest.mark.parametrize("v,r0", [("1e100", "1e100"),
                                      ("1e-100", "1e-200")])
    def test_prefactor_overflow_names_the_quantity(self, v, r0, capsys):
        """Only CURV_R's scale residual R0^-2 can overflow: at R0 = 1e-200.
        Every other table's residual is 1.0, so its entry is the unit one."""
        for flow in FlowKind:
            code, stdout, stderr = run(
                ["verify-paper", "--model", flow.value, "--v", v, "--r0", r0,
                 "--samples", "5"], capsys)
            if flow is FlowKind.REAL and r0 == "1e-200":
                assert code == 1
                assert stdout == ""
                assert stderr == ("error: CURV_R: scale residual R0^-2 "
                                  f"overflows at V={float(v)!r}, "
                                  f"R0={float(r0)!r}\n")
                continue
            assert (code, stderr) == (0, "")
            _, unit, _ = run(["verify-paper", "--model", flow.value,
                              "--samples", "5"], capsys)
            got, want = json.loads(stdout), json.loads(unit)
            assert got["derived_identities"] == want["derived_identities"]
            assert ([q for q in got["quantities"] if q["id"] != "CURV_R"]
                    == [q for q in want["quantities"] if q["id"] != "CURV_R"])

    def test_text_format_to_stdout(self, capsys):
        code, stdout, _ = run(["verify-paper", "--model", "complex",
                               "--samples", "25", "--format", "text"], capsys)
        assert code == 0
        assert "CURV_C" in stdout
        assert "VERIFIED" in stdout


class TestBusPower:
    def net(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "buses": [{"id": "b1", "vmag": 1.0, "delta": 0.0},
                      {"id": "b2", "vmag": 1.0, "delta": 0.0}],
            "branches": [{"from": "b1", "to": "b2", "ymag": 1.0,
                          "g": 1.0, "b": 0.0, "a": 0.0}],
        }))
        return str(path)

    def test_json_output(self, tmp_path, capsys):
        code, stdout, _ = run(["bus-power", self.net(tmp_path)], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert data["injections"][0] == {"bus": "b1", "p": 1.0, "q": 0.0}

    def test_csv_output_to_file(self, tmp_path, capsys):
        out = tmp_path / "inj.csv"
        code, _, _ = run(["bus-power", self.net(tmp_path), "--format", "csv",
                          "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[0] == "bus,p,q"

    def test_dangling_branch_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "buses": [{"id": "b1"}],
            "branches": [{"from": "b1", "to": "zz"}],
        }))
        code, _, err = run(["bus-power", str(path)], capsys)
        assert code == 1
        assert "zz" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(["bus-power", "/nonexistent/net.json"], capsys)
        assert code == 1

    def test_csv_quotes_ids_that_need_it(self, tmp_path, capsys):
        ids = ["a,b", "c\nd", 'e"f', "g\rh", "plain"]
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "buses": [{"id": i, "vmag": 1.0, "delta": 0.1 * n}
                      for n, i in enumerate(ids)],
            "branches": [{"from": a, "to": b, "ymag": 1.0, "g": 1.0,
                          "b": 0.5, "a": 0.2}
                         for a, b in zip(ids, ids[1:])],
        }))
        code, stdout, _ = run(["bus-power", str(path), "--format", "csv"],
                              capsys)
        assert code == 0
        code, js, _ = run(["bus-power", str(path)], capsys)
        want = [[inj["bus"], inj["p"], inj["q"]]
                for inj in json.loads(js)["injections"]]
        rows = list(csv.reader(io.StringIO(stdout, newline="")))
        assert rows[0] == ["bus", "p", "q"]
        assert [[b, float(p), float(q)] for b, p, q in rows[1:]] == want
        _, p, q = want[-1]
        assert stdout.endswith(
            f"\nplain,{format_float(p)},{format_float(q)}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("network,pq", [
        ({"buses": [{"id": "a"}, {"id": "b"}],
          "branches": [{"from": "a", "to": "b", "ymag": 1e308, "g": 1e308}]},
         "(inf, 0.0)"),
        ({"buses": [{"id": "a", "vmag": 1e200}, {"id": "b", "vmag": 1e200}],
          "branches": [{"from": "a", "to": "b", "ymag": 1e200, "g": 0.0,
                        "b": 0.0}]},
         "(nan, nan)"),
    ], ids=["inf", "nan"])
    def test_overflowing_injection_is_one_error_line(self, network, pq, fmt,
                                                     tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network))
        code, stdout, err = run(["bus-power", str(path), "--format", fmt],
                                capsys)
        assert code == 1
        assert stdout == ""
        assert err == ("error: OverflowError: bus 'a': injection (p, q) = "
                       f"{pq} is not finite\n")
        out = tmp_path / f"inj.{fmt}"
        code, stdout, _ = run(["bus-power", str(path), "--format", fmt,
                               "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("text,problem", [
        ('{"buses": 5}', "'buses' must be a list of objects, got 5"),
        ("[]", "network must be a JSON object, got list"),
        ('{"buses": [5]}', "buses[0] must be an object, got 5"),
        ('{"buses": [{"id": "a", "vmag": [1]}]}',
         "buses[0]: 'vmag' must be a number, got [1]"),
        ('{"buses": [{"id": "a"}], "branches": 7}',
         "'branches' must be a list of objects, got 7"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[" * 100000 + "]" * 100000, "JSON nested too deeply"),
    ], ids=["buses-number", "top-level-list", "bus-number", "vmag-list",
            "branches-number", "not-json", "deep-nesting"])
    def test_malformed_network_is_one_error_line(self, text, problem,
                                                 tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(text)
        code, stdout, err = run(["bus-power", str(path)], capsys)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {path}: {problem}\n"


class TestPlotScript:
    def test_emits_script_for_grid(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["scan", "--model", "real", "--n", "6", "--out", str(out)], capsys)
        code, stdout, _ = run(["plot-script", str(out), "--field",
                               "curvature"], capsys)
        assert code == 0
        assert "plot_curvature.py" in stdout

    def test_missing_scan_exits_one(self, capsys):
        code, _, err = run(["plot-script", "/nonexistent/scan.csv"], capsys)
        assert code == 1

    def test_json_scan_exits_one(self, tmp_path, capsys):
        out = tmp_path / "g.JSON"
        run(["scan", "--model", "real", "--n", "4", "--format", "json",
             "--out", str(out)], capsys)
        code, _, err = run(["plot-script", str(out)], capsys)
        assert code == 1
        assert err == (f"error: {out}: is a JSON scan; plot-script needs "
                       "a CSV scan\n")

    def test_non_number_field_exits_one(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["scan", "--model", "real", "--n", "4", "--out", str(out)],
            capsys)
        lines = out.read_text().split("\n")
        at = len("\n".join(lines[:-2])) + 1  # where the last row starts
        lines[-2] = "abc" + lines[-2][lines[-2].index(","):]
        out.write_text("\n".join(lines))
        code, _, err = run(["plot-script", str(out)], capsys)
        assert code == 1
        assert err == (f"error: {out}: byte {at} (row 16, column a1) differs "
                       "from what scan writes for its metadata\n")

    def test_foreign_schema_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, err = run(["plot-script", str(bad)], capsys)
        assert code == 1
        assert "header" in err

    def test_non_utf8_scan_exits_one(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["scan", "--model", "real", "--n", "3", "--out", str(out)],
            capsys)
        size = len(out.read_bytes())
        out.write_bytes(out.read_bytes() + b"\xff\n")
        code, _, err = run(["plot-script", str(out)], capsys)
        assert code == 1
        assert err == (f"error: {out}: byte {size} (after the last row) "
                       "differs from what scan writes for its metadata\n")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


SCALES = ("1e-200", "1e-100", "1", "1e100", "1e200")


def _unit_curvature(flow):
    """The curvature ``classify`` reports at (0.3, -0.2) at k = 1."""
    rep = geometry_report(PowerModel(FlowKind(flow)), (0.3, -0.2))
    return rep.curvature


class TestScaleRange:
    """Every V, R0 pair gives a result or a typed error, never a crash."""

    @pytest.mark.parametrize("flow", ["real", "imaginary", "complex"])
    @pytest.mark.parametrize("command", [
        ["classify", "--a1", "0.3", "--a2", "-0.2"],
        ["scan", "--n", "4", "--out", "scan.csv"],
        ["diagonal", "--n", "5", "--out", "diag.csv"],
        ["verify-paper", "--samples", "3"],
    ], ids=lambda argv: argv[0])
    def test_extreme_scales(self, flow, command, tmp_path, capsys,
                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        for v in SCALES:
            for r0 in SCALES:
                argv = [command[0], "--model", flow, "--v", v, "--r0", r0,
                        *command[1:]]
                code, out, err = run(argv, capsys)
                assert code in (0, 1), argv
                assert "Traceback" not in err, argv
                if code == 1:
                    assert err.startswith("error: "), argv
                k = float(v) * float(v) / float(r0)
                if not (math.isfinite(k * k) and k * k > 0.0):
                    assert code == 1 and "scale k" in err, argv
                elif command[0] == "classify":
                    assert code == 0, argv
                    report = _strict_json(out)
                    assert report["class"] in (
                        "STABLE", "NEGDEF", "INDEF", "DEGEN")
                    # finite and of the unit curvature's sign, not an
                    # underflowed -0.0, at k = 1e100 too
                    curvature = report["curvature"]
                    assert curvature is not None, argv
                    assert math.isfinite(curvature) and curvature != 0.0, argv
                    assert (curvature > 0.0) == (_unit_curvature(flow) > 0.0)
                elif code == 0 and command[0] in ("scan", "diagonal"):
                    assert read_scan_csv(command[-1]).rows, argv


class TestOutOfMemory:
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli, "scan_grid", no_memory)
        code, stdout, stderr = run(["scan", "--model", "real", "--n", "4",
                                    "--out", str(tmp_path / "s.csv")],
                                   capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == ("error: MemoryError: Unable to allocate 8.00 TiB "
                          "for an array\n")


class TestVerifySelf:
    def test_passes_and_prints_lines(self, capsys):
        code, stdout, _ = run(["verify-self", "--samples", "40"], capsys)
        assert code == 0
        assert "11/11 checks passed" in stdout
        assert stdout.count("[pass]") == 11

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_fails_up_front(self, samples, capsys):
        code, stdout, stderr = run(["verify-self", "--samples", samples],
                                   capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "error: samples must be >= 1\n"


# Peak resident set (KiB) of a child that imports the CLI and, given
# arguments, runs it; given "read" and a path, it reads that scan file with
# read_scan instead. It is the child's own VmHWM: Linux carries ru_maxrss
# across exec, so that would start from the test process's resident set.
PEAK_RSS = """
import sys
import powergeom.cli
if sys.argv[1:2] == ["read"]:
    powergeom.scan_io.read_scan(sys.argv[2])
elif sys.argv[1:] and powergeom.cli.main(sys.argv[1:]) != 0:
    sys.exit(1)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _peak_kib(*argv):
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv],
                          capture_output=True, text=True,
                          env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_writes_in_bounded_memory(tmp_path, fmt):
    """A 512-by-512 scan file is written a block of rows at a time: the
    scan's peak memory exceeds that of the bare import by at most 64 MB,
    the scan's own columns included."""
    excess = _peak_kib("scan", "--model", "complex", "--n", "512",
                       "--format", fmt, "--out",
                       str(tmp_path / f"scan.{fmt}")) - _peak_kib()
    assert excess <= 64 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_reads_in_bounded_memory(tmp_path, fmt):
    """A 512-by-512 scan file is read back a block of rows at a time: the
    reader's peak memory exceeds that of the bare import by at most 64 MB,
    the re-scanned columns included."""
    path = str(tmp_path / f"scan.{fmt}")
    assert main(["scan", "--model", "complex", "--n", "512", "--format", fmt,
                 "--out", path]) == 0
    assert _peak_kib("read", path) - _peak_kib() <= 64 * 1024


# What an installer's console script does with a `module:attr` target:
# load it, then exit with its return value.
CONSOLE_SCRIPT = """
import sys
from importlib.metadata import EntryPoint
target = EntryPoint("powergeom", sys.argv[1], "console_scripts").load()
sys.argv[:] = ["powergeom"] + sys.argv[2:]
sys.exit(target())
"""


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this tree."""
    env = dict(os.environ)
    package_root = str(Path(powergeom.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_verification_unloaded():
    """The verification modules, their 977-line tables and `decimal` (for
    the self-check's oracle) load only when `verify-paper` or
    `verify-self` runs; the CLI's start-up, which every command pays,
    loads none of them."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, powergeom.cli; print(sorted("
         "{'powergeom.verify', 'powergeom.expressions', 'powergeom._tables',"
         " 'powergeom.fdcheck', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command,points", [
    ("scan", 99999999999 ** 2), ("diagonal", 99999999999)])
def test_scan_beyond_the_point_ceiling_exits_before_allocating(
        tmp_path, command, points):
    """A scan too large for any machine is refused by its size alone: at
    once, with one line on stderr and no file."""
    out = tmp_path / "scan.csv"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "powergeom.cli", command, "--model", "real",
         "--n", "99999999999", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: a {command} of n=99999999999 has {points} points, more "
        "than the 16777216 a scan may hold\n")
    assert not out.exists()
    assert elapsed < 2.0


def test_console_entry_point(tmp_path):
    """The declared `powergeom` script runs, installed or not.

    The entry point is read from `[project.scripts]` and called the way a
    generated console script calls it, in a fresh interpreter that sees the
    tree under test. Where a script is installed on PATH, it is run too.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "powergeom" in scripts

    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, scripts["powergeom"],
         "--version"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == powergeom.__version__ + "\n"

    if shutil.which("powergeom"):
        proc = subprocess.run(["powergeom", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == powergeom.__version__ + "\n"


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """The parser is built once per process: a usage error, --version and
    then real commands, run one after another in this process, exit,
    print and write what each does in a fresh one."""
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    env = dict(_child_env(), COLUMNS="80")
    out = tmp_path / "s.csv"
    for code, argv in (
            (2, ["scan", "--model", "real", "--n", "x", "--out", "s.csv"]),
            (0, ["--version"]),
            (0, ["scan", "--model", "complex", "--n", "5", "--out", "s.csv"]),
            (0, ["classify", "--model", "imaginary", "--a1", "0.3",
                 "--a2", "-0.2"]),
            (0, ["diagonal", "--model", "real", "--n", "5", "--out",
                 "s.csv"])):
        here = run(argv, capsys)
        written = out.read_bytes() if out.exists() else None
        proc = subprocess.run([sys.executable, "-m", "powergeom.cli", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env, timeout=60)
        assert here[0] == code, argv
        assert here == (proc.returncode, proc.stdout, proc.stderr), argv
        assert written == (out.read_bytes() if out.exists() else None)
