"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

They run tiny versions of each workload in-process and check that a wrong
output, a wrong verdict and a raising operation each count as a failed
operation without stopping the harness, and that tracing survives missing
targets.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.fixture(autouse=True)
def restore_program():
    """Undo any rebinding a test leaves behind in the program's modules."""
    probes.import_program()
    modules = probes._program_modules()
    saved = [(mod, dict(vars(mod))) for mod in modules]
    from powergeom.expressions import TrigPolynomial
    eval_cs = vars(TrigPolynomial)["eval_cs"]
    yield
    for mod, attrs in saved:
        for key, value in attrs.items():
            if vars(mod).get(key) is not value:
                setattr(mod, key, value)
    TrigPolynomial.eval_cs = eval_cs


def run_once(ops, tracer=None):
    failures = []
    harness.run_round(ops, tracer, 0, failures)
    return failures


def failed_labels(failures):
    return sorted({f["op"] for f in failures})


def test_small_rounds_of_every_workload_pass(tmp_path):
    ops = (workloads.grid_io_ops(3, str(tmp_path), n=8)
           + workloads.transitions_ops(3, str(tmp_path), n=8, diagonal_n=33)
           + workloads.verify_ops(3, str(tmp_path), samples=20))
    assert run_once(ops) == []


def flip_digit(path):
    """Change the leading digit of the value column in the first data row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    row = next(i for i, line in enumerate(lines)
               if line[0] not in "#a")  # past metadata and header
    fields = lines[row].split(",")
    value = fields[2]
    k = next(i for i, ch in enumerate(value) if ch in "123456789")
    fields[2] = value[:k] + ("2" if value[k] == "1" else "1") + value[k + 1:]
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0


def test_flipped_digit_in_a_scan_file_is_a_failed_operation(tmp_path):
    ops = workloads.grid_io_ops(5, str(tmp_path), n=8)[:4]  # one flow
    csv_path = str(tmp_path / "grid-real.csv")
    ops.insert(2, Op("flip", lambda: flip_digit(csv_path),
                     lambda rc, out: None))
    failures = run_once(ops)
    assert failures, "a corrupted scan file passed its checks"
    assert set(failed_labels(failures)) <= {"read real csv", "read real json"}


def test_wrong_verdict_set_is_a_failed_operation(tmp_path, monkeypatch):
    import powergeom.cli as cli

    real_verify = cli.verify_against_autodiff

    def flipped(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        first = dataclasses.replace(report.checks[0], status="DISCREPANT")
        return dataclasses.replace(report, checks=(first, *report.checks[1:]))

    monkeypatch.setattr(cli, "verify_against_autodiff", flipped)
    ops = workloads.verify_ops(7, str(tmp_path), samples=20)[:3]
    failures = run_once(ops)
    assert failed_labels(failures) == ["verify-paper complex",
                                       "verify-paper imaginary",
                                       "verify-paper real"]


def test_raising_operation_is_a_failed_operation(tmp_path, monkeypatch):
    import powergeom.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "scan_grid", boom)
    ops = workloads.transitions_ops(9, str(tmp_path), n=8, diagonal_n=33)
    failures = run_once(ops)
    assert len(failures) == 12  # every tile scan; the diagonals still pass
    assert all("RuntimeError: boom" in f["error"] for f in failures)
    assert not any(label.startswith("diagonal") for label in
                   failed_labels(failures))


def test_tracer_rebinds_imported_names_and_reports_absent_targets(tmp_path):
    import powergeom.cli as cli
    import powergeom.stability as stability

    original = stability.scan_grid
    targets = probes.TARGETS + (probes.Target("backend.gone", "backend",
                                              "no_such_function"),)
    tracer = probes.Tracer(targets)
    tracer.install()
    try:
        assert cli.scan_grid is not original
        assert tracer.absent == ["backend.gone"]
        ops = workloads.transitions_ops(2, str(tmp_path), n=8,
                                        diagonal_n=33)[:1]
        assert run_once(ops, tracer) == []
    finally:
        tracer.uninstall()
    assert cli.scan_grid is original
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["stability.scan_grid"] == 1
    assert tracer.calls["backend.unit_slots"] > 0
    busy = tracer.busy["stability.locate_transitions"]
    self_time = tracer.self_time["stability.locate_transitions"]
    assert 0.0 < self_time < busy
    spans = {span[0]: span for span in tracer.spans}
    parent = spans["stability.scan_grid"][3]
    assert tracer.spans[parent][0] == "cli.main"
    metrics = probes.layer_metrics(tracer, 1)
    assert metrics["stability.scan_grid.points"] == 64
    assert metrics["stability.locate_transitions.evals_per_root"] > 0


def test_benchmark_json_matches_the_metric_tables():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.OPS)
    assert list(workloads.LAYERS) == list(workloads.OPS)
    fake = {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0}
    assert ([m["name"] for m in spec["end_to_end"]]
            == list(run.end_to_end(fake)))
    assert ([m["name"] for m in spec["per_layer"]]
            == [name for name, _, _ in probes.PER_LAYER]
            + ["trace_overhead_s"])
    units = {name: unit for name, unit, _ in probes.PER_LAYER}
    for metric in spec["per_layer"][:-1]:
        assert metric["unit"] == units[metric["name"]]
