"""The benchmark's workloads: seeded operations and their output checks.

Each workload is a round of operations generated from the seed. An
operation is a ``powergeom.cli.main(argv)`` call, or a ``scan_io.read_scan``
of a file an earlier operation wrote. Its check inspects what the program
wrote or returned and raises :class:`CheckFailed` on any mismatch; the
harness runs checks between operations, outside the timed interval.

* ``grid-io``: per flow, a 128-by-128 ``scan`` written as CSV and as JSON,
  then both files read back. The batch kernel and ``scan_io`` do nearly all
  the work, and memory peaks here.
* ``transitions``: per flow, four 64-by-64 scans with transitions on, over
  the four tiles of a seeded asymmetric cut of the domain, plus a
  4001-point ``diagonal``. Single-point bisection dominates. The tiles
  cover the whole domain whatever the seed, so the number of crossings,
  and with it the cost, barely depends on the seed.
* ``verify``: ``verify-paper --samples 1000`` for every flow at seeded
  ``--seed`` values, plus ``verify-self`` at its default seed.
  Trig-polynomial evaluation and the scalar jet path do the work; there is
  no grid and no scan file.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import struct
import sys
from dataclasses import dataclass
from typing import Callable

from probes import Capture

FLOWS = ("real", "imaginary", "complex")
GRID_N = 128
TILE_N = 64
DIAGONAL_N = 4001
SPIKE_THRESHOLD = 1e6
VERIFY_SAMPLES = 1000
ROW_SAMPLES = 32

#: Quantities the verification reports as discrepant for each flow.
KNOWN_DISCREPANT = {
    "real": set(),
    "imaginary": {"METRIC_I_12", "DET_I"},
    "complex": set(),
}

#: Layers each workload must reach in a traced round (names as in probes).
LAYERS = {
    "grid-io": ("cli.main", "stability.scan_grid", "backend.batch_slots",
                "scan_io.grid_table", "scan_io.render_csv",
                "scan_io.render_json", "scan_io.write_table",
                "scan_io.read_scan"),
    "transitions": ("cli.main", "stability.scan_grid",
                    "stability.scan_diagonal", "stability.locate_transitions",
                    "backend.batch_slots", "backend.unit_slots",
                    "scan_io.diagonal_table"),
    "verify": ("cli.main", "verify.verify_against_autodiff",
               "selfcheck.run_self_checks", "models.eval_power_jet",
               "expressions.eval_cs", "backend.unit_slots"),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, str], None]  # (returned value, stdout)


def cli_main(argv: list[str]) -> int:
    """Resolve the entry point at call time, so a traced round sees it."""
    return sys.modules["powergeom.cli"].main(argv)


def read_scan(path: str):
    return sys.modules["powergeom.scan_io"].read_scan(path)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _exit_zero(rc) -> None:
    _require(rc == 0, f"exit code {rc!r}")


def _wrote(stdout: str, records: int) -> None:
    _require(f"wrote {records} records" in stdout,
             f"no 'wrote {records} records' line")


def _printed_count(stdout: str, prefix: str) -> int:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return int(line.split(":")[1])
    raise CheckFailed(f"no '{prefix}' line in the output")


def _num(x: float) -> str:
    return repr(float(x))


# --- grid-io ---------------------------------------------------------------

def _row_digest(table) -> str:
    h = hashlib.sha256()
    pack = struct.Struct("<8d").pack
    for r in table.rows:
        h.update(pack(r.a1, r.a2, r.value, r.g11, r.g12, r.g22, r.det,
                      r.curvature))
        h.update(r.label.encode() + b"\0")
    return h.hexdigest()


def _bits(x: float) -> str:
    return float(x).hex()


def _check_rows_against_report(table, model, rng: random.Random) -> None:
    geometry_report = sys.modules["powergeom.geometry"].geometry_report
    for i in rng.sample(range(len(table.rows)), ROW_SAMPLES):
        row = table.rows[i]
        rep = geometry_report(model, (row.a1, row.a2))
        got = (row.value, row.g11, row.g12, row.g22, row.det, row.curvature)
        want = (rep.value, rep.metric.g11, rep.metric.g12, rep.metric.g22,
                rep.det, rep.curvature)
        _require([_bits(x) for x in got] == [_bits(x) for x in want]
                 and row.label == rep.classification.label,
                 f"row {i} at ({row.a1!r}, {row.a2!r}) differs from "
                 "geometry_report")


def grid_io_ops(seed: int, workdir: str, n: int = GRID_N) -> list[Op]:
    from powergeom.models import FlowKind, PowerModel

    rng = random.Random(f"grid-io:{seed}")
    ops = []
    for flow in FLOWS:
        v, r0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        lo, hi = rng.uniform(-1.5, -1.0), rng.uniform(1.0, 1.5)
        lo2, hi2 = rng.uniform(-1.5, -1.0), rng.uniform(1.0, 1.5)
        model = PowerModel(FlowKind(flow), v=v, r0=r0)
        want_meta = {"command": "scan", "model": flow, "n": str(n)}
        want_floats = {"v": v, "r0": r0, "a1_min": lo, "a1_max": hi,
                       "a2_min": lo2, "a2_max": hi2}
        digests: dict[str, str] = {}
        sample_seed = rng.randrange(2**32)
        for fmt in ("csv", "json"):
            path = os.path.join(workdir, f"grid-{flow}.{fmt}")
            argv = ["scan", "--model", flow, "--v", _num(v), "--r0", _num(r0),
                    "--min", _num(lo), "--max", _num(hi),
                    "--min2", _num(lo2), "--max2", _num(hi2),
                    "--n", str(n), "--format", fmt, "--out", path]

            def check_scan(rc, stdout):
                _exit_zero(rc)
                _wrote(stdout, n * n)

            ops.append(Op(f"scan {flow} {fmt}",
                          lambda argv=argv: cli_main(argv), check_scan))
        for fmt in ("csv", "json"):
            path = os.path.join(workdir, f"grid-{flow}.{fmt}")

            def check_read(table, stdout, fmt=fmt, model=model,
                           want_meta=want_meta, want_floats=want_floats,
                           digests=digests, sample_seed=sample_seed):
                _require(len(table.rows) == n * n,
                         f"{len(table.rows)} rows, expected {n * n}")
                meta = table.metadata
                for key, want in want_meta.items():
                    _require(meta.get(key) == want,
                             f"metadata {key}={meta.get(key)!r}, "
                             f"expected {want!r}")
                for key, want in want_floats.items():
                    _require(key in meta and float(meta[key]) == want,
                             f"metadata {key}={meta.get(key)!r}, "
                             f"expected {want!r}")
                _check_rows_against_report(table, model,
                                           random.Random(sample_seed))
                digests[fmt] = _row_digest(table)
                if fmt == "json":
                    _require(digests.pop("csv", None) == digests.pop("json"),
                             "CSV and JSON parse to different rows")

            ops.append(Op(f"read {flow} {fmt}",
                          lambda path=path: read_scan(path), check_read))
    return ops


# --- transitions -------------------------------------------------------------

def _read_csv_columns(path: str) -> dict[str, list]:
    """Columns of a scan CSV, parsed here rather than by the program."""
    columns: dict[str, list] = {}
    names: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if not names:
                names = parts
                columns = {name: [] for name in names}
                continue
            for name, part in zip(names, parts):
                columns[name].append(part)
    for name in names:
        if name != "class":
            columns[name] = [float(x) for x in columns[name]]
    return columns


def _line_crossings(dets: list[float]) -> int:
    """Crossings a line must yield: each exact zero and each sign change
    between two nonzero neighbours."""
    count = sum(1 for d in dets if d == 0.0)
    for d0, d1 in zip(dets, dets[1:]):
        if d0 != 0.0 and d1 != 0.0 and (d0 < 0.0) != (d1 < 0.0):
            count += 1
    return count


def _in_cell(root: float, positions: list[float], dets: list[float]) -> bool:
    """The root lies in a cell whose end values change sign or hit zero."""
    i = min(max(bisect.bisect_right(positions, root) - 1, 0),
            len(positions) - 2)
    if not positions[i] <= root <= positions[i + 1]:
        return False
    d0, d1 = dets[i], dets[i + 1]
    return d0 == 0.0 or d1 == 0.0 or (d0 < 0.0) != (d1 < 0.0)


def _spikes(curvatures: list[float], threshold: float) -> int:
    return sum(1 for r in curvatures
               if math.isfinite(r) and abs(r) > threshold)


def _check_transitions(stdout: str, path: str, n: int, grid: bool,
                       captured: list) -> None:
    cols = _read_csv_columns(path)
    det, a1, a2 = cols["det"], cols["a1"], cols["a2"]
    rows = n * n if grid else n
    _require(len(det) == rows, f"{len(det)} rows in {path}, expected {rows}")
    if grid:
        ax1, ax2 = a1[:n], a2[::n]
        row_dets = {ax2[j]: det[j * n:(j + 1) * n] for j in range(n)}
        col_dets = {ax1[i]: det[i::n] for i in range(n)}
        expected = (sum(_line_crossings(d) for d in row_dets.values())
                    + sum(_line_crossings(d) for d in col_dets.values()))
    else:
        expected = _line_crossings(det)
    printed = _printed_count(stdout, "det zero crossings")
    _require(printed == expected,
             f"{printed} crossings printed, the det column has {expected}")
    spikes = _printed_count(stdout, "curvature spikes")
    want_spikes = _spikes(cols["curvature"], SPIKE_THRESHOLD)
    _require(spikes == want_spikes,
             f"{spikes} spikes printed, the curvature column has "
             f"{want_spikes}")
    if captured is None:
        return  # locate_transitions is not a public name any more
    _require(len(captured) == 1, f"{len(captured)} transition sets returned")
    zeros = captured[0].det_zeros
    _require(len(zeros) == printed,
             f"{len(zeros)} crossings returned, {printed} printed")
    for z in zeros:
        if z.line == "row":
            ok = z.level in row_dets and _in_cell(z.root, ax1,
                                                  row_dets[z.level])
        elif z.line == "col":
            ok = z.level in col_dets and _in_cell(z.root, ax2,
                                                  col_dets[z.level])
        else:
            ok = _in_cell(z.root, a1, det)
        _require(ok, f"{z.line} crossing at {z.root!r} (level {z.level!r}) "
                     "lies in no cell where det changes sign")


def transitions_ops(seed: int, workdir: str, n: int = TILE_N,
                    diagonal_n: int = DIAGONAL_N) -> list[Op]:
    rng = random.Random(f"transitions:{seed}")
    capture = Capture("stability", "locate_transitions")
    ops = []
    lo, hi = -1.5, 1.5
    for flow in FLOWS:
        v, r0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        cut1, cut2 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        model = ["--model", flow, "--v", _num(v), "--r0", _num(r0)]
        tiles = [(a, b, c, d) for (c, d) in ((lo, cut2), (cut2, hi))
                 for (a, b) in ((lo, cut1), (cut1, hi))]
        for k, (a, b, c, d) in enumerate(tiles):
            path = os.path.join(workdir, f"tile-{flow}-{k}.csv")
            argv = ["scan", *model, "--min", _num(a), "--max", _num(b),
                    "--min2", _num(c), "--max2", _num(d), "--n", str(n),
                    "--spike-threshold", _num(SPIKE_THRESHOLD), "--out", path]
            ops.append(Op(f"scan {flow} tile {k}",
                          lambda argv=argv: cli_main(argv),
                          _transition_check(path, n, True, capture)))
        path = os.path.join(workdir, f"diagonal-{flow}.csv")
        argv = ["diagonal", *model, "--min", _num(lo), "--max", _num(hi),
                "--n", str(diagonal_n),
                "--spike-threshold", _num(SPIKE_THRESHOLD), "--out", path]
        ops.append(Op(f"diagonal {flow}", lambda argv=argv: cli_main(argv),
                      _transition_check(path, diagonal_n, False, capture)))
    return ops


def _transition_check(path: str, n: int, grid: bool, capture: Capture):
    def check(rc, stdout):
        captured = capture.take() if capture.present else None
        _exit_zero(rc)
        _wrote(stdout, n * n if grid else n)
        _check_transitions(stdout, path, n, grid, captured)
    return check


# --- verify ------------------------------------------------------------------

def _check_report(path: str, flow: str, samples: int) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report.get("model") == flow,
             f"report model {report.get('model')!r}")
    statuses = {q["id"]: q["status"] for q in report["quantities"]}
    _require(statuses and set(statuses.values()) <= {"VERIFIED", "DISCREPANT"},
             f"unexpected statuses {sorted(set(statuses.values()))}")
    discrepant = {qid for qid, status in statuses.items()
                  if status == "DISCREPANT"}
    _require(discrepant == KNOWN_DISCREPANT[flow],
             f"{flow}: discrepant {sorted(discrepant)}, expected "
             f"{sorted(KNOWN_DISCREPANT[flow])}")
    _require(report.get("samples") == samples,
             f"report samples {report.get('samples')!r}")


def verify_ops(seed: int, workdir: str,
               samples: int = VERIFY_SAMPLES) -> list[Op]:
    rng = random.Random(f"verify:{seed}")
    ops = []
    for flow in FLOWS:
        path = os.path.join(workdir, f"verify-{flow}.json")
        argv = ["verify-paper", "--model", flow, "--samples", str(samples),
                "--seed", str(rng.randrange(10**6)), "--out", path]

        def check(rc, stdout, path=path, flow=flow):
            _exit_zero(rc)
            _check_report(path, flow, samples)

        ops.append(Op(f"verify-paper {flow}",
                      lambda argv=argv: cli_main(argv), check))
    # verify-self runs at its default seed: at about 3 seeds in 100 its
    # finite-difference check misses its 1e-6 tolerance (a known defect of
    # the self-check, not of this workload's operations).
    argv = ["verify-self"]

    def check_self(rc, stdout):
        _exit_zero(rc)
        _require("[FAIL]" not in stdout, "a self-check failed")
        last = stdout.strip().splitlines()[-1]
        done, _, total = last.split()[0].partition("/")
        _require(last.endswith("checks passed") and done == total,
                 f"summary line {last!r}")

    ops.append(Op("verify-self", lambda: cli_main(argv), check_self))
    return ops


OPS = {
    "grid-io": grid_io_ops,
    "transitions": transitions_ops,
    "verify": verify_ops,
}
