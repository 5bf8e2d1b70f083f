"""Acceptance criteria, one test per criterion, one pass/fail line each.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.
"""

import math
import random
import time

from jet_reference import one_point
from powergeom import backend, geometry
from powergeom.cli import main
from powergeom.expressions import quantity, reconstruct_quantity
from powergeom.fdcheck import max_jet_deviations
from powergeom.models import FlowKind, PowerModel, eval_power_jet
from powergeom.stability import scan_grid
from powergeom.verify import verify_against_autodiff


def report(num: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} {description}: {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_1_jet_engine_oracle():
    rng = random.Random(424242)
    points = [(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
              for _ in range(100)]
    start = time.perf_counter()
    worst = 0.0
    where = None
    deviations = max_jet_deviations(points)
    for kind in FlowKind:
        dev, info = deviations[kind]
        if dev > worst:
            worst, where = dev, (kind.value, info.get("slot"))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and elapsed < 5.0
    report(1, "jet slots match central differences at 100 seeded points",
           passed, f"worst rel dev {worst:.3e} (tol 1e-06) at {where}, "
                   f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_origin_anchors():
    real = eval_power_jet(PowerModel(FlowKind.REAL), 0.0, 0.0)
    imag = eval_power_jet(PowerModel(FlowKind.IMAGINARY), 0.0, 0.0)
    det = real.f11 * real.f22 - real.f12 * real.f12
    errs = {
        "g11+2": abs(real.f11 + 2.0),
        "g12-2": abs(real.f12 - 2.0),
        "g22+2": abs(real.f22 + 2.0),
        "det": abs(det),
        "imag g11": abs(imag.f11),
        "imag g12": abs(imag.f12),
        "imag g22": abs(imag.f22),
    }
    worst = max(errs.values())
    report(2, "origin anchors at k=1", worst <= 1e-9,
           f"worst abs error {worst:.3e} (tol 1e-09)")


def test_criterion_3_curvature_identity():
    worst = 0.0
    for kind in FlowKind:
        model = PowerModel(kind)
        k2 = model.k * model.k
        rng = random.Random(f"criterion3:{kind.value}")
        checked = 0
        while checked < 100:
            point = (rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            cols = one_point(backend.unit_slots(kind, *point), model.k)
            if abs(cols["det"]) <= 0.1 * k2:
                continue
            closed = cols["curvature"]
            oracle = geometry.scalar_curvature_oracle(
                eval_power_jet(model, *point))
            worst = max(worst, abs(closed - oracle) / max(1.0, abs(oracle)))
            checked += 1
    report(3, "closed-form and curvature-tensor routes agree",
           worst <= 1e-6, f"worst rel dev {worst:.3e} (tol 1e-06), "
                          "100 points per model")


def test_criterion_4_equal_phase_imaginary_curvature():
    model = PowerModel(FlowKind.IMAGINARY)
    worst = 0.0
    step = 2.8 / 100
    for i in range(101):
        a = -1.4 + i * step
        if abs(a) < 0.05:
            continue
        cols = one_point(backend.unit_slots(model.kind, a, a), model.k)
        assert not math.isnan(cols["curvature"])  # never degenerate here
        worst = max(worst, abs(cols["curvature"]))
    report(4, "imaginary flow curvature vanishes on the diagonal",
           worst <= 1e-6, f"max |R(a,a)| {worst:.3e} (tol 1e-06)")


def test_criterion_5_diagonal_determinant_identities():
    real = PowerModel(FlowKind.REAL)
    comp = PowerModel(FlowKind.COMPLEX)
    worst_real = 0.0
    worst_comp = 0.0
    step = 2.8 / 100
    for i in range(101):
        a = -1.4 + i * step
        sec = 1.0 / math.cos(a)
        det_r = one_point(backend.unit_slots(real.kind, a, a), real.k)["det"]
        worst_real = max(worst_real, abs(det_r) / (1e-9 * sec**8))
        det_c = one_point(backend.unit_slots(comp.kind, a, a), comp.k)["det"]
        expected = -4.0 * sec**4 * math.tan(a) ** 2
        worst_comp = max(worst_comp,
                         abs(det_c - expected) / (1e-9 * max(1.0, abs(expected))))
    passed = worst_real <= 1.0 and worst_comp <= 1.0
    report(5, "diagonal determinant identities", passed,
           f"real |det|/(1e-9 k^2 sec^8 a) max {worst_real:.3e}, complex "
           f"formula residual/(1e-9 rel) max {worst_comp:.3e} (both <= 1)")


def test_criterion_6_expression_anchors():
    errs = []
    for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"):
        q = quantity(qid)
        errs.append(abs(q.numerators[0](0.0, 0.0) - 1.0))
        errs.append(abs(q.denominators[0](0.0, 0.0) + 1.0))
    for qid in ("METRIC_I_11", "METRIC_I_12", "METRIC_I_22"):
        errs.append(abs(quantity(qid).numerators[0](0.0, 0.0)))
    errs.append(abs(quantity("METRIC_I_11").denominators[0](0.0, 0.0) + 1.0))
    jet = eval_power_jet(PowerModel(FlowKind.REAL), 0.0, 0.0)
    for qid, slot in (("METRIC_R_11", jet.f11), ("METRIC_R_12", jet.f12),
                      ("METRIC_R_22", jet.f22)):
        errs.append(abs(reconstruct_quantity(quantity(qid), 0.0, 0.0) - slot))
    worst = max(errs)
    report(6, "tabulated-expression origin anchors", worst <= 1e-12,
           f"worst abs error {worst:.3e} (tol 1e-12)")


def test_criterion_7_verification_harness():
    reports = {}
    lines = []
    for kind in FlowKind:
        rep = verify_against_autodiff(PowerModel(kind), samples=100, seed=0)
        rep2 = verify_against_autodiff(PowerModel(kind), samples=100, seed=0)
        deterministic = rep.to_json() == rep2.to_json()
        reports[kind] = (rep, deterministic)
        lines.append(f"{kind.value}: verified={len(rep.verified_ids())} "
                     f"discrepant={rep.discrepant_ids() or 'none'}")
    real_rep, real_det = reports[FlowKind.REAL]
    metric_ok = all(
        c.status == "VERIFIED" and c.max_rel_dev <= 1e-6
        for c in real_rep.checks
        if c.quantity_id in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"))
    discrepant_diagnosed = all(
        math.isfinite(c.worst_autodiff) and math.isfinite(c.worst_reconstructed)
        for rep, _ in reports.values()
        for c in rep.checks if c.status == "DISCREPANT")
    deterministic = all(d for _, d in reports.values())
    passed = metric_ok and discrepant_diagnosed and deterministic
    report(7, "verification harness over all quantities", passed,
           "; ".join(lines) + f"; deterministic={deterministic}")


def test_criterion_8_band_structure_and_scan_speed():
    scan = scan_grid(PowerModel(FlowKind.REAL), n=64)
    labels = {geometry.CLASS_LABELS[c]
              for c in scan.columns["codes"].tolist()}
    bands = "STABLE" in labels and bool(labels - {"STABLE"})
    start = time.perf_counter()
    for kind in FlowKind:
        scan_grid(PowerModel(kind), n=256)
    elapsed = time.perf_counter() - start
    passed = bands and elapsed < 5.0
    report(8, "band structure and 256x256 scan speed", passed,
           f"64x64 real classes {sorted(labels)}; three 256x256 scans in "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_9_determinism(tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(["scan", "--model", "imaginary", "--n", "48",
                     "--out", str(out)]) == 0
    scans_identical = out_a.read_bytes() == out_b.read_bytes()

    rep_a = tmp_path / "ra.json"
    rep_b = tmp_path / "rb.json"
    for out in (rep_a, rep_b):
        assert main(["verify-paper", "--model", "complex", "--samples", "50",
                     "--seed", "9", "--out", str(out)]) == 0
    reports_identical = rep_a.read_bytes() == rep_b.read_bytes()

    # 70x70 = 4900 points: two kernel blocks by default, one, or fifteen
    block_bytes = []
    for block in (backend.BLOCK, 70 * 70, 333):
        monkeypatch.setattr(backend, "BLOCK", block)
        out = tmp_path / f"block{block}.csv"
        assert main(["scan", "--model", "complex", "--n", "70",
                     "--out", str(out)]) == 0
        block_bytes.append(out.read_bytes())
    blocks_independent = len(set(block_bytes)) == 1

    capsys.readouterr()  # drop CLI chatter from the criterion line
    passed = scans_identical and reports_identical and blocks_independent
    report(9, "byte-identical reruns and block independence", passed,
           f"scan rerun identical={scans_identical}, report rerun "
           f"identical={reports_identical}, "
           f"kernel block split independent={blocks_independent}")
