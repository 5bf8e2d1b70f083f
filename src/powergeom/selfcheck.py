"""Invariant battery behind the ``verify-self`` command.

Each check re-derives one of the package's contracts at runtime: the
finite-difference oracle for the jets, hand-derivable anchors, the two
curvature routes, diagonal identities, scale covariance, flow symmetries,
the tabulated-expansion anchors, and bisection root quality. The command
prints one pass/fail line per check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import expressions, geometry
from .expressions import quantity, trig_poly_eval
from .fdcheck import max_jet_deviation
from .models import FlowKind, PowerModel, eval_power, eval_power_jet
from .stability import locate_transitions, scan_grid
from .verify import verify_against_autodiff


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _points(seed: int, n: int, lo: float = -1.4, hi: float = 1.4):
    rng = random.Random(f"selfcheck:{seed}")
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


def _check_jets_vs_differences(samples: int, seed: int) -> CheckResult:
    worst = 0.0
    for kind in FlowKind:
        dev, _ = max_jet_deviation(PowerModel(kind),
                                   _points(seed, min(samples, 100)))
        worst = max(worst, dev)
    return CheckResult(
        "jet slots vs central differences", worst <= 1e-6,
        f"worst relative deviation {worst:.3e} (tolerance 1e-06)")


def _check_origin_anchors(samples: int, seed: int) -> CheckResult:
    real = eval_power_jet(PowerModel(FlowKind.REAL), 0.0, 0.0)
    imag = eval_power_jet(PowerModel(FlowKind.IMAGINARY), 0.0, 0.0)
    det = geometry.determinant(real.f11, real.f12, real.f22)
    errs = [abs(real.f11 + 2.0), abs(real.f12 - 2.0), abs(real.f22 + 2.0),
            abs(det), abs(imag.f11), abs(imag.f12), abs(imag.f22)]
    worst = max(errs)
    return CheckResult(
        "origin anchors (real metric, det, imaginary zero matrix)",
        worst <= 1e-9, f"worst absolute error {worst:.3e} (tolerance 1e-09)")


def _check_curvature_routes(samples: int, seed: int) -> CheckResult:
    worst = 0.0
    for kind in FlowKind:
        model = PowerModel(kind)
        k2 = model.k * model.k
        checked = 0
        for point in _points(seed + 1, 1000):
            metric = geometry.hessian_metric(model, point)
            if abs(geometry.metric_determinant(metric)) <= 0.1 * k2:
                continue
            closed = geometry.scalar_curvature_closed(model, point)
            oracle = geometry.scalar_curvature_oracle(model, point)
            worst = max(worst, abs(closed - oracle) / max(1.0, abs(oracle)))
            checked += 1
            if checked == min(samples, 100):
                break
    return CheckResult(
        "curvature closed form vs curvature-tensor route", worst <= 1e-6,
        f"worst relative deviation {worst:.3e} (tolerance 1e-06)")


def _check_imaginary_diagonal(samples: int, seed: int) -> CheckResult:
    model = PowerModel(FlowKind.IMAGINARY)
    worst = 0.0
    for i in range(101):
        a = -1.4 + i * 2.8 / 100
        if abs(a) < 0.05:
            continue
        worst = max(worst, abs(geometry.scalar_curvature_closed(model, (a, a))))
    return CheckResult(
        "imaginary flow is flat on the equal-angle diagonal", worst <= 1e-6,
        f"max |R(a,a)| = {worst:.3e} (tolerance 1e-06)")


def _check_diagonal_determinants(samples: int, seed: int) -> CheckResult:
    real = PowerModel(FlowKind.REAL)
    comp = PowerModel(FlowKind.COMPLEX)
    worst_real = 0.0
    worst_comp = 0.0
    for i in range(101):
        a = -1.4 + i * 2.8 / 100
        sec = 1.0 / math.cos(a)
        det_r = geometry.metric_determinant(geometry.hessian_metric(real, (a, a)))
        worst_real = max(worst_real, abs(det_r) / (1e-9 * sec**8))
        det_c = geometry.metric_determinant(geometry.hessian_metric(comp, (a, a)))
        expected = -4.0 * sec**4 * math.tan(a) ** 2
        worst_comp = max(worst_comp,
                         abs(det_c - expected) / (1e-9 * max(1.0, abs(expected))))
    ok = worst_real <= 1.0 and worst_comp <= 1.0
    return CheckResult(
        "diagonal determinant identities (real zero, complex closed form)",
        ok, f"scaled residuals real {worst_real:.3e}, complex {worst_comp:.3e} "
            "(tolerance 1.0)")


def _check_scale_law(samples: int, seed: int) -> CheckResult:
    bad = 0
    for kind in FlowKind:
        scaled = PowerModel(kind, v=3.0, r0=2.0)
        unit = PowerModel(kind)
        k = scaled.k
        for point in _points(seed + 2, 25):
            if eval_power(scaled, *point) != k * eval_power(unit, *point):
                bad += 1
            js = eval_power_jet(scaled, *point)
            ju = eval_power_jet(unit, *point)
            if any(ss != k * su for ss, su in zip(js, ju)):
                bad += 1
    return CheckResult(
        "scale law k = V^2/R0 is exact", bad == 0,
        f"{bad} violations over 75 points" if bad else
        "value and every jet slot scale exactly")


def _check_flow_symmetries(samples: int, seed: int) -> CheckResult:
    real = PowerModel(FlowKind.REAL)
    imag = PowerModel(FlowKind.IMAGINARY)
    comp = PowerModel(FlowKind.COMPLEX)
    worst = 0.0
    for (a1, a2) in _points(seed + 3, 100):
        p = eval_power(real, a1, a2)
        q = eval_power(imag, a1, a2)
        f = eval_power(comp, a1, a2)
        worst = max(
            worst,
            abs(p - eval_power(real, a2, a1)) / max(1.0, abs(p)),
            abs(q + eval_power(imag, a2, a1)) / max(1.0, abs(q)),
            abs(f - (p + q)) / max(1.0, abs(f)))
    return CheckResult(
        "real symmetric, imaginary antisymmetric, complex = real + imaginary",
        worst <= 1e-12, f"worst relative deviation {worst:.3e} "
                        "(tolerance 1e-12)")


def _check_table_anchors(samples: int, seed: int) -> CheckResult:
    errs: list[float] = []
    for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"):
        q = quantity(qid)
        errs.append(abs(trig_poly_eval(q.numerators[0], 0.0, 0.0) - 1.0))
        errs.append(abs(trig_poly_eval(q.denominators[0], 0.0, 0.0) + 1.0))
    for qid in ("METRIC_I_11", "METRIC_I_12", "METRIC_I_22"):
        q = quantity(qid)
        errs.append(abs(trig_poly_eval(q.numerators[0], 0.0, 0.0)))
    errs.append(abs(trig_poly_eval(quantity("METRIC_I_11").denominators[0],
                                   0.0, 0.0) + 1.0))
    jet = eval_power_jet(PowerModel(FlowKind.REAL), 0.0, 0.0)
    for qid, slot in (("METRIC_R_11", jet.f11), ("METRIC_R_12", jet.f12),
                      ("METRIC_R_22", jet.f22)):
        recon = expressions.reconstruct_quantity(quantity(qid), 0.0, 0.0)
        errs.append(abs(recon - slot))
    worst = max(errs)
    return CheckResult(
        "tabulated-expansion origin anchors", worst <= 1e-12,
        f"worst absolute error {worst:.3e} (tolerance 1e-12)")


def _check_denominator_families(samples: int, seed: int) -> CheckResult:
    ok = True
    for fam in ("R", "I", "C"):
        t11 = quantity(f"METRIC_{fam}_11").denominators[0].terms
        t12 = quantity(f"METRIC_{fam}_12").denominators[0].terms
        t22 = quantity(f"METRIC_{fam}_22").denominators[0].terms
        ok = ok and t11 == t12 == t22
    return CheckResult(
        "metric denominators identical term for term within each flow",
        ok, "the three transcriptions agree structurally" if ok
        else "transcriptions differ")


def _check_real_family_verified(samples: int, seed: int) -> CheckResult:
    report = verify_against_autodiff(PowerModel(FlowKind.REAL),
                                     samples=min(samples, 100), seed=seed)
    metric_ids = {"METRIC_R_11", "METRIC_R_12", "METRIC_R_22"}
    bad = [c.quantity_id for c in report.checks
           if c.quantity_id in metric_ids and c.status != "VERIFIED"]
    return CheckResult(
        "real-flow metric family verifies against the jets", not bad,
        "all three components VERIFIED" if not bad else
        f"not verified: {', '.join(bad)}")


def _check_bisection_roots(samples: int, seed: int) -> CheckResult:
    model = PowerModel(FlowKind.IMAGINARY)
    scan = scan_grid(model, (-1.3, 1.3), n=33)
    transitions = locate_transitions(scan)
    if not transitions.det_zeros:
        return CheckResult("bisected roots re-evaluate near zero", False,
                           "no determinant crossings found")
    worst = max(abs(z.det_at_root) for z in transitions.det_zeros)
    wide = max(z.bracket for z in transitions.det_zeros)
    bound = transitions.det_bound
    ok = worst < bound and wide <= transitions.bisect_xtol
    return CheckResult(
        "bisected roots re-evaluate near zero", ok,
        f"{len(transitions.det_zeros)} roots, max |det| {worst:.3e} "
        f"(bound {bound:.1e}), max bracket {wide:.3e}")


_CHECKS: tuple[Callable[[int, int], CheckResult], ...] = (
    _check_jets_vs_differences,
    _check_origin_anchors,
    _check_curvature_routes,
    _check_imaginary_diagonal,
    _check_diagonal_determinants,
    _check_scale_law,
    _check_flow_symmetries,
    _check_table_anchors,
    _check_denominator_families,
    _check_real_family_verified,
    _check_bisection_roots,
)


def run_self_checks(samples: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run every invariant check; never raises, reports failures instead."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check(samples, seed))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
