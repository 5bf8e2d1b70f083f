"""Invariant battery behind the ``verify-self`` command.

Each check re-derives one of the package's contracts at runtime: the jets
against central differences of the scalar surface computed in ``decimal``
(:mod:`powergeom.fdcheck`, the only reference here that owes nothing to
the jet engine), hand-derivable anchors, the two curvature routes, the
diagonal identities ``verify-paper`` reports, scale covariance, flow
symmetries, the tabulated-expansion anchors, and bisection root quality.
The command prints one pass/fail line per check.

Every check but the scale law's runs at unit scale (k = 1), which that
law carries to any k. Sampled checks take the jets of their points
together from ``backend.batch_slots``, with the bits of
``eval_power_jet``; the single-point anchors keep ``eval_power_jet``. The
real-flow family check samples its three metric quantities alone, as
``verify-paper`` samples them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import backend, expressions, geometry
from .backend import Jet3
from .expressions import quantity
from .fdcheck import max_jet_deviations
from .models import FlowKind, PowerModel, eval_power, eval_power_jet
from .stability import locate_transitions, scan_grid
from .verify import _check_quantity, _diagonal_identities


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _points(seed: int, n: int):
    rng = random.Random(f"selfcheck:{seed}")
    return [(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            for _ in range(n)]


def _check_jets_vs_differences(samples: int, seed: int) -> CheckResult:
    deviations = max_jet_deviations(tuple(FlowKind),
                                    _points(seed, min(samples, 100)))
    # np.max, unlike max, keeps a NaN deviation, which fails the check
    worst = float(np.max([dev for dev, _ in deviations.values()]))
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
    need = min(samples, 100)
    points = np.array(_points(seed + 1, 1000))
    worst = 0.0
    for kind in FlowKind:
        # the first `need` candidates with |det| > 0.1 are checked
        jets = backend.batch_slots(kind, points[:, 0], points[:, 1])
        cols = geometry.geometry_columns(jets, 1.0)
        kept = np.flatnonzero(np.abs(cols["det"]) > 0.1)[:need]
        oracle = geometry.scalar_curvature_oracle(
            Jet3(*(slot[kept] for slot in jets)))
        dev = abs(cols["curvature"][kept] - oracle) / np.maximum(1, abs(oracle))
        worst = max(worst, float(dev.max(initial=0.0)))
    return CheckResult(
        "curvature closed form vs curvature-tensor route", worst <= 1e-6,
        f"worst relative deviation {worst:.3e} (tolerance 1e-06)")


def _check_imaginary_diagonal(samples: int, seed: int) -> CheckResult:
    identities, _ = _diagonal_identities(FlowKind.IMAGINARY)
    worst = identities["imaginary_diagonal_curvature_max_abs"]
    return CheckResult(
        "imaginary flow is flat on the equal-angle diagonal", worst <= 1e-6,
        f"max |R(a,a)| = {worst:.3e} (tolerance 1e-06)")


def _check_diagonal_determinants(samples: int, seed: int) -> CheckResult:
    real, _ = _diagonal_identities(FlowKind.REAL)
    comp, _ = _diagonal_identities(FlowKind.COMPLEX)
    # residuals in units of the 1e-9 tolerance
    worst_real = real["real_diagonal_det_max_scaled"] / 1e-9
    worst_comp = comp["complex_diagonal_det_formula_max_rel_dev"] / 1e-9
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
    devs = [0.0]
    for (a1, a2) in _points(seed + 3, 100):
        p = eval_power(real, a1, a2)
        q = eval_power(imag, a1, a2)
        f = eval_power(comp, a1, a2)
        devs += (abs(p - eval_power(real, a2, a1)) / max(1.0, abs(p)),
                 abs(q + eval_power(imag, a2, a1)) / max(1.0, abs(q)),
                 abs(f - (p + q)) / max(1.0, abs(f)))
    # np.max, unlike max, keeps a NaN deviation, which fails the check
    worst = float(np.max(devs))
    return CheckResult(
        "real symmetric, imaginary antisymmetric, complex = real + imaginary",
        worst <= 1e-12, f"worst relative deviation {worst:.3e} "
                        "(tolerance 1e-12)")


def _check_table_anchors(samples: int, seed: int) -> CheckResult:
    errs: list[float] = []
    for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"):
        q = quantity(qid)
        errs.append(abs(q.numerators[0](0.0, 0.0) - 1.0))
        errs.append(abs(q.denominators[0](0.0, 0.0) + 1.0))
    for qid in ("METRIC_I_11", "METRIC_I_12", "METRIC_I_22"):
        q = quantity(qid)
        errs.append(abs(q.numerators[0](0.0, 0.0)))
    errs.append(abs(quantity("METRIC_I_11").denominators[0](0.0, 0.0) + 1.0))
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
    model = PowerModel(FlowKind.REAL)
    bad = [qid for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22")
           if _check_quantity(quantity(qid), model, min(samples, 100),
                              seed).status != "VERIFIED"]
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
    """Run every invariant check and report failures instead of raising.

    Only a sample count below 1 raises (``ValueError``), before any check
    runs: with no samples the checks would pass vacuously.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    results = []
    for check in _CHECKS:
        try:
            results.append(check(samples, seed))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
