"""Verification of the tabulated expansions against the jet engine.

For every tabulated quantity of a model the harness samples deterministic
pseudo-random points in :data:`DEFAULT_BOUNDS`, reconstructs the tabulated
value, reads the matching jet-engine value (metric slot, determinant, or
closed-form curvature) off :func:`~powergeom.geometry.geometry_columns`
of the point's one jet, and records the worst relative deviation. A
quantity within :data:`VERIFY_TOL` is VERIFIED; anything else is
DISCREPANT with worst-point diagnostics. A point whose metric is
degenerate has no curvature and is resampled. Discrepancies never abort,
and transcriptions are never patched to force agreement: surfacing them
is the harness's whole job. The equal-angle identities measured here
(:func:`_diagonal_identities`) are also what ``verify-self`` checks.

Reports carry no timestamps or environment detail, so reruns with the same
seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from . import geometry
from .errors import DegenerateMetric
from .expressions import PaperQuantity, quantities_for
from .models import FlowKind, PowerModel, eval_power_jet

#: VERIFIED when max relative deviation stays at or below this.
VERIFY_TOL = 1e-6

#: Points whose reconstruction denominator falls below this fraction of the
#: denominator's coefficient mass are resampled: double-precision
#: cancellation in a near-vanishing denominator would swamp the 1e-6
#: verdict tolerance long before the quotient itself becomes meaningless.
RESAMPLE_DENOM_TOL = 1e-6

DEFAULT_BOUNDS = (-1.4, 1.4)


def _autodiff_value(target: str, model: PowerModel,
                    a1: float, a2: float) -> float:
    """``g11``, ``g12``, ``g22``, ``det`` or ``curvature`` from the jet at
    (a1, a2); a degenerate point's curvature raises DegenerateMetric."""
    cols = geometry.geometry_columns(eval_power_jet(model, a1, a2))
    if (target == "curvature" and geometry.CLASS_ORDER[cols["codes"]]
            is geometry.StabilityClass.DEGENERATE):
        raise DegenerateMetric(
            f"metric determinant {cols['det']!r} at {(a1, a2)} is "
            "degenerate; curvature undefined")
    return cols[target]


@dataclass(frozen=True)
class QuantityCheck:
    """Verification outcome for one tabulated quantity."""

    quantity_id: str
    target: str
    status: str  # VERIFIED or DISCREPANT
    max_rel_dev: float
    worst_point: tuple[float, float]
    worst_autodiff: float
    worst_reconstructed: float
    samples: int
    resampled: int
    repairs: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.quantity_id,
            "target": self.target,
            "status": self.status,
            "max_rel_dev": self.max_rel_dev,
            "worst_point": list(self.worst_point),
            "worst_autodiff": self.worst_autodiff,
            "worst_reconstructed": self.worst_reconstructed,
            "samples": self.samples,
            "resampled": self.resampled,
            "repaired_exponents": list(self.repairs),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class VerificationReport:
    model: PowerModel
    samples: int
    seed: int
    bounds: tuple[float, float]
    tolerance: float
    checks: tuple[QuantityCheck, ...]
    derived_identities: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def verified_ids(self) -> list[str]:
        return [c.quantity_id for c in self.checks if c.status == "VERIFIED"]

    def discrepant_ids(self) -> list[str]:
        return [c.quantity_id for c in self.checks if c.status == "DISCREPANT"]

    def to_dict(self) -> dict:
        return {
            "report": "verify-paper",
            "model": self.model.kind.value,
            "v": self.model.v,
            "r0": self.model.r0,
            "samples": self.samples,
            "seed": self.seed,
            "bounds": list(self.bounds),
            "tolerance": self.tolerance,
            "derived_identities": dict(sorted(self.derived_identities.items())),
            "notes": list(self.notes),
            "quantities": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [
            f"verification of tabulated expansions, {self.model.kind.value} "
            f"flow (V={self.model.v:g}, R0={self.model.r0:g})",
            f"samples={self.samples} seed={self.seed} "
            f"bounds=({self.bounds[0]:g}, {self.bounds[1]:g}) "
            f"tolerance={self.tolerance:g}",
            "",
            f"{'quantity':<14}{'status':<12}{'max rel dev':<14}worst point",
        ]
        for c in self.checks:
            lines.append(
                f"{c.quantity_id:<14}{c.status:<12}{c.max_rel_dev:<14.3e}"
                f"({c.worst_point[0]:+.6f}, {c.worst_point[1]:+.6f})")
            for note in c.notes:
                lines.append(f"    note: {note}")
            for rep in c.repairs:
                lines.append(f"    repaired exponent: {rep}")
        if self.derived_identities:
            lines.append("")
            lines.append("derived identities (diagonal a1 = a2):")
            for key, value in sorted(self.derived_identities.items()):
                lines.append(f"    {key} = {value:.3e}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _sample_stream(seed: int, tag: str):
    rng = random.Random(f"{seed}:{tag}")
    lo, hi = DEFAULT_BOUNDS
    while True:
        yield rng.uniform(lo, hi), rng.uniform(lo, hi)


def _check_quantity(q: PaperQuantity, model: PowerModel, samples: int,
                    seed: int) -> QuantityCheck:
    stream = _sample_stream(seed, q.id)
    mass = q.denominator_mass()
    worst = -1.0
    worst_point = (math.nan, math.nan)
    worst_auto = math.nan
    worst_recon = math.nan
    used = 0
    resampled = 0
    budget = 1000 * samples
    while used < samples and budget > 0:
        budget -= 1
        a1, a2 = next(stream)
        c1, s1 = math.cos(a1), math.sin(a1)
        c2, s2 = math.cos(a2), math.sin(a2)
        den = sum(p.eval_cs(c1, s1, c2, s2) for p in q.denominators)
        if abs(den) <= RESAMPLE_DENOM_TOL * mass:
            resampled += 1
            continue
        try:
            auto = _autodiff_value(q.target, model, a1, a2)
        except DegenerateMetric:
            resampled += 1
            continue
        num = sum(p.eval_cs(c1, s1, c2, s2) for p in q.numerators)
        recon = q.prefactor.value(c1, c2, model.v, model.r0) * num / den
        if not (math.isfinite(auto) and math.isfinite(recon)):
            resampled += 1
            continue
        dev = abs(recon - auto) / max(1.0, abs(auto))
        if dev > worst:
            worst = dev
            worst_point = (a1, a2)
            worst_auto = auto
            worst_recon = recon
        used += 1
    status = "VERIFIED" if 0.0 <= worst <= VERIFY_TOL else "DISCREPANT"
    return QuantityCheck(
        quantity_id=q.id, target=q.target, status=status,
        max_rel_dev=worst, worst_point=worst_point,
        worst_autodiff=worst_auto, worst_reconstructed=worst_recon,
        samples=used, resampled=resampled,
        repairs=tuple(q.repair_annotations()), notes=q.notes)


def _diagonal_identities(model: PowerModel) -> tuple[dict[str, float], tuple[str, ...]]:
    """Derived equal-angle facts, measured and reported per model."""
    from .stability import axis_samples  # local import avoids a cycle

    k = model.k
    out: dict[str, float] = {}
    notes: list[str] = []
    samples = [a for a in axis_samples(DEFAULT_BOUNDS, 101) if abs(a) >= 0.05]
    if model.kind is FlowKind.REAL:
        worst = 0.0
        for a in samples:
            det = _autodiff_value("det", model, a, a)
            sec = 1.0 / math.cos(a)
            worst = max(worst, abs(det) / (k * k * sec**8))
        out["real_diagonal_det_max_scaled"] = worst
        notes.append(
            "the equal-angle determinant of the real flow vanishes "
            "identically (scaled residual above is float noise), so every "
            "diagonal point is degenerate; a banded nonzero diagonal "
            "determinant profile is not a property of this surface")
    elif model.kind is FlowKind.IMAGINARY:
        worst = 0.0
        for a in samples:
            r = _autodiff_value("curvature", model, a, a)
            worst = max(worst, abs(r))
        out["imaginary_diagonal_curvature_max_abs"] = worst
    else:
        worst = 0.0
        for a in samples:
            det = _autodiff_value("det", model, a, a)
            sec = 1.0 / math.cos(a)
            expected = -4.0 * k * k * sec**4 * math.tan(a) ** 2
            worst = max(worst,
                        abs(det - expected) / max(1.0, abs(expected)))
        out["complex_diagonal_det_formula_max_rel_dev"] = worst
    return out, tuple(notes)


def verify_against_autodiff(model: PowerModel, samples: int = 100,
                            seed: int = 0) -> VerificationReport:
    """Check every tabulated quantity of the model against the jet engine."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    checks = tuple(_check_quantity(q, model, samples, seed)
                   for q in quantities_for(model.kind))
    identities, notes = _diagonal_identities(model)
    return VerificationReport(
        model=model, samples=samples, seed=seed, bounds=DEFAULT_BOUNDS,
        tolerance=VERIFY_TOL, checks=checks,
        derived_identities=identities, notes=notes)
