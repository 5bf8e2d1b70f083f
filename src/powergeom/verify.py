"""Verification of the tabulated expansions against the jet engine.

For every tabulated quantity of a model the harness samples deterministic
pseudo-random points in :data:`DEFAULT_BOUNDS`, reconstructs the tabulated
value, reads the matching jet-engine value (metric slot, determinant, or
closed-form curvature) off the point's jet, and records the worst
relative deviation. Every comparison is made at unit scale (k = 1):
V and R0 enter only through each table's exact scale residual
(:meth:`~powergeom.expressions.PaperQuantity.residual`).

The draws are taken in chunks of at most :data:`CHUNK`, sized from the
samples still needed and the usable share seen so far; a chunk's
``random()`` values are drawn together and mapped onto the bounds as one
column. A chunk is evaluated column-wise, and each value only where the
walk reads it: the denominators at every draw, over shared power tables
(:class:`~powergeom.expressions.Powers`); the jet value where the
denominator passed, from the kernel's metric slots alone
(``backend.batch_metric``) for a metric entry or the determinant and
through :func:`~powergeom.stability.evaluate_points`, the evaluator the
scans use, for the curvature; the numerators and the prefactor where the
jet value is also defined, on a subset of the power tables. Every value
has the bits ``eval_power_jet`` and the float tables give its draw. The
chunk is then walked in draw order, so every result field has the bits
of evaluating one draw at a time; the tests keep that loop as the
reference.

A quantity whose samples all fall within :data:`VERIFY_TOL` is VERIFIED; one
sample beyond it makes the quantity DISCREPANT, with worst-point
diagnostics. A point whose metric is degenerate has no curvature and is
resampled. When the draws run out (``1000 * samples`` of them) before
``samples`` points were usable, a quantity with no discrepancy is SHORT,
not VERIFIED, and a note gives the shortfall. Discrepancies never abort,
and transcriptions are never patched to force agreement: surfacing them
is the harness's whole job. The equal-angle identities measured here
(:func:`_diagonal_identities`, all diagonal points in one
``evaluate_points`` call) are also what ``verify-self`` checks.

Reports carry no timestamps or environment detail, so reruns with the same
seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import backend, geometry
from .errors import DegenerateMetric
from .expressions import PaperQuantity, Powers, poly_sum, quantities_for
from .geometry import DEGEN_CODE
from .models import FlowKind, PowerModel
from .stability import axis_samples, evaluate_points

#: VERIFIED when max relative deviation stays at or below this.
VERIFY_TOL = 1e-6

#: Points whose reconstruction denominator falls below this fraction of the
#: denominator's coefficient mass are resampled: double-precision
#: cancellation in a near-vanishing denominator would swamp the 1e-6
#: verdict tolerance long before the quotient itself becomes meaningless.
RESAMPLE_DENOM_TOL = 1e-6

DEFAULT_BOUNDS = (-1.4, 1.4)

#: Most draws evaluated together. At 1000 samples a quantity's first
#: chunk asks for 1,063 draws; a cap of 1024 split off a second chunk of
#: 6-16 draws, which makes as many numpy calls as a full one. Larger
#: chunks hold more power-table and jet columns at once: at 2048 the
#: verify benchmark's peak RSS was 0.18 MB above 1024, and at 4096 it
#: was 1.7 MB (4.7%) above one draw at a time. One chunk's jets fit in
#: one ``backend.BLOCK``.
CHUNK = 2048


@dataclass(frozen=True)
class QuantityCheck:
    """Verification outcome for one tabulated quantity, at unit scale."""

    quantity_id: str
    target: str
    status: str  # VERIFIED, DISCREPANT or SHORT
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

    def short_ids(self) -> list[str]:
        return [c.quantity_id for c in self.checks if c.status == "SHORT"]

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


def _uniform(seed: int, tag: str):
    """The ``random()`` that draws the points of ``tag``."""
    return random.Random(f"{seed}:{tag}").random


def _sample_stream(seed: int, tag: str):
    """Points uniform on the default bounds, ``lo + (hi - lo) * random()``
    per coordinate (the formula of ``random.uniform``), a1 first: one
    point at a time, the points :func:`_draw` takes a chunk at a time."""
    draw = _uniform(seed, tag)
    lo, hi = DEFAULT_BOUNDS
    span = hi - lo
    while True:
        yield lo + span * draw(), lo + span * draw()


def _draw(uniform, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``size`` points of ``uniform``'s draws, as two columns:
    the chunk's ``2 * size`` values of ``random()`` in order, then
    :func:`_sample_stream`'s formula on the whole column, which gives each
    element the bits it gives one float."""
    lo, hi = DEFAULT_BOUNDS
    r = np.fromiter(iter(uniform, None), np.float64, 2 * size)
    points = lo + (hi - lo) * r
    return points[0::2], points[1::2]


def _autodiff_columns(target: str, kind: FlowKind, a1: np.ndarray,
                      a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``target`` of the flow's unit-scale geometry at the points (a1, a2),
    and where it is defined: all but degenerate points for ``curvature``.

    The curvature comes from :func:`~powergeom.stability.evaluate_points`;
    a metric entry or the determinant from the metric slots alone,
    ``backend.batch_metric``. Either way point i has the bits of the jet
    ``eval_power_jet(PowerModel(kind), a1[i], a2[i])``."""
    if target == "curvature":
        cols = evaluate_points(PowerModel(kind), a1, a2)
        return cols["curvature"], cols["codes"] != DEGEN_CODE
    g11, g12, g22 = backend.batch_metric(kind, a1, a2)
    values = {"g11": g11, "g12": g12, "g22": g22}.get(target)
    if values is None:
        values = geometry.determinant(g11, g12, g22)
    return values, np.ones(len(a1), dtype=bool)


def _chunk_size(need: int, drawn: int, used: int, left: int) -> int:
    """Draws for the next chunk: enough for ``need`` more usable points at
    the usable share seen so far (all of them, before the first chunk),
    plus a sixteenth, within the ``left`` draws of the budget and
    :data:`CHUNK`."""
    expected = -(-need * (drawn + 1) // (used + 1))
    return min(CHUNK, left, expected + expected // 16 + 1)


def _check_quantity(q: PaperQuantity, model: PowerModel, samples: int,
                    seed: int) -> QuantityCheck:
    """Sample ``q`` against the jets in chunks of draws, each evaluated
    column-wise, then walked in draw order as one draw at a time would be:
    a draw is resampled if the denominator nearly vanishes, the jet value
    is undefined or either value is not finite; the first maximum
    deviation is the worst point; sampling stops at ``samples`` usable
    draws or after ``1000 * samples`` draws.

    Each value is taken only where the walk can read it: the jet value at
    the draws whose denominator passed, the numerators and the prefactor
    where the jet value is also defined, on a :meth:`Powers.subset` of the
    chunk's power tables. Draws past the stop are computed but never
    looked at, so the result does not depend on where the chunks split."""
    uniform = _uniform(seed, q.id)
    tol = RESAMPLE_DENOM_TOL * q.denominator_mass()
    worst = -1.0
    worst_point = (math.nan, math.nan)
    worst_auto = math.nan
    worst_recon = math.nan
    used = 0
    drawn = 0
    draws = 1000 * samples
    while used < samples and drawn < draws:
        size = _chunk_size(samples - used, drawn, used, draws - drawn)
        a1, a2 = _draw(uniform, size)
        # np.cos/np.sin have the bits of math.cos/math.sin, as one draw at
        # a time takes them (TestNumpyRoutinesMatchMath; np.tan would not)
        c1, s1 = Powers(np.cos(a1)), Powers(np.sin(a1))
        c2, s2 = Powers(np.cos(a2)), Powers(np.sin(a2))
        # the values at the draws kept, ``rows`` of the chunk, may still
        # overflow: silence their warnings, the walk below rejects them
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            den = poly_sum(q.denominators, c1, s1, c2, s2)
            rows = np.flatnonzero(np.abs(den) > tol)
            values, defined = _autodiff_columns(q.target, model.kind,
                                                a1[rows], a2[rows])
            rows, auto = rows[defined], values[defined]
            c1, s1, c2, s2 = (p.subset(rows) for p in (c1, s1, c2, s2))
            num = poly_sum(q.numerators, c1, s1, c2, s2)
            pf = q.prefactor_value(c1, c2, model.v, model.r0)
            recon = pf * num / den[rows]
            dev = np.abs(recon - auto) / np.maximum(1.0, np.abs(auto))
        usable = np.flatnonzero(np.isfinite(auto) & np.isfinite(recon))
        usable = usable[:samples - used]
        if usable.size:
            i = usable[np.argmax(dev[usable])]
            if dev[i] > worst:
                worst = float(dev[i])
                worst_point = (float(a1[rows[i]]), float(a2[rows[i]]))
                worst_auto = float(auto[i])
                worst_recon = float(recon[i])
        used += usable.size
        drawn += int(rows[usable[-1]]) + 1 if used == samples else size
    resampled = drawn - used
    notes = q.notes
    if worst > VERIFY_TOL:
        status = "DISCREPANT"
    elif used < samples:
        status = "SHORT"
    else:
        status = "VERIFIED"
    if used < samples:
        notes += (f"sample shortfall: {used} of {samples} samples usable "
                  f"after {draws} draws",)
    return QuantityCheck(
        quantity_id=q.id, target=q.target, status=status,
        max_rel_dev=worst, worst_point=worst_point,
        worst_autodiff=worst_auto, worst_reconstructed=worst_recon,
        samples=used, resampled=resampled,
        repairs=tuple(q.repair_annotations()), notes=notes)


def _diagonal_identities(kind: FlowKind) -> tuple[dict[str, float], tuple[str, ...]]:
    """Derived equal-angle facts of the flow, measured at unit scale.

    All diagonal points are evaluated in one ``evaluate_points`` call;
    the residuals are then taken point by point in Python floats. A
    degenerate point's curvature raises DegenerateMetric.
    """
    out: dict[str, float] = {}
    notes: list[str] = []
    axis = axis_samples(DEFAULT_BOUNDS, 101)
    a_col = axis[np.abs(axis) >= 0.05]
    cols = evaluate_points(PowerModel(kind), a_col, a_col)
    samples, dets = a_col.tolist(), cols["det"].tolist()
    if kind is FlowKind.REAL:
        worst = 0.0
        for a, det in zip(samples, dets):
            sec = 1.0 / math.cos(a)
            worst = max(worst, abs(det) / sec**8)
        out["real_diagonal_det_max_scaled"] = worst
        notes.append(
            "the equal-angle determinant of the real flow vanishes "
            "identically (scaled residual above is float noise), so every "
            "diagonal point is degenerate; a banded nonzero diagonal "
            "determinant profile is not a property of this surface")
    elif kind is FlowKind.IMAGINARY:
        degenerate = np.flatnonzero(cols["codes"] == DEGEN_CODE)
        if degenerate.size:
            i = int(degenerate[0])
            raise DegenerateMetric(
                f"metric determinant {dets[i]!r} at "
                f"{(samples[i], samples[i])} is degenerate; curvature "
                "undefined")
        worst = 0.0
        for r in cols["curvature"].tolist():
            worst = max(worst, abs(r))
        out["imaginary_diagonal_curvature_max_abs"] = worst
    else:
        worst = 0.0
        for a, det in zip(samples, dets):
            sec = 1.0 / math.cos(a)
            expected = -4.0 * sec**4 * math.tan(a) ** 2
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
    identities, notes = _diagonal_identities(model.kind)
    return VerificationReport(
        model=model, samples=samples, seed=seed, bounds=DEFAULT_BOUNDS,
        tolerance=VERIFY_TOL, checks=checks,
        derived_identities=identities, notes=notes)
