"""Fluctuation metric, determinant, and scalar curvature of a 2-angle surface.

The metric is the Hessian of the surface: its components are second
partials read straight off a :class:`~powergeom.backend.Jet3`. Positive
diagonal components with positive determinant mean stable Gaussian
fluctuations; a vanishing determinant collapses the fluctuation volume and
makes the curvature undefined there.

Everything at a point comes from that point's one jet.
:func:`geometry_columns` is the one classifier: value, metric,
determinant, closed-form curvature and class code, elementwise on the
unit-scale (k = 1) jet columns ``backend.batch_slots`` returns, which it
scales in place. The class is a sign pattern of a metric that goes as k,
so it is read off the unit jet, degenerate where the unit determinant is
exactly zero. :func:`geometry_report` runs it on one point's one-element
columns, and the scans on whole columns; :func:`check_finite` refuses
the columns of either where a scaled quantity is out of float range.

:func:`scalar_curvature_oracle` is the independent check of the closed
form. It assembles Christoffel symbols of the first kind (half the third
partials, since the metric is a Hessian), forms the curvature tensor
component R_1212, and applies ``R = 2 R_1212 / det``. The two agree
identically; the closed form's ``S12*S111*S222`` term must enter with a
minus sign for that to hold, and the tests enforce the pair's agreement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend, models
from .backend import Jet3
from .errors import DegenerateMetric


class StabilityClass(enum.Enum):
    """Sign classification of the fluctuation metric at one point.

    Degeneracy takes precedence: once the unit determinant is exactly
    zero the Gaussian measure has collapsed and the signs of the minors
    carry no further information.
    """

    STABLE = "STABLE"
    NEGATIVE_DEFINITE = "NEGDEF"
    INDEFINITE = "INDEF"
    DEGENERATE = "DEGEN"

    @property
    def label(self) -> str:
        return self.value


#: Stability classes in code order: code i of a scan column is CLASS_ORDER[i].
CLASS_ORDER = (StabilityClass.STABLE, StabilityClass.NEGATIVE_DEFINITE,
               StabilityClass.INDEFINITE, StabilityClass.DEGENERATE)
#: Label of each class code, in code order.
CLASS_LABELS = tuple(c.label for c in CLASS_ORDER)
#: Class codes in code order; DEGEN_CODE marks a degenerate point.
_STABLE, _NEGDEF, _INDEF, DEGEN_CODE = range(4)


@dataclass(frozen=True)
class Metric2:
    """Hessian metric components at one point (value units per radian^2)."""

    g11: float
    g12: float
    g22: float
    point: tuple[float, float]


def determinant(g11, g12, g22):
    """``g11*g22 - g12^2``; on floats, or elementwise on ndarrays."""
    return g11 * g22 - g12 * g12


def is_degenerate(det):
    """Whether ``det`` is exactly zero; on floats, or elementwise."""
    return det == 0.0


def curvature_numerator(jet: Jet3):
    """Third-order combination in the closed-form scalar curvature."""
    return (jet.f22 * jet.f111 * jet.f122
            + jet.f12 * jet.f112 * jet.f122
            + jet.f11 * jet.f112 * jet.f222
            - jet.f12 * jet.f111 * jet.f222
            - jet.f11 * jet.f122 * jet.f122
            - jet.f22 * jet.f112 * jet.f112)


def _closed_curvature(jet: Jet3, det):
    """``R = -(1/2) det^-2 (S22 S111 S122 + S12 S112 S122 + S11 S112 S222
    - S12 S111 S222 - S11 S122^2 - S22 S112^2)`` elementwise, with ``det``
    the jet's metric determinant, and where every part of it is finite
    and ``det^2`` a normal float: a subnormal one has lost bits."""
    num, square = curvature_numerator(jet), det * det
    return (-0.5 * num / square, np.isfinite(num) & np.isfinite(square)
            & (square >= np.finfo(np.float64).tiny))


def scalar_curvature_oracle(jet: Jet3):
    """Scalar curvature via Christoffel symbols and ``R = 2 R_1212 / det``.

    For a Hessian metric the Christoffel symbols of the first kind are just
    half the third partials, and the second-derivative terms of the
    curvature tensor cancel by symmetry, leaving

        R_1212 = (1/4) g^{qr} (S_12q S_12r - S_22q S_11r).

    Kept independent of the closed form as its cross-check, on floats or
    columns. Raises :class:`DegenerateMetric` where it is undefined.
    """
    g11, g12, g22 = jet.f11, jet.f12, jet.f22
    det = determinant(g11, g12, g22)
    if np.any(is_degenerate(det)):
        raise DegenerateMetric(
            f"metric determinant {det!r} is degenerate; curvature undefined")
    gi11 = g22 / det
    gi22 = g11 / det
    gi12 = -g12 / det
    quad_a = (gi11 * jet.f112 * jet.f112
              + 2.0 * gi12 * jet.f112 * jet.f122
              + gi22 * jet.f122 * jet.f122)
    quad_b = (gi11 * jet.f122 * jet.f111
              + gi12 * (jet.f122 * jet.f112 + jet.f222 * jet.f111)
              + gi22 * jet.f222 * jet.f112)
    r1212 = 0.25 * (quad_a - quad_b)
    return 2.0 * r1212 / det


@dataclass(frozen=True)
class GeometryReport:
    """Everything the scans record about one point."""

    metric: Metric2
    value: float
    det: float
    curvature: float  # nan where the metric is degenerate
    classification: StabilityClass

    @property
    def point(self) -> tuple[float, float]:
        return self.metric.point


def geometry_columns(jet: Jet3, k: float) -> dict:
    """Value, metric, determinant, curvature and class code of every point
    of a surface of scale ``k``.

    ``jet`` holds unit-scale (k = 1) jets as distinct ndarray columns, one
    element per point. Codes index :data:`CLASS_ORDER` and come from the
    unit jet: DEGEN where its determinant is exactly zero, then INDEF
    where it is negative, then the sign of the diagonal. Then each column
    is scaled by k in place, and the value, metric and determinant are
    the scaled jet's. So is the curvature where its closed form is finite
    and defined; where the scaled parts overflow or ``det^2`` is not a
    normal float it is the unit jet's over k, and at degenerate points nan.
    """
    g11, g12, g22 = jet.f11, jet.f12, jet.f22
    with np.errstate(all="ignore"):
        det = determinant(g11, g12, g22)
        degen = is_degenerate(det)
        codes = np.where(
            degen, DEGEN_CODE,
            np.where(det < 0.0, _INDEF,
                     np.where((g11 > 0.0) & (g22 > 0.0), _STABLE, _NEGDEF))
        ).astype(np.int8)
        unit_curvature, _ = _closed_curvature(jet, det)
        for slot in jet:
            slot *= k
        det = determinant(g11, g12, g22)
        curvature, closed = _closed_curvature(jet, det)
        curvature = np.where(degen, np.nan,
                             np.where(closed, curvature, unit_curvature / k))
    return {"value": jet.f, "g11": g11, "g12": g12, "g22": g22,
            "det": det, "curvature": curvature, "codes": codes}


def check_finite(columns: dict[str, np.ndarray], k: float,
                 names: Sequence[str] = ("value", "g11", "g12", "g22",
                                         "det", "curvature")) -> None:
    """Raise ValueError naming the first of the quantities ``names`` that
    is not finite, with its value, k and point. ``columns`` are
    :func:`geometry_columns` columns plus the points' ``a1`` and ``a2``.
    A float out of range once scaled is a data error; a nan curvature is
    the undefined curvature of a DEGEN point."""
    for name in names:
        bad = ~np.isfinite(columns[name])
        if name == "curvature":
            bad &= columns["codes"] != DEGEN_CODE
        if bad.any():
            at = int(np.argmax(bad))
            raise ValueError(
                f"{name} is {float(columns[name][at])!r} at k = V^2/R0 = "
                f"{k!r} (a1 = {float(columns['a1'][at])!r}, "
                f"a2 = {float(columns['a2'][at])!r}): the scaled geometry "
                "is out of float range")


def geometry_report(model: models.PowerModel,
                    point: tuple[float, float]) -> GeometryReport:
    """Metric, determinant, curvature (nan if degenerate) and class: the
    :func:`geometry_columns` of the point's one-element columns, which
    :func:`check_finite` accepts (``ValueError`` otherwise)."""
    a1, a2 = models.check_angle(point[0]), models.check_angle(point[1])
    unit = backend.unit_slots(model.kind, a1, a2)
    cols = {**geometry_columns(Jet3(*map(np.atleast_1d, unit)), model.k),
            "a1": np.array([a1]), "a2": np.array([a2])}
    check_finite(cols, model.k)
    one = {key: col.item() for key, col in cols.items()}
    return GeometryReport(
        metric=Metric2(one["g11"], one["g12"], one["g22"], (a1, a2)),
        value=one["value"], det=one["det"], curvature=one["curvature"],
        classification=CLASS_ORDER[one["codes"]])
