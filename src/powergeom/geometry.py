"""Fluctuation metric, determinant, and scalar curvature of a 2-angle surface.

The metric is the Hessian of the surface: its components are second
partials read straight off a :class:`~powergeom.jets.Jet3`. Positive
diagonal components with positive determinant mean stable Gaussian
fluctuations; a vanishing determinant collapses the fluctuation volume and
makes the curvature undefined there.

Two independent curvature routes are provided. The closed form combines
the second and third partials directly; the oracle assembles Christoffel
symbols of the first kind (half the third partials, since the metric is a
Hessian), forms the curvature tensor component R_1212, and applies
``R = 2 R_1212 / det``. The two agree identically; the closed form's
``S12*S111*S222`` term must enter with a minus sign for that to hold, and
the tests enforce the pair's agreement.

The determinant, the degeneracy test, the closed-form curvature and the
class sign table are written once, on plain arithmetic, so they run on
floats for one point and elementwise on ndarray columns for a scan.
:func:`geometry_columns` is the one classifier; :func:`geometry_report`
runs it on a single point and the scans on whole columns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import models
from .errors import DegenerateMetric
from .jets import Jet3, JetField

#: Relative degeneracy tolerance: |det| at or below
#: DEGEN_TOL * max(1, metric_inf_norm^2) counts as degenerate. Relative to
#: the squared norm because det scales as the square of the surface scale.
DEGEN_TOL = 1e-10

Field = Union[JetField, "models.PowerModel"]


def as_jet_field(field: Field) -> JetField:
    """Accept a PowerModel or any (a1, a2) -> Jet3 callable."""
    if isinstance(field, models.PowerModel):
        model = field
        return lambda a1, a2: models.eval_power_jet(model, a1, a2)
    return field


class StabilityClass(enum.Enum):
    """Sign classification of the fluctuation metric at one point.

    Degeneracy takes precedence: once the determinant sits inside the
    tolerance band the Gaussian measure has collapsed and the signs of the
    minors carry no further information.
    """

    STABLE = "STABLE"
    NEGATIVE_DEFINITE = "NEGDEF"
    INDEFINITE = "INDEF"
    DEGENERATE = "DEGEN"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "StabilityClass":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown stability class label {label!r}")


#: Stability classes in code order: code i of a scan column is CLASS_ORDER[i].
CLASS_ORDER = (StabilityClass.STABLE, StabilityClass.NEGATIVE_DEFINITE,
               StabilityClass.INDEFINITE, StabilityClass.DEGENERATE)
_STABLE, _NEGDEF, _INDEF, _DEGEN = range(4)


@dataclass(frozen=True)
class Metric2:
    """Hessian metric components at one point (value units per radian^2)."""

    g11: float
    g12: float
    g22: float
    point: tuple[float, float]

    @classmethod
    def from_jet(cls, jet: Jet3, point: tuple[float, float]) -> "Metric2":
        return cls(g11=jet.f11, g12=jet.f12, g22=jet.f22,
                   point=(float(point[0]), float(point[1])))

    @property
    def inf_norm(self) -> float:
        return max(abs(self.g11), abs(self.g12), abs(self.g22))


def hessian_metric(field: Field, point: tuple[float, float]) -> Metric2:
    """Metric components copied from the jet's second-order slots."""
    jet = as_jet_field(field)(point[0], point[1])
    return Metric2.from_jet(jet, point)


def determinant(g11, g12, g22):
    """``g11*g22 - g12^2``; on floats, or elementwise on ndarrays."""
    return g11 * g22 - g12 * g12


def is_degenerate(det, g11, g12, g22):
    """Whether |det| <= DEGEN_TOL * max(1, max|g|^2), on floats or elementwise.

    Written as a disjunction so that it needs no ``max``: multiplying by
    DEGEN_TOL and squaring are monotone, so each bound is one of the terms.
    """
    mag = abs(det)
    return ((mag <= DEGEN_TOL) | (mag <= DEGEN_TOL * (g11 * g11))
            | (mag <= DEGEN_TOL * (g12 * g12))
            | (mag <= DEGEN_TOL * (g22 * g22)))


def metric_determinant(metric: Metric2) -> float:
    """``g11*g22 - g12^2``."""
    return determinant(metric.g11, metric.g12, metric.g22)


def curvature_numerator(jet: Jet3):
    """Third-order combination in the closed-form scalar curvature."""
    return (jet.f22 * jet.f111 * jet.f122
            + jet.f12 * jet.f112 * jet.f122
            + jet.f11 * jet.f112 * jet.f222
            - jet.f12 * jet.f111 * jet.f222
            - jet.f11 * jet.f122 * jet.f122
            - jet.f22 * jet.f112 * jet.f112)


def closed_curvature(jet: Jet3, det):
    """``R = -(1/2) det^-2 (S22 S111 S122 + S12 S112 S122 + S11 S112 S222
    - S12 S111 S222 - S11 S122^2 - S22 S112^2)``, with ``det`` the jet's
    metric determinant."""
    return -0.5 * curvature_numerator(jet) / (det * det)


def _require_nondegenerate(metric: Metric2, det: float) -> None:
    if is_degenerate(det, metric.g11, metric.g12, metric.g22):
        raise DegenerateMetric(
            f"metric determinant {det!r} at {metric.point} is degenerate; "
            "curvature undefined")


def scalar_curvature_closed(field: Field, point: tuple[float, float]) -> float:
    """Scalar curvature from one jet via the closed form."""
    jet = as_jet_field(field)(point[0], point[1])
    metric = Metric2.from_jet(jet, point)
    det = metric_determinant(metric)
    _require_nondegenerate(metric, det)
    return closed_curvature(jet, det)


def scalar_curvature_oracle(field: Field, point: tuple[float, float]) -> float:
    """Scalar curvature via Christoffel symbols and ``R = 2 R_1212 / det``.

    For a Hessian metric the Christoffel symbols of the first kind are just
    half the third partials, and the second-derivative terms of the
    curvature tensor cancel by symmetry, leaving

        R_1212 = (1/4) g^{qr} (S_12q S_12r - S_22q S_11r).

    Kept deliberately independent of the closed form as its cross-check.
    """
    jet = as_jet_field(field)(point[0], point[1])
    metric = Metric2.from_jet(jet, point)
    det = metric_determinant(metric)
    _require_nondegenerate(metric, det)
    gi11 = metric.g22 / det
    gi22 = metric.g11 / det
    gi12 = -metric.g12 / det
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


def geometry_columns(jet: Jet3) -> dict[str, np.ndarray]:
    """Value, metric, determinant, curvature and class code of every point.

    ``jet`` holds ndarray columns, one element per point, or floats for a
    single point. Degenerate points get a nan curvature. Codes index
    :data:`CLASS_ORDER`; degeneracy takes precedence, then det<0, then the
    sign of the diagonal.
    """
    g11, g12, g22 = jet.f11, jet.f12, jet.f22
    det = determinant(g11, g12, g22)
    degen = is_degenerate(det, g11, g12, g22)
    if np.ndim(det) == 0:  # one point on floats: divide only where defined
        curvature = math.nan if degen else closed_curvature(jet, det)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            curvature = np.where(degen, np.nan, closed_curvature(jet, det))
    codes = np.where(
        degen, _DEGEN,
        np.where(det < 0.0, _INDEF,
                 np.where((g11 > 0.0) & (g22 > 0.0), _STABLE, _NEGDEF)))
    return {"value": jet.f, "g11": g11, "g12": g12, "g22": g22,
            "det": det, "curvature": curvature,
            "codes": codes.astype(np.int8)}


def geometry_report(field: Field, point: tuple[float, float]) -> GeometryReport:
    """Metric, determinant, curvature (nan if degenerate) and class."""
    jet = as_jet_field(field)(point[0], point[1])
    cols = geometry_columns(jet)
    return GeometryReport(metric=Metric2.from_jet(jet, point),
                          value=jet.f, det=cols["det"],
                          curvature=cols["curvature"],
                          classification=CLASS_ORDER[int(cols["codes"])])
