"""Third-order forward jets in two variables.

A :class:`Jet3` bundles a scalar field value with every partial derivative
up to third order with respect to two coordinates, ten numbers in total.
Mixed partials are stored once (``f12`` covers both differentiation orders),
and arithmetic propagates all slots exactly, so downstream metric and
curvature formulas read derivatives off directly with no symbolic algebra
and no finite-difference noise.

The engine is fixed at two variables and order three, which is exactly what
the fluctuation metric and its scalar curvature consume. Slots hold raw
partial derivatives, not Taylor coefficients; the Leibniz and chain-rule
formulas below carry the combinatorial factors.

All jets are immutable values and every operation is a pure function, so
evaluation is safe from any number of threads.

This is the general-purpose jet library, and the reference the flow
kernel is tested against: ``powergeom.backend`` evaluates the flow
surfaces with one straight-line kernel that writes out the composition of
:func:`jet_seed`, :func:`jet_tan`, :func:`jet_linear`, :func:`jet_mul` and
:func:`jet_reciprocal` operation for operation, and the tests require the
two to agree bit for bit. Slots may also hold equal-length ndarrays, one
element per point: :func:`jet_linear`, :func:`jet_scale`, :func:`jet_mul`
and :func:`jet_apply_univariate` are plain arithmetic and run elementwise
with the same bits per element as on floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DivisionByNearZero

#: Absolute guard on a division's denominator value. The flow surfaces are
#: never evaluated at tan poles, so a smaller magnitude means a blowup that
#: should surface as a typed error instead of inf/nan slots.
DIV_GUARD = 1e-14


class Jet3(NamedTuple):
    """Value and partials up to third order of a scalar field of (a1, a2)."""

    f: float
    f1: float
    f2: float
    f11: float
    f12: float
    f22: float
    f111: float
    f112: float
    f122: float
    f222: float


#: Derivatives (g, g', g'', g''') of a univariate outer function at a point.
UnivariateJet = tuple


def jet_const(value: float) -> Jet3:
    """Jet of a constant: all derivative slots exactly zero."""
    if not math.isfinite(value):
        raise ValueError(f"constant jet requires a finite value, got {value!r}")
    return Jet3(float(value), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def jet_seed(var_index: int, value: float) -> Jet3:
    """Jet of coordinate ``var_index`` (1 or 2) at ``value``.

    The matching first partial is exactly 1; every other slot is exactly 0.
    """
    if not math.isfinite(value):
        raise ValueError(f"seed value must be finite, got {value!r}")
    if var_index == 1:
        return Jet3(float(value), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if var_index == 2:
        return Jet3(float(value), 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    raise ValueError(f"var_index must be 1 or 2, got {var_index!r}")


def jet_linear(a: Jet3, b: Jet3, alpha: float, beta: float) -> Jet3:
    """Slotwise linear combination ``alpha*a + beta*b``."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("linear combination coefficients must be finite")
    return Jet3(
        alpha * a.f + beta * b.f,
        alpha * a.f1 + beta * b.f1,
        alpha * a.f2 + beta * b.f2,
        alpha * a.f11 + beta * b.f11,
        alpha * a.f12 + beta * b.f12,
        alpha * a.f22 + beta * b.f22,
        alpha * a.f111 + beta * b.f111,
        alpha * a.f112 + beta * b.f112,
        alpha * a.f122 + beta * b.f122,
        alpha * a.f222 + beta * b.f222,
    )


def jet_scale(a: Jet3, factor: float) -> Jet3:
    """Every slot multiplied by ``factor``."""
    return Jet3(
        factor * a.f,
        factor * a.f1,
        factor * a.f2,
        factor * a.f11,
        factor * a.f12,
        factor * a.f22,
        factor * a.f111,
        factor * a.f112,
        factor * a.f122,
        factor * a.f222,
    )


def jet_mul(a: Jet3, b: Jet3) -> Jet3:
    """Product jet via the Leibniz rule truncated at order three."""
    return Jet3(
        a.f * b.f,
        a.f1 * b.f + a.f * b.f1,
        a.f2 * b.f + a.f * b.f2,
        a.f11 * b.f + 2.0 * a.f1 * b.f1 + a.f * b.f11,
        a.f12 * b.f + a.f1 * b.f2 + a.f2 * b.f1 + a.f * b.f12,
        a.f22 * b.f + 2.0 * a.f2 * b.f2 + a.f * b.f22,
        a.f111 * b.f + 3.0 * a.f11 * b.f1 + 3.0 * a.f1 * b.f11 + a.f * b.f111,
        a.f112 * b.f + a.f11 * b.f2 + 2.0 * a.f12 * b.f1
        + 2.0 * a.f1 * b.f12 + a.f2 * b.f11 + a.f * b.f112,
        a.f122 * b.f + a.f22 * b.f1 + 2.0 * a.f12 * b.f2
        + 2.0 * a.f2 * b.f12 + a.f1 * b.f22 + a.f * b.f122,
        a.f222 * b.f + 3.0 * a.f22 * b.f2 + 3.0 * a.f2 * b.f22 + a.f * b.f222,
    )


def jet_apply_univariate(g: UnivariateJet, u: Jet3) -> Jet3:
    """Compose an outer univariate function with an inner jet.

    ``g`` holds the outer derivatives ``(g0, g1, g2, g3)`` evaluated at
    ``u.f``. Slots follow the chain rule (Faa di Bruno) truncated at third
    order in two variables, e.g. ``h11 = g2*u1^2 + g1*u11``.
    """
    g0, g1, g2, g3 = g
    return Jet3(
        g0,
        g1 * u.f1,
        g1 * u.f2,
        g2 * u.f1 * u.f1 + g1 * u.f11,
        g2 * u.f1 * u.f2 + g1 * u.f12,
        g2 * u.f2 * u.f2 + g1 * u.f22,
        g3 * u.f1 * u.f1 * u.f1 + 3.0 * g2 * u.f1 * u.f11 + g1 * u.f111,
        g3 * u.f1 * u.f1 * u.f2
        + g2 * (u.f11 * u.f2 + 2.0 * u.f12 * u.f1) + g1 * u.f112,
        g3 * u.f1 * u.f2 * u.f2
        + g2 * (u.f22 * u.f1 + 2.0 * u.f12 * u.f2) + g1 * u.f122,
        g3 * u.f2 * u.f2 * u.f2 + 3.0 * g2 * u.f2 * u.f22 + g1 * u.f222,
    )


def reciprocal_derivatives(inv) -> UnivariateJet:
    """Derivatives of ``x -> 1/x`` at the point where ``1/x`` equals ``inv``.

    Plain arithmetic on ``inv``, so it applies to a float or elementwise
    to an ndarray with the same bits per element.
    """
    inv2 = inv * inv
    inv3 = inv2 * inv
    inv4 = inv3 * inv
    return (inv, -inv2, 2.0 * inv3, -6.0 * inv4)


def tan_derivatives(t) -> UnivariateJet:
    """Derivatives of ``tan`` at the point where it equals ``t``.

    Like :func:`reciprocal_derivatives`, valid for floats and ndarrays.
    """
    sec2 = 1.0 + t * t
    return (t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (sec2 + 2.0 * t * t))


def jet_reciprocal(b: Jet3) -> Jet3:
    """Jet of ``1/b``; raises :class:`DivisionByNearZero` inside
    :data:`DIV_GUARD`."""
    if abs(b.f) <= DIV_GUARD:
        raise DivisionByNearZero(
            f"denominator value {b.f!r} within guard {DIV_GUARD!r}")
    return jet_apply_univariate(reciprocal_derivatives(1.0 / b.f), b)


def jet_div(a: Jet3, b: Jet3) -> Jet3:
    """Quotient jet ``a/b``, computed as ``a * (1/b)``."""
    return jet_mul(a, jet_reciprocal(b))


def jet_tan(u: Jet3) -> Jet3:
    """Tangent of a jet."""
    return jet_apply_univariate(tan_derivatives(math.tan(u.f)), u)


def jet_sin(u: Jet3) -> Jet3:
    """Sine of a jet."""
    s = math.sin(u.f)
    c = math.cos(u.f)
    return jet_apply_univariate((s, c, -s, -c), u)


def jet_cos(u: Jet3) -> Jet3:
    """Cosine of a jet."""
    s = math.sin(u.f)
    c = math.cos(u.f)
    return jet_apply_univariate((c, -s, -c, s), u)
