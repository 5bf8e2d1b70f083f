"""Generic third-order jet algebra in two variables, the tests' reference.

A :class:`~powergeom.backend.Jet3` holds a field value and its raw partial
derivatives up to third order in two coordinates. The functions here
propagate all ten slots exactly: Leibniz for products, the chain rule
(Faa di Bruno) for a univariate outer function. Slots hold raw partials,
not Taylor coefficients; the formulas carry the combinatorial factors.

``powergeom.backend._slots`` gives the bits of the composition in
:func:`reference_slots`, with the operations of known exact result left
out (``backend``'s docstring lists the rules), and the tests require the
two to agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from powergeom.backend import FlowKind, Jet3
from powergeom.geometry import geometry_columns

#: :func:`jet_reciprocal` rejects a denominator value this close to zero.
DIV_GUARD = 1e-14

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
    """Jet of ``1/b``; raises :class:`ZeroDivisionError` inside
    :data:`DIV_GUARD`."""
    if abs(b.f) <= DIV_GUARD:
        raise ZeroDivisionError(
            f"denominator value {b.f!r} within guard {DIV_GUARD!r}")
    return jet_apply_univariate(reciprocal_derivatives(1.0 / b.f), b)


def jet_tan(u: Jet3) -> Jet3:
    """Tangent of a jet."""
    return jet_apply_univariate(tan_derivatives(math.tan(u.f)), u)


_ONE = jet_const(1.0)


def reference_slots(kind: FlowKind, a1: float, a2: float) -> Jet3:
    """Unit-scale jet of flow ``kind`` by the generic composition: seeds
    through ``tan``, u = tan a1 - tan a2, the reciprocal of 1 + u*u, then
    u or 1 + u times it."""
    u = jet_linear(jet_tan(jet_seed(1, a1)), jet_tan(jet_seed(2, a2)),
                   1.0, -1.0)
    inv = jet_reciprocal(jet_linear(_ONE, jet_mul(u, u), 1.0, 1.0))
    if kind is FlowKind.REAL:
        return inv
    if kind is FlowKind.IMAGINARY:
        return jet_mul(u, inv)
    return jet_mul(jet_linear(_ONE, u, 1.0, 1.0), inv)


def paraboloid(a1: float, a2: float) -> Jet3:
    """Synthetic quadratic field a1^2 + a2^2."""
    x = jet_seed(1, a1)
    y = jet_seed(2, a2)
    return jet_linear(jet_mul(x, x), jet_mul(y, y), 1.0, 1.0)


def one_point(jet: Jet3, k: float = 1.0) -> dict:
    """``geometry_columns`` of one point's float jet, taken as the
    unit-scale jet of a surface of scale k: run on one-element columns,
    every result back as a Python float or int."""
    cols = geometry_columns(Jet3(*np.array(jet)[:, np.newaxis]), k)
    return {key: col.item() for key, col in cols.items()}
