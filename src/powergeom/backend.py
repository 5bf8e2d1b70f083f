"""Unit-scale jets of the flow surfaces, per point or per point array.

One straight-line kernel, :func:`_slots`, computes the third-order jet of
a :class:`FlowKind` surface from ``tan a1`` and ``tan a2``. It is plain
arithmetic on local variables, so it runs on Python floats for one point
and elementwise on ndarray columns for many. ``unit_slots`` evaluates one
point on floats; bisection and single-point reports use it.
``batch_slots`` evaluates flat point arrays for the scans and the
verification harness's samples, in blocks of ``BLOCK`` points so that the
temporaries stay small at any grid size.

A :class:`Jet3` holds a field value and every partial derivative up to
third order in the two angles, ten raw partials with each mixed one
stored once; the metric and curvature read their slots directly.

The kernel is a generic jet composition written out, the one that
``tests/jet_reference.py`` keeps as its reference: the seed jets of a1
and a2 through ``tan``, ``u = tan a1 - tan a2``, the reciprocal of
``1 + u*u`` and, per flow, its product with ``u`` or ``1 + u``. It
performs every IEEE operation of that composition, in the
same order and association, including the products with the seeds'
exact ``0.0`` slots: they set the signs of zero slots (the real flow's
``f2`` is ``-0.0`` on the equal-angle line). Only products with the
seeds' exact ``1.0`` are left out, since ``x * 1.0 == x`` for every
double. The tests check the kernel against that composition bit for bit.

Both paths run the same function on the same operands, and ``tan`` comes
from ``math.tan`` per element (``np.tan`` rounds differently at some
points), so they give the same bits for every point regardless of where
the blocks split.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

#: Points per column-wise evaluation in :func:`batch_slots`.
BLOCK = 4096


class FlowKind(enum.Enum):
    """Which flow surface a model evaluates."""

    REAL = "real"
    IMAGINARY = "imaginary"
    COMPLEX = "complex"

    @classmethod
    def parse(cls, text: str) -> "FlowKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown flow kind {text!r}; expected real, "
                             "imaginary or complex") from None


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


def _slots(kind: FlowKind, t1, t2) -> Jet3:
    """Unit-scale (k=1) jet of flow ``kind`` from ``t1 = tan a1`` and
    ``t2 = tan a2``: floats for one point, equal-length columns for many.
    """
    # Derivatives of tan at a1 and a2: sec^2, 2 tan sec^2 and
    # 2 sec^2 (sec^2 + 2 tan^2), as in jet_reference.tan_derivatives.
    s1 = 1.0 + t1 * t1
    s2 = 1.0 + t2 * t2
    q1 = 2.0 * t1 * s1
    q2 = 2.0 * t2 * s2
    c1 = 2.0 * s1 * (s1 + 2.0 * t1 * t1)
    c2 = 2.0 * s2 * (s2 + 2.0 * t2 * t2)
    # Their products with the seeds' zero slots.
    o1 = s1 * 0.0
    o2 = s2 * 0.0
    q1z = q1 * 0.0
    q2z = q2 * 0.0
    c1z = c1 * 0.0
    c2z = c2 * 0.0
    # u = x + -1.0 * y slot by slot (jet_reference.jet_linear), where x
    # and y are the jets of tan a1 and tan a2: tan's derivatives applied
    # to the seeds (jet_apply_univariate),
    # x = (t1, s1, o1, q1 + o1, q1z + o1, ...).
    # Each parenthesized group below is one slot of x or of y.
    u = t1 + -1.0 * t2
    u1 = s1 + -1.0 * o2
    u2 = o1 + -1.0 * s2
    u11 = (q1 + o1) + -1.0 * (q2z * 0.0 + o2)
    u12 = (q1z + o1) + -1.0 * (q2z + o2)
    u22 = (q1z * 0.0 + o1) + -1.0 * (q2 + o2)
    u111 = ((c1 + 3.0 * q1 * 0.0 + o1)
            + -1.0 * (c2z * 0.0 * 0.0 + 3.0 * q2 * 0.0 * 0.0 + o2))
    u112 = (c1z + q1z + o1) + -1.0 * (c2z * 0.0 + q2z + o2)
    u122 = (c1z * 0.0 + q1z + o1) + -1.0 * (c2z + q2z + o2)
    u222 = ((c1z * 0.0 * 0.0 + 3.0 * q1 * 0.0 * 0.0 + o1)
            + -1.0 * (c2 + 3.0 * q2 * 0.0 + o2))
    # d = 1 + u*u: the constant one's slots plus the Leibniz square.
    d = 1.0 + u * u
    d1 = 0.0 + (u1 * u + u * u1)
    d2 = 0.0 + (u2 * u + u * u2)
    d11 = 0.0 + (u11 * u + 2.0 * u1 * u1 + u * u11)
    d12 = 0.0 + (u12 * u + u1 * u2 + u2 * u1 + u * u12)
    d22 = 0.0 + (u22 * u + 2.0 * u2 * u2 + u * u22)
    d111 = 0.0 + (u111 * u + 3.0 * u11 * u1 + 3.0 * u1 * u11 + u * u111)
    d112 = 0.0 + (u112 * u + u11 * u2 + 2.0 * u12 * u1 + 2.0 * u1 * u12
                  + u2 * u11 + u * u112)
    d122 = 0.0 + (u122 * u + u22 * u1 + 2.0 * u12 * u2 + 2.0 * u2 * u12
                  + u1 * u22 + u * u122)
    d222 = 0.0 + (u222 * u + 3.0 * u22 * u2 + 3.0 * u2 * u22 + u * u222)
    # v = 1/d (d >= 1: the angles, so their tans, are finite) by the chain
    # rule; r, e1, e2, e3: jet_reference.reciprocal_derivatives at d.
    r = 1.0 / d
    r2 = r * r
    r3 = r2 * r
    e1 = -r2
    e2 = 2.0 * r3
    e3 = -6.0 * (r3 * r)
    v1 = e1 * d1
    v2 = e1 * d2
    v11 = e2 * d1 * d1 + e1 * d11
    v12 = e2 * d1 * d2 + e1 * d12
    v22 = e2 * d2 * d2 + e1 * d22
    v111 = e3 * d1 * d1 * d1 + 3.0 * e2 * d1 * d11 + e1 * d111
    v112 = (e3 * d1 * d1 * d2 + e2 * (d11 * d2 + 2.0 * d12 * d1)
            + e1 * d112)
    v122 = (e3 * d1 * d2 * d2 + e2 * (d22 * d1 + 2.0 * d12 * d2)
            + e1 * d122)
    v222 = e3 * d2 * d2 * d2 + 3.0 * e2 * d2 * d22 + e1 * d222
    if kind is FlowKind.REAL:
        return Jet3(r, v1, v2, v11, v12, v22, v111, v112, v122, v222)
    # The other flows are m * v, the Leibniz product, with m = u or 1 + u.
    if kind is FlowKind.IMAGINARY:
        m, m1, m2, m11, m12, m22, m111, m112, m122, m222 = (
            u, u1, u2, u11, u12, u22, u111, u112, u122, u222)
    elif kind is FlowKind.COMPLEX:
        m = 1.0 + u
        m1, m2, m11, m12, m22, m111, m112, m122, m222 = (
            0.0 + u1, 0.0 + u2, 0.0 + u11, 0.0 + u12, 0.0 + u22,
            0.0 + u111, 0.0 + u112, 0.0 + u122, 0.0 + u222)
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return Jet3(
        m * r,
        m1 * r + m * v1,
        m2 * r + m * v2,
        m11 * r + 2.0 * m1 * v1 + m * v11,
        m12 * r + m1 * v2 + m2 * v1 + m * v12,
        m22 * r + 2.0 * m2 * v2 + m * v22,
        m111 * r + 3.0 * m11 * v1 + 3.0 * m1 * v11 + m * v111,
        m112 * r + m11 * v2 + 2.0 * m12 * v1
        + 2.0 * m1 * v12 + m2 * v11 + m * v112,
        m122 * r + m22 * v1 + 2.0 * m12 * v2
        + 2.0 * m2 * v12 + m1 * v22 + m * v122,
        m222 * r + 3.0 * m22 * v2 + 3.0 * m2 * v22 + m * v222,
    )


def unit_slots(kind: FlowKind, a1: float, a2: float) -> Jet3:
    """Unit-scale (k=1) jet of flow ``kind`` at the point (a1, a2)."""
    if not (math.isfinite(a1) and math.isfinite(a2)):
        bad = a2 if math.isfinite(a1) else a1
        raise ValueError(f"seed value must be finite, got {bad!r}")
    return _slots(kind, math.tan(a1), math.tan(a2))


def per_element(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` (``math.tan``, ``math.cos``, ...) of each element of ``a``,
    as the float path computes it; numpy's own ``tan`` rounds differently
    at some points."""
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64,
                       count=a.shape[0])


def batch_slots(kind: FlowKind, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Unit-scale jets for flat point arrays as an ``(n, 10)`` array.

    Row i equals ``unit_slots(kind, a1[i], a2[i])`` bit for bit, and the
    inputs are rejected where that would reject a point.
    """
    if not isinstance(kind, FlowKind):
        raise ValueError(f"unknown flow kind {kind!r}")
    a1 = np.ascontiguousarray(a1, dtype=np.float64)
    a2 = np.ascontiguousarray(a2, dtype=np.float64)
    if a1.shape != a2.shape or a1.ndim != 1:
        raise ValueError("batch_slots expects matching 1-d point arrays")
    bad = ~(np.isfinite(a1) & np.isfinite(a2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"seed values must be finite, got "
                         f"({a1[i]!r}, {a2[i]!r}) at point {i}")
    n = a1.shape[0]
    out = np.empty((n, 10), dtype=np.float64)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        jet = _slots(kind, per_element(math.tan, a1[start:stop]),
                     per_element(math.tan, a2[start:stop]))
        for j, column in enumerate(jet):
            out[start:stop, j] = column
    return out
