"""Unit-scale jets of the flow surfaces, per point or per point array.

One straight-line kernel, :func:`_slots`, computes the third-order jet of
a :class:`FlowKind` surface from ``tan a1`` and ``tan a2``: a
:class:`Jet3`, the value and its ten raw partials up to third order in
the two angles, each mixed one stored once. It is plain arithmetic on
local variables. ``unit_slots`` runs it on floats for one point, for
two callers: bisection steps with few live brackets
(``stability._det_at``) and ``models.eval_power_jet``. ``batch_slots``
runs it elementwise on ndarray columns for every geometry column, the
scans', the verification samples' and single-point reports', in blocks
of ``BLOCK`` points so that the temporaries stay small, and returns a
:class:`Jet3` of owned columns.
The kernel computes the metric slots f11, f12 and f22 first, and
``batch_metric`` returns their columns alone, for the bisection steps
with many live brackets, which need only the determinant. All three take
``tan`` from ``math.tan`` per element (``np.tan`` rounds differently at
some points), so they give the same bits wherever the blocks split.

The kernel gives the bits, signed zeros included, of the jet composition
in ``tests/jet_reference.py`` (seeds through ``tan``, ``u = tan a1 -
tan a2``, ``1/(1 + u*u)``, then ``u`` or ``1 + u`` times it) without the
operations of known exact result. u's mixed partials are ``+0.0`` and
build no term. The rules, true at every finite angle (``s >= 1``,
``c > 0``, ``r = 1/d > 0``): ``x + -0.0`` and ``x * 1.0`` equal ``x``;
``0.0 + x`` equals ``x`` unless ``x`` is ``-0.0``, which a sum with a
nonzero term never is; adding ``±0.0`` to a sum whose running value
starts at ``+0.0`` changes nothing; nonzero terms keep order and grouping.
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


#: The members as module globals, which ``_slots`` reads faster than an
#: ``Enum`` member looked up on its class.
_REAL, _IMAGINARY, _COMPLEX = FlowKind


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


def _slots(kind: FlowKind, t1, t2, metric: bool = False):
    """Unit-scale (k=1) jet of flow ``kind`` from ``t1 = tan a1`` and
    ``t2 = tan a2``: floats for one point, equal-length columns for many.
    With ``metric``, only its second-order slots ``(f11, f12, f22)``,
    which the kernel computes first.
    """
    # Derivatives of tan at a1 and a2: sec^2, 2 tan sec^2 and
    # 2 sec^2 (sec^2 + 2 tan^2), as in jet_reference.tan_derivatives.
    s1 = 1.0 + t1 * t1
    s2 = 1.0 + t2 * t2
    q1 = 2.0 * t1 * s1
    q2 = 2.0 * t2 * s2
    # u = tan a1 - tan a2 has no mixed partials: u12, u112 and u122 are
    # +0.0, and every term built from them is left out below.
    u, u1, u2 = t1 - t2, s1, -s2
    u11, u22 = q1 + 0.0, 0.0 - q2
    # d = 1 + u*u: the constant one's slots plus the Leibniz square. A
    # sum with a nonzero term, 2*u1*u1 say, needs no 0.0 +.
    d = 1.0 + u * u
    d1 = 0.0 + (u1 * u + u * u1)
    d2 = 0.0 + (u2 * u + u * u2)
    d11 = u11 * u + 2.0 * u1 * u1 + u * u11
    d12 = u1 * u2 + u2 * u1
    d22 = u22 * u + 2.0 * u2 * u2 + u * u22
    # v = 1/d (d >= 1: the angles, so their tans, are finite) by the chain
    # rule; r, e1, e2, e3: jet_reference.reciprocal_derivatives at d.
    r = 1.0 / d
    r2 = r * r
    r3 = r2 * r
    e1 = -r2
    e2 = 2.0 * r3
    v1 = e1 * d1
    v2 = e1 * d2
    v11 = e2 * d1 * d1 + e1 * d11
    v12 = e2 * d1 * d2 + e1 * d12
    v22 = e2 * d2 * d2 + e1 * d22
    # The other flows are m * v, the Leibniz product, with m = u or 1 + u;
    # both share u's partials, and m12 * r, m112 * r, m122 * r are +0.0.
    if kind is _REAL:
        f11, f12, f22 = v11, v12, v22
    else:
        if kind is _IMAGINARY:
            m = u
        elif kind is _COMPLEX:
            m = 1.0 + u
        else:
            raise ValueError(f"unknown flow kind {kind!r}")
        f11 = u11 * r + 2.0 * u1 * v1 + m * v11
        f12 = 0.0 + u1 * v2 + u2 * v1 + m * v12
        f22 = u22 * r + 2.0 * u2 * v2 + m * v22
    if metric:
        return f11, f12, f22
    c1 = 2.0 * s1 * (s1 + 2.0 * t1 * t1)
    c2 = 2.0 * s2 * (s2 + 2.0 * t2 * t2)
    u111, u222 = c1, -c2
    d111 = 0.0 + (u111 * u + 3.0 * u11 * u1 + 3.0 * u1 * u11 + u * u111)
    d112 = 0.0 + u11 * u2 + u2 * u11
    d122 = 0.0 + u22 * u1 + u1 * u22
    d222 = 0.0 + (u222 * u + 3.0 * u22 * u2 + 3.0 * u2 * u22 + u * u222)
    e3 = -6.0 * (r3 * r)
    v111 = e3 * d1 * d1 * d1 + 3.0 * e2 * d1 * d11 + e1 * d111
    v112 = (e3 * d1 * d1 * d2 + e2 * (d11 * d2 + 2.0 * d12 * d1)
            + e1 * d112)
    v122 = (e3 * d1 * d2 * d2 + e2 * (d22 * d1 + 2.0 * d12 * d2)
            + e1 * d122)
    v222 = e3 * d2 * d2 * d2 + 3.0 * e2 * d2 * d22 + e1 * d222
    if kind is _REAL:
        return Jet3(r, v1, v2, f11, f12, f22, v111, v112, v122, v222)
    return Jet3(
        m * r,
        u1 * r + m * v1,
        u2 * r + m * v2,
        f11,
        f12,
        f22,
        u111 * r + 3.0 * u11 * v1 + 3.0 * u1 * v11 + m * v111,
        0.0 + u11 * v2 + 2.0 * u1 * v12 + u2 * v11 + m * v112,
        0.0 + u22 * v1 + 2.0 * u2 * v12 + u1 * v22 + m * v122,
        u222 * r + 3.0 * u22 * v2 + 3.0 * u2 * v22 + m * v222,
    )


def unit_slots(kind: FlowKind, a1: float, a2: float) -> Jet3:
    """Unit-scale (k=1) jet of flow ``kind`` at the point (a1, a2)."""
    if not (math.isfinite(a1) and math.isfinite(a2)):
        bad = a2 if math.isfinite(a1) else a1
        raise ValueError(f"seed value must be finite, got {bad!r}")
    return _slots(kind, math.tan(a1), math.tan(a2))


def per_element(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` of each element of ``a``, as the float path computes it.
    It serves the kernel's ``math.tan``: ``np.tan`` rounds differently at
    some points. (``np.cos`` and ``np.sin`` do not, and ``verify`` takes
    its cosines and sines from them.)"""
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64,
                       count=a.shape[0])


def _columns(kind: FlowKind, a1: np.ndarray, a2: np.ndarray,
             metric: bool) -> tuple[np.ndarray, ...]:
    """:func:`_slots` at flat point arrays, one owned column per slot,
    computed in blocks of ``BLOCK`` points."""
    if not isinstance(kind, FlowKind):
        raise ValueError(f"unknown flow kind {kind!r}")
    a1 = np.ascontiguousarray(a1, dtype=np.float64)
    a2 = np.ascontiguousarray(a2, dtype=np.float64)
    if a1.shape != a2.shape or a1.ndim != 1:
        raise ValueError("expected matching 1-d point arrays")
    bad = ~(np.isfinite(a1) & np.isfinite(a2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"seed values must be finite, got "
                         f"({a1[i]!r}, {a2[i]!r}) at point {i}")
    n = a1.shape[0]
    out = tuple(np.empty(n) for _ in range(3 if metric else 10))
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        slots = _slots(kind, per_element(math.tan, a1[start:stop]),
                       per_element(math.tan, a2[start:stop]), metric)
        for column, slot in zip(out, slots):
            column[start:stop] = slot
    return out


def batch_slots(kind: FlowKind, a1: np.ndarray, a2: np.ndarray) -> Jet3:
    """Unit-scale jets for flat point arrays as a :class:`Jet3` of ten
    distinct, owned float64 columns: element i of each has the bits of
    that slot of ``unit_slots(kind, a1[i], a2[i])``, and the inputs are
    rejected where that would reject a point."""
    return Jet3(*_columns(kind, a1, a2, False))


def batch_metric(kind: FlowKind, a1: np.ndarray, a2: np.ndarray) -> tuple:
    """The metric columns f11, f12, f22 of :func:`batch_slots`, bit for
    bit, without the kernel's other seven slots."""
    return _columns(kind, a1, a2, True)
