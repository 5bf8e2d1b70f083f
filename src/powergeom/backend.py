"""Unit-scale jets of the flow surfaces, per point or per point array.

``unit_slots`` evaluates one point on Python floats; bisection, the
verification harness and single-point reports use it. ``batch_slots``
evaluates flat point arrays for the scans. It runs the same composition
with every jet slot an ndarray column, one element per point, in blocks of
``BLOCK`` points so that the temporaries stay small at any grid size.

Every numpy operation here is the IEEE operation the per-point path
performs, applied to each element, and ``tan`` comes from ``math.tan`` per
element (``np.tan`` rounds differently at some points), so both paths give
the same bits for every point regardless of where the blocks split.
"""

from __future__ import annotations

import math

import numpy as np

from . import jets
from .errors import DivisionByNearZero
from .jets import Jet3

KIND_REAL = 0
KIND_IMAGINARY = 1
KIND_COMPLEX = 2

#: Points per column-wise evaluation in :func:`batch_slots`.
BLOCK = 4096

_ONE = jets.jet_const(1.0)


def _flow(code: int, t1: Jet3, t2: Jet3, reciprocal) -> Jet3:
    """Flow surface ``code`` from the jets of ``tan a1`` and ``tan a2``."""
    u = jets.jet_linear(t1, t2, 1.0, -1.0)
    den = jets.jet_linear(_ONE, jets.jet_mul(u, u), 1.0, 1.0)
    inv = reciprocal(den)
    if code == KIND_REAL:
        return inv
    if code == KIND_IMAGINARY:
        return jets.jet_mul(u, inv)
    if code == KIND_COMPLEX:
        return jets.jet_mul(jets.jet_linear(_ONE, u, 1.0, 1.0), inv)
    raise ValueError(f"unknown flow kind code {code!r}")


def unit_slots(code: int, a1: float, a2: float) -> Jet3:
    """Unit-scale (k=1) jet of flow ``code`` at the point (a1, a2)."""
    return _flow(code, jets.jet_tan(jets.jet_seed(1, a1)),
                 jets.jet_tan(jets.jet_seed(2, a2)), jets.jet_reciprocal)


def _tan_column(var_index: int, a: np.ndarray) -> Jet3:
    """Jet of ``tan`` of coordinate ``var_index`` at each element of ``a``."""
    t = np.fromiter(map(math.tan, a.tolist()), dtype=np.float64,
                    count=a.shape[0])
    d1, d2 = (1.0, 0.0) if var_index == 1 else (0.0, 1.0)
    seed = Jet3(a, d1, d2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return jets.jet_apply_univariate(jets.tan_derivatives(t), seed)


def _reciprocal_column(b: Jet3) -> Jet3:
    """Column-wise :func:`jets.jet_reciprocal`, with the same guard."""
    near = np.abs(b.f) <= jets.DIV_GUARD
    if near.any():
        raise DivisionByNearZero(
            f"denominator value {b.f[near][0]!r} within guard "
            f"{jets.DIV_GUARD!r}")
    return jets.jet_apply_univariate(jets.reciprocal_derivatives(1.0 / b.f), b)


def batch_slots(code: int, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Unit-scale jets for flat point arrays as an ``(n, 10)`` array.

    Row i equals ``unit_slots(code, a1[i], a2[i])`` bit for bit, and the
    inputs are rejected where that would reject a point.
    """
    a1 = np.ascontiguousarray(a1, dtype=np.float64)
    a2 = np.ascontiguousarray(a2, dtype=np.float64)
    if a1.shape != a2.shape or a1.ndim != 1:
        raise ValueError("batch_slots expects matching 1-d point arrays")
    if code not in (KIND_REAL, KIND_IMAGINARY, KIND_COMPLEX):
        raise ValueError(f"unknown flow kind code {code!r}")
    bad = ~(np.isfinite(a1) & np.isfinite(a2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"seed values must be finite, got "
                         f"({a1[i]!r}, {a2[i]!r}) at point {i}")
    n = a1.shape[0]
    out = np.empty((n, 10), dtype=np.float64)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        jet = _flow(code, _tan_column(1, a1[start:stop]),
                    _tan_column(2, a2[start:stop]), _reciprocal_column)
        for j, column in enumerate(jet):
            out[start:stop, j] = column
    return out
