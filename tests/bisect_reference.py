"""Scalar transition search, one bracket at a time: the tests' reference.

``powergeom.stability.locate_transitions`` bisects every bracket of a
scan together, one determinant column per step. This module walks each
scan line and bisects each bracket on its own, one ``unit_slots`` call
per midpoint, with the same rules. The tests require the two to give the
same crossings, in the same order, bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from powergeom import backend
from powergeom.geometry import determinant
from powergeom.models import PowerModel
from powergeom.stability import BISECT_XTOL, DetZeroCrossing


def det_function(model: PowerModel) -> Callable[[float, float], float]:
    """Continuous metric determinant of a model at one point."""
    kind, k = model.kind, model.k

    def det_at(a1: float, a2: float) -> float:
        s = backend.unit_slots(kind, a1, a2)
        return determinant(k * s.f11, k * s.f12, k * s.f22)

    return det_at


def bisect(f: Callable[[float], float], lo: float, hi: float,
           flo: float, xtol: float, fbound: float) -> tuple[float, float, float]:
    """Root of a bracketed sign change: (root, bracket width, f(root)).

    Bisects to the width tolerance, then keeps halving while the best
    endpoint still misses ``fbound`` and the bracket can shrink.
    """
    best_x, best_f = lo, flo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if abs(fmid) < abs(best_f):
            best_x, best_f = mid, fmid
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= xtol and abs(best_f) <= fbound:
            break
    return best_x, hi - lo, best_f


def line_crossings(line: str, level: float, positions: Sequence[float],
                   dets: Sequence[float], f: Callable[[float], float],
                   xtol: float, fbound: float) -> list[DetZeroCrossing]:
    """Exact zeros and bisected sign changes of one scan line, in order."""
    out = []
    for i in range(len(positions) - 1):
        d0, d1 = dets[i], dets[i + 1]
        if d0 == 0.0:
            out.append(DetZeroCrossing(line, level, positions[i], 0.0, 0.0))
            continue
        if d1 == 0.0:
            continue  # recorded as the left endpoint of the next pair
        if (d0 < 0.0) != (d1 < 0.0):
            root, width, froot = bisect(f, positions[i], positions[i + 1],
                                        d0, xtol, fbound)
            out.append(DetZeroCrossing(line, level, root, width, froot))
    if dets[-1] == 0.0:
        out.append(DetZeroCrossing(line, level, positions[-1], 0.0, 0.0))
    return out


def reference_crossings(scan) -> tuple[list[DetZeroCrossing], int]:
    """The determinant zeros ``locate_transitions(scan)`` must report
    (rows, then columns, of a grid, or the diagonal) and the number of
    points their bisection evaluates."""
    spec = scan.spec
    k = spec.model.k
    fbound = 1e-8 * k * k
    det_point = det_function(spec.model)
    evaluations = 0

    def det_at(a1: float, a2: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return det_point(a1, a2)

    cols = scan.columns
    zeros: list[DetZeroCrossing] = []
    if spec.command == "scan":
        n = spec.n
        ax1, ax2 = spec.a1_axis, spec.a2_axis
        det = cols["det"].reshape(n, n)  # [i2, i1]
        for level, dets in zip(ax2, det.tolist()):
            zeros.extend(line_crossings(
                "row", level, ax1, dets,
                lambda x, lev=level: det_at(x, lev), BISECT_XTOL, fbound))
        for level, dets in zip(ax1, det.T.tolist()):
            zeros.extend(line_crossings(
                "col", level, ax2, dets,
                lambda y, lev=level: det_at(lev, y), BISECT_XTOL, fbound))
    else:
        zeros.extend(line_crossings(
            "diag", math.nan, cols["a1"].tolist(), cols["det"].tolist(),
            lambda a: det_at(a, a), BISECT_XTOL, fbound))
    return zeros, evaluations
