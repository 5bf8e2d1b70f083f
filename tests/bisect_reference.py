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
from powergeom.stability import (BISECT_XTOL, UNIT_DET_BOUND,
                                 DetZeroCrossing)


def det_function(model: PowerModel,
                 k: float = 1.0) -> Callable[[float, float], float]:
    """Continuous metric determinant of a model's flow at one point, of
    the metric scaled by ``k``: by default the unit-scale determinant the
    bisection runs on, and at the model's k the one a root reports."""
    kind = model.kind

    def det_at(a1: float, a2: float) -> float:
        s = backend.unit_slots(kind, a1, a2)
        return determinant(k * s.f11, k * s.f12, k * s.f22)

    return det_at


def bisect(f: Callable[[float], float], lo: float, hi: float,
           neg: bool, xtol: float, fbound: float) -> tuple[float, float]:
    """Root of a bracketed sign change, with f negative at ``lo`` when
    ``neg``: (root, bracket width).

    Bisects to the width tolerance, then keeps halving while the best
    midpoint still misses ``fbound`` and the bracket can shrink. The root
    is ``lo`` until a midpoint has a finite f.
    """
    best_x, best_f = lo, math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if abs(fmid) < best_f:
            best_x, best_f = mid, abs(fmid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if neg == (fmid < 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol and best_f <= fbound:
            break
    return best_x, hi - lo


def line_crossings(line: str, level: float, positions: Sequence[float],
                   dets: Sequence[float], f: Callable[[float], float],
                   report: Callable[[float], float]) -> list[DetZeroCrossing]:
    """Exact zeros and bisected sign changes of one scan line, in order:
    brackets are bisected on ``f`` and report ``report`` at their root."""
    out = []
    for i in range(len(positions) - 1):
        d0, d1 = dets[i], dets[i + 1]
        if d0 == 0.0:
            out.append(DetZeroCrossing(line, level, positions[i], 0.0, 0.0))
            continue
        if d1 == 0.0:
            continue  # recorded as the left endpoint of the next pair
        if (d0 < 0.0) != (d1 < 0.0):
            root, width = bisect(f, positions[i], positions[i + 1],
                                 d0 < 0.0, BISECT_XTOL, UNIT_DET_BOUND)
            out.append(DetZeroCrossing(line, level, root, width,
                                       report(root)))
    if dets[-1] == 0.0:
        out.append(DetZeroCrossing(line, level, positions[-1], 0.0, 0.0))
    return out


def reference_crossings(scan) -> tuple[list[DetZeroCrossing], int]:
    """The determinant zeros ``locate_transitions(scan)`` must report
    (rows, then columns, of a grid, or the diagonal) and the number of
    points their bisection evaluates."""
    spec = scan.spec
    unit, scaled = det_function(spec.model), det_function(spec.model,
                                                          spec.model.k)
    evaluations = 0

    def det_at(a1: float, a2: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return unit(a1, a2)

    cols = scan.columns
    zeros: list[DetZeroCrossing] = []
    if spec.command == "scan":
        n = spec.n
        ax1, ax2 = spec.a1_axis.tolist(), spec.a2_axis.tolist()
        det = cols["det"].reshape(n, n)  # [i2, i1]
        for level, dets in zip(ax2, det.tolist()):
            zeros.extend(line_crossings(
                "row", level, ax1, dets,
                lambda x, lev=level: det_at(x, lev),
                lambda x, lev=level: scaled(x, lev)))
        for level, dets in zip(ax1, det.T.tolist()):
            zeros.extend(line_crossings(
                "col", level, ax2, dets,
                lambda y, lev=level: det_at(lev, y),
                lambda y, lev=level: scaled(lev, y)))
    else:
        zeros.extend(line_crossings(
            "diag", math.nan, cols["a1"].tolist(), cols["det"].tolist(),
            lambda a: det_at(a, a), lambda a: scaled(a, a)))
    return zeros, evaluations
