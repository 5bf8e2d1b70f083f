"""Stability scans: grids, diagonal slices, and transition location.

Scans sample the fluctuation geometry over rectangles or along the
equal-angle diagonal, classifying each point. Degenerate points record a
nan curvature instead of aborting. Sample i of an axis sits at
``a_min + i*(a_max - a_min)/(n - 1)``, so a scan with ``2n - 1`` samples
reproduces the n-sample points bit for bit. Records are row-major with a1
varying fastest.

The jets of all points come from one column-wise kernel
(:func:`powergeom.backend.batch_slots`) that works through fixed-size
blocks of points. Each point's jet depends only on that point, so scan
content never depends on where the blocks split.

Transition location walks every grid line for determinant sign changes,
refines each by bisection on the continuous determinant, and lists
curvature magnitudes beyond a spike threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import backend
from .errors import BadDomain
from .geometry import (
    DEGEN_TOL,
    GeometryReport,
    Metric2,
    StabilityClass,
    geometry_report,
)
from .models import HALF_PI, PowerModel

DEFAULT_BOUNDS = (-1.55, 1.55)
DEFAULT_GUARD = 0.02
BISECT_XTOL = 1e-10

#: classification codes used in the vectorized path, in label order
CLASS_ORDER = (StabilityClass.STABLE, StabilityClass.NEGATIVE_DEFINITE,
               StabilityClass.INDEFINITE, StabilityClass.DEGENERATE)
_STABLE, _NEGDEF, _INDEF, _DEGEN = range(4)

Bounds = tuple[float, float]


def classify_point(field, point: tuple[float, float]) -> StabilityClass:
    """Stability class of one point; degeneracy takes precedence."""
    return geometry_report(field, point).classification


def _check_bounds(bounds: Bounds, guard: float, axis: str) -> Bounds:
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadDomain(f"{axis} bounds must satisfy lo < hi, got {bounds!r}")
    limit = HALF_PI - guard
    if abs(lo) > limit or abs(hi) > limit:
        raise BadDomain(
            f"{axis} bounds {bounds!r} reach within {guard!r} rad of +-pi/2")
    return lo, hi


def axis_samples(bounds: Bounds, n: int) -> list[float]:
    """The n sample positions of one axis."""
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _geometry_columns(slots: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized twin of :func:`powergeom.geometry.geometry_report`."""
    value = slots[:, 0]
    g11, g12, g22 = slots[:, 3], slots[:, 4], slots[:, 5]
    f111, f112, f122, f222 = (slots[:, 6], slots[:, 7],
                              slots[:, 8], slots[:, 9])
    det = g11 * g22 - g12 * g12
    ninf = np.maximum(np.abs(g11), np.maximum(np.abs(g12), np.abs(g22)))
    degen = np.abs(det) <= DEGEN_TOL * np.maximum(1.0, ninf * ninf)
    num = (g22 * f111 * f122 + g12 * f112 * f122 + g11 * f112 * f222
           - g12 * f111 * f222 - g11 * f122 * f122 - g22 * f112 * f112)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = -0.5 * num / (det * det)
    curvature = np.where(degen, np.nan, curvature)
    codes = np.where(
        degen, _DEGEN,
        np.where(det < 0.0, _INDEF,
                 np.where((g11 > 0.0) & (g22 > 0.0), _STABLE, _NEGDEF)))
    return {"value": value, "g11": g11, "g12": g12, "g22": g22,
            "det": det, "curvature": curvature,
            "codes": codes.astype(np.int8)}


def _evaluate_points(model: PowerModel, a1: np.ndarray,
                     a2: np.ndarray) -> dict[str, np.ndarray]:
    slots = backend.batch_slots(model.kind.code, a1, a2)
    slots *= model.k
    cols = _geometry_columns(slots)
    cols["a1"] = a1
    cols["a2"] = a2
    return cols


def _report_from_columns(cols: dict[str, np.ndarray], i: int) -> GeometryReport:
    point = (float(cols["a1"][i]), float(cols["a2"][i]))
    metric = Metric2(g11=float(cols["g11"][i]), g12=float(cols["g12"][i]),
                     g22=float(cols["g22"][i]), point=point)
    return GeometryReport(
        metric=metric,
        value=float(cols["value"][i]),
        det=float(cols["det"][i]),
        curvature=float(cols["curvature"][i]),
        classification=CLASS_ORDER[int(cols["codes"][i])])


@dataclass(frozen=True)
class GridScan:
    """Rectangular sample of the geometry, row-major with a1 fastest."""

    model: PowerModel
    a1_bounds: Bounds
    a2_bounds: Bounds
    n: int
    guard: float
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.n * self.n

    def report(self, index: int) -> GeometryReport:
        return _report_from_columns(self.columns, index)

    def records(self) -> list[GeometryReport]:
        return [self.report(i) for i in range(len(self))]

    def class_labels(self) -> list[str]:
        return [CLASS_ORDER[int(c)].label for c in self.columns["codes"]]

    @property
    def a1_axis(self) -> list[float]:
        return axis_samples(self.a1_bounds, self.n)

    @property
    def a2_axis(self) -> list[float]:
        return axis_samples(self.a2_bounds, self.n)


def scan_grid(model: PowerModel,
              a1_bounds: Bounds = DEFAULT_BOUNDS,
              a2_bounds: Bounds | None = None,
              n: int = 64,
              guard: float = DEFAULT_GUARD) -> GridScan:
    """Scan an n-by-n grid; degenerate points carry nan curvature."""
    if n < 2:
        raise ValueError(f"need at least 2 samples per axis, got {n}")
    if a2_bounds is None:
        a2_bounds = a1_bounds
    a1_bounds = _check_bounds(a1_bounds, guard, "a1")
    a2_bounds = _check_bounds(a2_bounds, guard, "a2")
    a1 = np.tile(np.array(axis_samples(a1_bounds, n), dtype=np.float64), n)
    a2 = np.repeat(np.array(axis_samples(a2_bounds, n), dtype=np.float64), n)
    cols = _evaluate_points(model, a1, a2)
    return GridScan(model=model, a1_bounds=a1_bounds, a2_bounds=a2_bounds,
                    n=n, guard=guard, columns=cols)


def scan_diagonal(model: PowerModel,
                  bounds: Bounds = DEFAULT_BOUNDS,
                  n: int = 101,
                  guard: float = DEFAULT_GUARD) -> list[GeometryReport]:
    """Reports along the equal-angle line a1 = a2 = a."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    bounds = _check_bounds(bounds, guard, "diagonal")
    a = np.array(axis_samples(bounds, n), dtype=np.float64)
    cols = _evaluate_points(model, a, a)
    return [_report_from_columns(cols, i) for i in range(n)]


@dataclass(frozen=True)
class DetZeroCrossing:
    """One bisected determinant sign change on a scan line."""

    line: str      # "row" (fixed a2), "col" (fixed a1) or "diag"
    level: float   # the fixed coordinate; nan on the diagonal
    root: float    # varying coordinate of the crossing
    bracket: float
    det_at_root: float


@dataclass(frozen=True)
class CurvatureSpike:
    a1: float
    a2: float
    abs_curvature: float


@dataclass(frozen=True)
class TransitionSet:
    det_zeros: tuple[DetZeroCrossing, ...]
    curvature_spikes: tuple[CurvatureSpike, ...]
    spike_threshold: float
    bisect_xtol: float
    det_bound: float


def det_function(field) -> Callable[[float, float], float]:
    """Continuous metric determinant of a field, for root refinement."""
    if isinstance(field, PowerModel):
        code = field.kind.code
        k = field.k

        def det_at(a1: float, a2: float) -> float:
            s = backend.unit_slots(code, a1, a2)
            g11, g12, g22 = k * s.f11, k * s.f12, k * s.f22
            return g11 * g22 - g12 * g12

        return det_at

    from .geometry import as_jet_field

    jet_field = as_jet_field(field)

    def det_at_generic(a1: float, a2: float) -> float:
        jet = jet_field(a1, a2)
        return jet.f11 * jet.f22 - jet.f12 * jet.f12

    return det_at_generic


def _bisect(f: Callable[[float], float], lo: float, hi: float,
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


def _line_crossings(line: str, level: float, positions: Sequence[float],
                    dets: Sequence[float], f: Callable[[float], float],
                    xtol: float, fbound: float) -> list[DetZeroCrossing]:
    out = []
    for i in range(len(positions) - 1):
        d0, d1 = dets[i], dets[i + 1]
        if d0 == 0.0:
            out.append(DetZeroCrossing(line, level, positions[i], 0.0, 0.0))
            continue
        if d1 == 0.0:
            continue  # recorded as the left endpoint of the next pair
        if (d0 < 0.0) != (d1 < 0.0):
            root, width, froot = _bisect(f, positions[i], positions[i + 1],
                                         d0, xtol, fbound)
            out.append(DetZeroCrossing(line, level, root, width, froot))
    if dets[-1] == 0.0:
        out.append(DetZeroCrossing(line, level, positions[-1], 0.0, 0.0))
    return out


def locate_transitions(scan: Union[GridScan, Sequence[GeometryReport]],
                       spike_threshold: float | None = None,
                       model=None) -> TransitionSet:
    """Determinant zeros (bisected) and curvature spikes of a scan.

    For a report list, pass the field (a model or jet callable) so the
    determinant can be re-evaluated between samples.
    """
    if isinstance(scan, GridScan):
        model = scan.model
    elif model is None:
        raise ValueError("locate_transitions needs the field for report lists")
    k = model.k if isinstance(model, PowerModel) else 1.0
    if spike_threshold is None:
        spike_threshold = 1e6 / k
    fbound = 1e-8 * k * k
    det_at = det_function(model)
    zeros: list[DetZeroCrossing] = []
    spikes: list[CurvatureSpike] = []

    if isinstance(scan, GridScan):
        n = scan.n
        ax1, ax2 = scan.a1_axis, scan.a2_axis
        det = scan.columns["det"].reshape(n, n)  # [i2, i1]
        curv = scan.columns["curvature"].reshape(n, n)
        for i2, level in enumerate(ax2):
            zeros.extend(_line_crossings(
                "row", level, ax1, det[i2, :],
                lambda x, lev=level: det_at(x, lev), BISECT_XTOL, fbound))
        for i1, level in enumerate(ax1):
            zeros.extend(_line_crossings(
                "col", level, ax2, det[:, i1],
                lambda y, lev=level: det_at(lev, y), BISECT_XTOL, fbound))
        for i2 in range(n):
            for i1 in range(n):
                r = curv[i2, i1]
                if math.isfinite(r) and abs(r) > spike_threshold:
                    spikes.append(CurvatureSpike(ax1[i1], ax2[i2], abs(r)))
    else:
        reports = list(scan)
        positions = [rep.point[0] for rep in reports]
        dets = [rep.det for rep in reports]
        zeros.extend(_line_crossings(
            "diag", math.nan, positions, dets,
            lambda a: det_at(a, a), BISECT_XTOL, fbound))
        for rep in reports:
            if math.isfinite(rep.curvature) and abs(rep.curvature) > spike_threshold:
                spikes.append(CurvatureSpike(rep.point[0], rep.point[1],
                                             abs(rep.curvature)))

    return TransitionSet(det_zeros=tuple(zeros),
                         curvature_spikes=tuple(spikes),
                         spike_threshold=spike_threshold,
                         bisect_xtol=BISECT_XTOL,
                         det_bound=fbound)
