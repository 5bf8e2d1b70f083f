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
content never depends on where the blocks split. Metric, determinant,
curvature and class come from :func:`powergeom.geometry.geometry_columns`,
the classifier single-point reports use too, and both scan shapes keep
them as columns.

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
from .backend import Jet3
from .errors import BadDomain
from .geometry import CLASS_LABELS, determinant, geometry_columns
from .models import HALF_PI, PowerModel

DEFAULT_BOUNDS = (-1.55, 1.55)
DEFAULT_GUARD = 0.02
BISECT_XTOL = 1e-10

Bounds = tuple[float, float]


def _check_bounds(bounds: Bounds, axis: str) -> Bounds:
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadDomain(f"{axis} bounds must satisfy lo < hi, got {bounds!r}")
    limit = HALF_PI - DEFAULT_GUARD
    if abs(lo) > limit or abs(hi) > limit:
        raise BadDomain(f"{axis} bounds {bounds!r} reach within "
                        f"{DEFAULT_GUARD!r} rad of +-pi/2")
    return lo, hi


def axis_samples(bounds: Bounds, n: int) -> list[float]:
    """The n sample positions of one axis."""
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def evaluate_points(model: PowerModel, a1: np.ndarray,
                    a2: np.ndarray) -> dict[str, np.ndarray]:
    """Geometry columns of the model at the points (a1, a2): the
    :func:`~powergeom.geometry.geometry_columns` of the jets, plus the
    ``a1`` and ``a2`` columns themselves.

    The jets are ``batch_slots`` scaled by k, so point i has the bits of
    ``eval_power_jet(model, a1[i], a2[i])``. Scans and ``verify-paper``
    both evaluate their points here.
    """
    slots = backend.batch_slots(model.kind, a1, a2)
    slots *= model.k
    cols = geometry_columns(Jet3(*slots.T))
    cols["a1"] = a1
    cols["a2"] = a2
    return cols


class _Columns:
    """Row-major point columns shared by both scan shapes."""

    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["codes"])

    def class_labels(self) -> list[str]:
        return list(map(CLASS_LABELS.__getitem__,
                        self.columns["codes"].tolist()))


@dataclass(frozen=True)
class GridScan(_Columns):
    """Rectangular sample of the geometry, row-major with a1 fastest."""

    model: PowerModel
    a1_bounds: Bounds
    a2_bounds: Bounds
    n: int
    columns: dict[str, np.ndarray]

    @property
    def a1_axis(self) -> list[float]:
        return axis_samples(self.a1_bounds, self.n)

    @property
    def a2_axis(self) -> list[float]:
        return axis_samples(self.a2_bounds, self.n)


@dataclass(frozen=True)
class DiagonalScan(_Columns):
    """Sample of the geometry along the equal-angle line a1 = a2."""

    model: PowerModel
    bounds: Bounds
    n: int
    columns: dict[str, np.ndarray]


def scan_grid(model: PowerModel,
              a1_bounds: Bounds = DEFAULT_BOUNDS,
              a2_bounds: Bounds | None = None,
              n: int = 64) -> GridScan:
    """Scan an n-by-n grid; degenerate points carry nan curvature."""
    if n < 2:
        raise ValueError(f"need at least 2 samples per axis, got {n}")
    if a2_bounds is None:
        a2_bounds = a1_bounds
    a1_bounds = _check_bounds(a1_bounds, "a1")
    a2_bounds = _check_bounds(a2_bounds, "a2")
    a1 = np.tile(np.array(axis_samples(a1_bounds, n), dtype=np.float64), n)
    a2 = np.repeat(np.array(axis_samples(a2_bounds, n), dtype=np.float64), n)
    cols = evaluate_points(model, a1, a2)
    return GridScan(model=model, a1_bounds=a1_bounds, a2_bounds=a2_bounds,
                    n=n, columns=cols)


def scan_diagonal(model: PowerModel,
                  bounds: Bounds = DEFAULT_BOUNDS,
                  n: int = 101) -> DiagonalScan:
    """Scan n points of the equal-angle line a1 = a2 = a."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    bounds = _check_bounds(bounds, "diagonal")
    a = np.array(axis_samples(bounds, n), dtype=np.float64)
    cols = evaluate_points(model, a, a)
    return DiagonalScan(model=model, bounds=bounds, n=n, columns=cols)


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


def det_function(model: PowerModel) -> Callable[[float, float], float]:
    """Continuous metric determinant of a model, for root refinement."""
    kind, k = model.kind, model.k

    def det_at(a1: float, a2: float) -> float:
        s = backend.unit_slots(kind, a1, a2)
        return determinant(k * s.f11, k * s.f12, k * s.f22)

    return det_at


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


def locate_transitions(scan: Union[GridScan, DiagonalScan],
                       spike_threshold: float | None = None) -> TransitionSet:
    """Determinant zeros (bisected) and curvature spikes of a scan.

    A spike is a finite curvature with |R| above ``spike_threshold``
    (default 1e6/k), which must be finite and positive.
    """
    k = scan.model.k
    if spike_threshold is None:
        spike_threshold = 1e6 / k
    elif not (math.isfinite(spike_threshold) and spike_threshold > 0.0):
        raise ValueError("spike threshold must be finite and > 0, "
                         f"got {spike_threshold!r}")
    fbound = 1e-8 * k * k
    det_at = det_function(scan.model)
    cols = scan.columns
    zeros: list[DetZeroCrossing] = []

    if isinstance(scan, GridScan):
        n = scan.n
        ax1, ax2 = scan.a1_axis, scan.a2_axis
        det = cols["det"].reshape(n, n)  # [i2, i1]
        for level, dets in zip(ax2, det.tolist()):
            zeros.extend(_line_crossings(
                "row", level, ax1, dets,
                lambda x, lev=level: det_at(x, lev), BISECT_XTOL, fbound))
        for level, dets in zip(ax1, det.T.tolist()):
            zeros.extend(_line_crossings(
                "col", level, ax2, dets,
                lambda y, lev=level: det_at(lev, y), BISECT_XTOL, fbound))
    else:
        zeros.extend(_line_crossings(
            "diag", math.nan, cols["a1"].tolist(), cols["det"].tolist(),
            lambda a: det_at(a, a), BISECT_XTOL, fbound))

    curv = cols["curvature"]
    hits = np.flatnonzero(np.isfinite(curv) & (np.abs(curv) > spike_threshold))
    a1, a2, mag = (cols["a1"][hits].tolist(), cols["a2"][hits].tolist(),
                   np.abs(curv[hits]).tolist())
    spikes = tuple(map(CurvatureSpike, a1, a2, mag))

    return TransitionSet(det_zeros=tuple(zeros),
                         curvature_spikes=spikes,
                         spike_threshold=spike_threshold,
                         bisect_xtol=BISECT_XTOL,
                         det_bound=fbound)
