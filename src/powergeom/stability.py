"""Stability scans: grids, diagonal slices, and transition location.

Scans sample the fluctuation geometry over rectangles or along the
equal-angle diagonal, classifying each point. Degenerate points record a
nan curvature instead of aborting. A :class:`ScanSpec` says what a scan
samples and is the one place that checks it; a :class:`Scan` holds the
columns of its points. Sample i of an axis sits at ``a_min + i*(a_max -
a_min)/(n - 1)``, so a scan with ``2n - 1`` samples reproduces the
n-sample points bit for bit. Records are row-major with a1 fastest.

The jets of all points come from one column-wise kernel
(:func:`powergeom.backend.batch_slots`) that works through fixed-size
blocks of points. Each point's jet depends only on that point, so scan
content never depends on where the blocks split. Metric, determinant,
curvature and class come from :func:`powergeom.geometry.geometry_columns`,
the classifier single-point reports use too, and a scan keeps them as
columns.

Transition location takes the determinant's exact zeros and sign changes
along every row and column of a grid, or along the diagonal, from the
det column. It bisects all the sign-change brackets of a scan together
on the continuous determinant, one determinant column per step, and
lists curvature magnitudes beyond a spike threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from . import backend
from .backend import Jet3
from .errors import BadDomain
from .geometry import CLASS_LABELS, determinant, geometry_columns
from .models import HALF_PI, PowerModel

DEFAULT_BOUNDS = (-1.55, 1.55)
DEFAULT_GUARD = 0.02
BISECT_XTOL = 1e-10
#: Live brackets from which a bisection step evaluates its midpoints in one
#: ``batch_slots`` call rather than one ``unit_slots`` call each: the
#: batch costs about 190 us even on one point, ``unit_slots`` about 5 us.
#: Measured on 64-point scans of all three flows. The roots do not depend
#: on it.
BISECT_BATCH_MIN = 32

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


@dataclass(frozen=True)
class ScanSpec:
    """What a scan samples: a ``"scan"`` is the grid of the a1 and a2 axis
    samples, a ``"diagonal"`` the points a1 = a2, whose a2 bounds are its
    a1 bounds. Building a spec checks n >= 2, the bounds and that rule."""

    model: PowerModel
    command: str  # "scan" or "diagonal"
    a1_bounds: Bounds
    a2_bounds: Bounds
    n: int

    def __post_init__(self):
        if self.command not in ("scan", "diagonal"):
            raise ValueError(f"unknown scan command {self.command!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 samples per axis, got {self.n}")
        a1 = _check_bounds(self.a1_bounds, "a1")
        a2 = _check_bounds(self.a2_bounds, "a2")
        if self.command == "diagonal" and a2 != a1:
            raise BadDomain(f"diagonal a2 bounds {a2!r} differ from its a1 "
                            f"bounds {a1!r}")
        object.__setattr__(self, "a1_bounds", a1)
        object.__setattr__(self, "a2_bounds", a2)

    @property
    def a1_axis(self) -> list[float]:
        return axis_samples(self.a1_bounds, self.n)

    @property
    def a2_axis(self) -> list[float]:
        return axis_samples(self.a2_bounds, self.n)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The a1 and a2 columns of the points, one array on a diagonal."""
        a1 = np.array(self.a1_axis, dtype=np.float64)
        if self.command == "diagonal":
            return a1, a1
        a2 = np.array(self.a2_axis, dtype=np.float64)
        return np.tile(a1, self.n), np.repeat(a2, self.n)


@dataclass(frozen=True)
class Scan:
    """The points of a spec, as row-major columns."""

    spec: ScanSpec
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["codes"])

    def class_labels(self) -> list[str]:
        return list(map(CLASS_LABELS.__getitem__,
                        self.columns["codes"].tolist()))


def evaluate_scan(spec: ScanSpec) -> Scan:
    """A spec's points evaluated; degenerate points carry nan curvature."""
    return Scan(spec, evaluate_points(spec.model, *spec.points()))


def scan_grid(model: PowerModel,
              a1_bounds: Bounds = DEFAULT_BOUNDS,
              a2_bounds: Bounds | None = None,
              n: int = 64) -> Scan:
    """Scan an n-by-n grid; a2 takes a1's bounds unless given."""
    if a2_bounds is None:
        a2_bounds = a1_bounds
    return evaluate_scan(ScanSpec(model, "scan", a1_bounds, a2_bounds, n))


def scan_diagonal(model: PowerModel,
                  bounds: Bounds = DEFAULT_BOUNDS,
                  n: int = 101) -> Scan:
    """Scan n points of the equal-angle line a1 = a2 = a."""
    return evaluate_scan(ScanSpec(model, "diagonal", bounds, bounds, n))


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
    det_evaluations: int  # determinant points the bisection evaluated


def _det_at(model: PowerModel, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Metric determinant of a model at the points (a1, a2): per point,
    the bits of ``determinant(k*f11, k*f12, k*f22)`` of ``unit_slots``.

    Fewer than ``BISECT_BATCH_MIN`` points go through ``unit_slots`` one
    at a time, more through one ``batch_slots`` call, which gives the
    same bits.
    """
    kind, k = model.kind, model.k
    if a1.shape[0] < BISECT_BATCH_MIN:
        jets = map(backend.unit_slots, repeat(kind), a1.tolist(), a2.tolist())
        return np.array([determinant(k * s.f11, k * s.f12, k * s.f22)
                         for s in jets], dtype=np.float64)
    jet = Jet3(*backend.batch_slots(kind, a1, a2).T)
    return determinant(k * jet.f11, k * jet.f12, k * jet.f22)


def _bisect(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
            lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, xtol: float,
            fbound: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Roots of bracketed sign changes, every bracket halved at each step:
    per bracket (root, bracket width, f(root)), and the midpoints
    evaluated.

    ``f(idx, x)`` is f of bracket ``idx[m]`` at ``x[m]``. A bracket stops
    when its midpoint no longer splits it, when f is exactly zero there,
    or once it is within ``xtol`` and its best point within ``fbound``;
    after 200 halvings at most. Its root is the point of least |f| seen.
    """
    n = lo.shape[0]
    root, width, froot = np.empty(n), np.empty(n), np.empty(n)
    idx = np.arange(n)
    best_x, best_f = lo, flo
    evaluations = 0

    def retire(keep):
        gone = ~keep
        out = idx[gone]
        root[out], froot[out] = best_x[gone], best_f[gone]
        width[out] = hi[gone] - lo[gone]
        return [a[keep] for a in (idx, lo, hi, flo, best_x, best_f)]

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        splits = (mid > lo) & (mid < hi)
        if not splits.all():
            idx, lo, hi, flo, best_x, best_f = retire(splits)
            mid = mid[splits]
        if not idx.size:
            break
        fmid = f(idx, mid)
        evaluations += idx.size
        better = np.abs(fmid) < np.abs(best_f)
        best_x = np.where(better, mid, best_x)
        best_f = np.where(better, fmid, best_f)
        hit = fmid == 0.0
        same = (flo < 0.0) == (fmid < 0.0)
        lo = np.where(same | hit, mid, lo)
        hi = np.where(same & ~hit, hi, mid)
        flo = np.where(same, fmid, flo)
        done = hit | ((hi - lo <= xtol) & (np.abs(best_f) <= fbound))
        idx, lo, hi, flo, best_x, best_f = retire(~done)
    retire(np.zeros(idx.shape, dtype=bool))
    return root, width, froot, evaluations


#: The coordinates, (a1, a2), that the position along each kind of scan
#: line sets; a coordinate it does not set is the line's level.
_VARIES = {"row": (True, False), "col": (False, True), "diag": (True, True)}

def _det_crossings(lines: Sequence[tuple[str, np.ndarray, np.ndarray,
                                         np.ndarray]],
                   det_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   xtol: float, fbound: float
                   ) -> tuple[list[DetZeroCrossing], int]:
    """Determinant zeros along scan lines, and the midpoints evaluated.

    Each of ``lines`` is a family ``(kind, levels, positions, dets)``: line
    j is at ``levels[j]``, and ``dets[j, i]`` is the determinant at
    ``positions[i]`` along it. Crossings come family by family, line by
    line, and in order along each line. A sample where the determinant is
    exactly zero is a crossing of width 0. A sign change between nonzero
    neighbours is a bracket; all brackets are bisected together on
    ``det_at(a1, a2)``, which maps point columns to the determinant column.
    """
    parts = []
    for family, (_, levels, positions, dets) in enumerate(lines):
        zero, neg = dets == 0.0, dets < 0.0
        event = zero.copy()
        event[:, :-1] |= (~zero[:, :-1] & ~zero[:, 1:]
                          & (neg[:, :-1] != neg[:, 1:]))
        j, i = np.nonzero(event)  # row-major: line by line, then along it
        last = positions.shape[0] - 1
        parts.append((np.full(j.shape, family), levels[j], positions[i],
                      positions[np.minimum(i + 1, last)], dets[j, i]))
    family, level, lo, hi, flo = map(np.concatenate, zip(*parts))
    root, width, froot = lo.copy(), np.zeros_like(lo), np.zeros_like(lo)
    b = np.flatnonzero(flo != 0.0)  # the brackets; the rest are exact zeros
    varies = np.array([_VARIES[kind] for kind, *_ in lines])[family[b]]
    vary1, vary2, fixed = varies[:, 0], varies[:, 1], level[b]

    def det_of(idx, x):
        return det_at(np.where(vary1[idx], x, fixed[idx]),
                      np.where(vary2[idx], x, fixed[idx]))

    root[b], width[b], froot[b], evaluations = _bisect(
        det_of, lo[b], hi[b], flo[b], xtol, fbound)
    kinds = [lines[f][0] for f in family.tolist()]
    return (list(map(DetZeroCrossing, kinds, level.tolist(), root.tolist(),
                     width.tolist(), froot.tolist())), evaluations)


def locate_transitions(scan: Scan,
                       spike_threshold: float | None = None) -> TransitionSet:
    """Determinant zeros (bisected) and curvature spikes of a scan.

    A spike is a finite curvature with |R| above ``spike_threshold``
    (default 1e6/k), which must be finite and positive.
    """
    spec, cols = scan.spec, scan.columns
    k = spec.model.k
    if spike_threshold is None:
        spike_threshold = 1e6 / k
    elif not (math.isfinite(spike_threshold) and spike_threshold > 0.0):
        raise ValueError("spike threshold must be finite and > 0, "
                         f"got {spike_threshold!r}")
    fbound = 1e-8 * k * k
    if spec.command == "scan":
        det = cols["det"].reshape(spec.n, spec.n)  # [i2, i1]
        ax1, ax2 = np.array(spec.a1_axis), np.array(spec.a2_axis)
        lines = [("row", ax2, ax1, det), ("col", ax1, ax2, det.T)]
    else:
        lines = [("diag", np.array([math.nan]), cols["a1"],
                  cols["det"][np.newaxis])]
    zeros, evaluations = _det_crossings(
        lines, partial(_det_at, spec.model), BISECT_XTOL, fbound)

    curv = cols["curvature"]
    hits = np.flatnonzero(np.isfinite(curv) & (np.abs(curv) > spike_threshold))
    a1, a2, mag = (cols["a1"][hits].tolist(), cols["a2"][hits].tolist(),
                   np.abs(curv[hits]).tolist())
    spikes = tuple(map(CurvatureSpike, a1, a2, mag))

    return TransitionSet(det_zeros=tuple(zeros),
                         curvature_spikes=spikes,
                         spike_threshold=spike_threshold,
                         bisect_xtol=BISECT_XTOL,
                         det_bound=fbound,
                         det_evaluations=evaluations)
