"""Stability scans: grids, diagonal slices, and transition location.

Scans sample the fluctuation geometry over rectangles or along the
equal-angle diagonal, classifying each point. Degenerate points record a
nan curvature instead of aborting. A :class:`ScanSpec` says what a scan
samples and is the one place that checks it; a :class:`Scan` holds the
columns of its points. Sample i of an axis sits at ``a_min + i*(a_max -
a_min)/(n - 1)``, so a scan with ``2n - 1`` samples reproduces the
n-sample points bit for bit. Records are row-major with a1 fastest.

A scan's points go through :func:`powergeom.geometry.evaluate_points`,
the route single-point reports take too: the jets of all points come
from one column-wise kernel (:func:`powergeom.backend.batch_slots`) that
works through fixed-size blocks of points, and metric, determinant,
curvature and class from :func:`powergeom.geometry.geometry_columns`.
Each point's jet depends only on that point, so scan content never
depends on where the blocks split. A scan keeps only the columns it
reports, 65 B a point. A point is DEGEN where its unit-scale
determinant is exactly zero, so a scan's classes do not depend on
k = V^2/R0.

Transition location takes the determinant's exact zeros and sign changes
along every row and column of a grid, or along the diagonal, from the
det column, and refuses a det column that is not finite. It bisects all
the sign-change brackets of a scan together on the continuous unit-scale
determinant, the one the classes read, one determinant column per step
from the kernel's metric slots alone. So the roots do not depend on k
where the det column's signs do not; k enters only what a crossing
reports, its determinant at scale k, and the bound that goes with it.
It also lists curvature magnitudes beyond a spike threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from . import backend
from .errors import BadDomain
from .geometry import check_finite, determinant, evaluate_points
from .models import HALF_PI, FlowKind, PowerModel

DEFAULT_BOUNDS = (-1.55, 1.55)
DEFAULT_GUARD = 0.02
BISECT_XTOL = 1e-10
#: |determinant| within which a bisected root of the unit-scale (k = 1)
#: determinant may stop; a :class:`TransitionSet` reports it times k^2.
UNIT_DET_BOUND = 1e-8
#: Live brackets from which a bisection step evaluates its midpoints in one
#: ``batch_metric`` call rather than one ``unit_slots`` call each: the
#: batch costs 80-105 us on 1 to 32 points, ``unit_slots`` about 5.5 us
#: per point, so they cross near 20 points on all three flows. The roots
#: do not depend on it.
BISECT_BATCH_MIN = 20
#: Most points one scan may hold: n^2 of a grid, n of a diagonal. A scan
#: keeps 65 B per point in its columns, so this is about 1.1 GB, and
#: a spec beyond it is rejected before anything is allocated, with the
#: same verdict on every machine.
MAX_POINTS = 2**24

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


def axis_samples(bounds: Bounds, n: int) -> np.ndarray:
    """The n sample positions of one axis, ``lo + i*step``, as a
    read-only float64 array."""
    lo, hi = bounds
    axis = lo + np.arange(n) * ((hi - lo) / (n - 1))
    axis.flags.writeable = False
    return axis


@dataclass(frozen=True)
class ScanSpec:
    """What a scan samples: a ``"scan"`` is the grid of the a1 and a2 axis
    samples, a ``"diagonal"`` the points a1 = a2, whose a2 bounds are its
    a1 bounds. Building a spec checks n >= 2, the point count against
    :data:`MAX_POINTS`, the bounds and that rule."""

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
        points = self.n * self.n if self.command == "scan" else self.n
        if points > MAX_POINTS:
            raise BadDomain(f"a {self.command} of n={self.n} has {points} "
                            f"points, more than the {MAX_POINTS} a scan "
                            "may hold")
        a1 = _check_bounds(self.a1_bounds, "a1")
        a2 = _check_bounds(self.a2_bounds, "a2")
        if self.command == "diagonal" and a2 != a1:
            raise BadDomain(f"diagonal a2 bounds {a2!r} differ from its a1 "
                            f"bounds {a1!r}")
        object.__setattr__(self, "a1_bounds", a1)
        object.__setattr__(self, "a2_bounds", a2)

    @cached_property
    def a1_axis(self) -> np.ndarray:
        return axis_samples(self.a1_bounds, self.n)

    @cached_property
    def a2_axis(self) -> np.ndarray:
        same = self.a2_bounds == self.a1_bounds
        return self.a1_axis if same else axis_samples(self.a2_bounds, self.n)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The a1 and a2 columns of the points, the a1 axis on a diagonal."""
        if self.command == "diagonal":
            return self.a1_axis, self.a1_axis
        return np.tile(self.a1_axis, self.n), np.repeat(self.a2_axis, self.n)


@dataclass(frozen=True)
class Scan:
    """The points of a spec, as row-major columns."""

    spec: ScanSpec
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["codes"])


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
    """Determinant zeros and curvature spikes of a scan. The zeros are
    bisected on the unit-scale determinant to :data:`UNIT_DET_BOUND`; each
    bisected one reports ``det_at_root``, the determinant at scale k at its
    root, and ``det_bound`` is the unit bound times k^2."""

    det_zeros: tuple[DetZeroCrossing, ...]
    curvature_spikes: tuple[CurvatureSpike, ...]
    spike_threshold: float
    bisect_xtol: float
    det_bound: float
    det_evaluations: int  # determinant points the bisection evaluated


def _det_at(kind: FlowKind, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Unit-scale (k = 1) metric determinant of flow ``kind`` at the
    points (a1, a2), the determinant whose sign the classes read: per
    point, the bits of ``determinant(f11, f12, f22)`` of ``unit_slots``.

    Fewer than ``BISECT_BATCH_MIN`` points go through ``unit_slots`` one
    at a time, more through one ``batch_metric`` call, which gives the
    same bits.
    """
    if a1.shape[0] < BISECT_BATCH_MIN:
        jets = map(backend.unit_slots, repeat(kind), a1.tolist(), a2.tolist())
        return np.array([determinant(s.f11, s.f12, s.f22) for s in jets],
                        dtype=np.float64)
    return determinant(*backend.batch_metric(kind, a1, a2))


def _bisect(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
            lo: np.ndarray, hi: np.ndarray,
            neg: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of bracketed sign changes, every bracket halved at each step:
    per bracket (root, bracket width), and the midpoints evaluated.

    ``f(idx, x)`` is f of bracket ``idx[m]`` at ``x[m]``, and ``neg`` says
    whether f is negative at ``lo``; that sign never changes, since lo
    moves only to a midpoint of the same sign. A bracket stops when its
    midpoint no longer splits it, when f is exactly zero there, or once it
    is within :data:`BISECT_XTOL` and its best point within
    :data:`UNIT_DET_BOUND`; after 200 halvings at most. Its root is the
    midpoint of least |f| seen, ``lo`` if none has a finite f.
    """
    n = lo.shape[0]
    root, width = np.empty(n), np.empty(n)
    idx = np.arange(n)
    best_x, best_f = lo, np.full(n, np.inf)
    evaluations = 0

    def retire(keep):
        gone = ~keep
        out = idx[gone]
        root[out], width[out] = best_x[gone], hi[gone] - lo[gone]
        return [a[keep] for a in (idx, lo, hi, neg, best_x, best_f)]

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        splits = (mid > lo) & (mid < hi)
        if not splits.all():
            idx, lo, hi, neg, best_x, best_f = retire(splits)
            mid = mid[splits]
        if not idx.size:
            break
        fmid = f(idx, mid)
        evaluations += idx.size
        better = np.abs(fmid) < best_f
        best_x = np.where(better, mid, best_x)
        best_f = np.where(better, np.abs(fmid), best_f)
        hit = fmid == 0.0
        same = neg == (fmid < 0.0)
        lo = np.where(same | hit, mid, lo)
        hi = np.where(same & ~hit, hi, mid)
        done = hit | ((hi - lo <= BISECT_XTOL) & (best_f <= UNIT_DET_BOUND))
        idx, lo, hi, neg, best_x, best_f = retire(~done)
    retire(np.zeros(idx.shape, dtype=bool))
    return root, width, evaluations


#: The coordinates, (a1, a2), that the position along each kind of scan
#: line sets; a coordinate it does not set is the line's level.
_VARIES = {"row": (True, False), "col": (False, True), "diag": (True, True)}

def _det_crossings(lines: Sequence[tuple[str, np.ndarray, np.ndarray,
                                         np.ndarray]],
                   det_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   report: Callable[[np.ndarray, np.ndarray], np.ndarray]
                   ) -> tuple[list[DetZeroCrossing], int]:
    """Determinant zeros along scan lines, and the midpoints evaluated.

    Each of ``lines`` is a family ``(kind, levels, positions, dets)``: line
    j is at ``levels[j]``, and ``dets[j, i]`` is the determinant at
    ``positions[i]`` along it. Crossings come family by family, line by
    line, and in order along each line. A sample where the determinant is
    exactly zero is a crossing of width 0. A sign change between nonzero
    neighbours is a bracket; all brackets are bisected together on
    ``det_at(a1, a2)``, which maps point columns to a determinant column
    with the signs, not necessarily the scale, of ``dets``. A bisected
    crossing's ``det_at_root`` is ``report`` at its root, evaluated once.
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

    def point(idx, x):
        return (np.where(vary1[idx], x, fixed[idx]),
                np.where(vary2[idx], x, fixed[idx]))

    root[b], width[b], evaluations = _bisect(
        lambda idx, x: det_at(*point(idx, x)), lo[b], hi[b], flo[b] < 0.0)
    froot[b] = report(*point(slice(None), root[b]))
    kinds = [lines[f][0] for f in family.tolist()]
    return (list(map(DetZeroCrossing, kinds, level.tolist(), root.tolist(),
                     width.tolist(), froot.tolist())), evaluations)


def locate_transitions(scan: Scan,
                       spike_threshold: float | None = None) -> TransitionSet:
    """Determinant zeros (bisected) and curvature spikes of a scan.

    The brackets come from the scan's det column, which must be finite
    (``ValueError`` otherwise, before any bisection), and are bisected on
    the unit-scale determinant to ``UNIT_DET_BOUND``. Each bisected
    crossing reports the determinant at scale k at its root, the det
    column of :func:`evaluate_points` there, and ``det_bound`` is the
    bound at that scale. A spike is a finite curvature with |R| above
    ``spike_threshold`` (default 1e6/k), which must be finite and
    positive.
    """
    spec, cols = scan.spec, scan.columns
    kind, k = spec.model.kind, spec.model.k
    if spike_threshold is None:
        spike_threshold = 1e6 / k
    elif not (math.isfinite(spike_threshold) and spike_threshold > 0.0):
        raise ValueError("spike threshold must be finite and > 0, "
                         f"got {spike_threshold!r}")
    check_finite(cols, k, ("det",))
    if spec.command == "scan":
        det = cols["det"].reshape(spec.n, spec.n)  # [i2, i1]
        lines = [("row", spec.a2_axis, spec.a1_axis, det),
                 ("col", spec.a1_axis, spec.a2_axis, det.T)]
    else:
        lines = [("diag", np.array([math.nan]), cols["a1"],
                  cols["det"][np.newaxis])]
    zeros, evaluations = _det_crossings(
        lines, partial(_det_at, kind),
        lambda a1, a2: evaluate_points(spec.model, a1, a2)["det"])

    curv = cols["curvature"]
    hits = np.flatnonzero(np.isfinite(curv) & (np.abs(curv) > spike_threshold))
    a1, a2, mag = (cols["a1"][hits].tolist(), cols["a2"][hits].tolist(),
                   np.abs(curv[hits]).tolist())
    spikes = tuple(map(CurvatureSpike, a1, a2, mag))

    return TransitionSet(det_zeros=tuple(zeros),
                         curvature_spikes=spikes,
                         spike_threshold=spike_threshold,
                         bisect_xtol=BISECT_XTOL,
                         det_bound=UNIT_DET_BOUND * k * k,
                         det_evaluations=evaluations)
