"""Scans, classification, and transition location."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisect_reference import reference_crossings
from jet_reference import jet_linear, jet_mul, jet_seed, one_point, paraboloid
from powergeom import backend, stability
from powergeom.errors import BadDomain
from powergeom.geometry import (
    CLASS_LABELS,
    CLASS_ORDER,
    StabilityClass,
    geometry_report,
)
from powergeom.models import HALF_PI, FlowKind, PowerModel
from powergeom.scan_io import grid_table, render_csv
from powergeom.stability import (
    DEFAULT_GUARD,
    ScanSpec,
    _det_crossings,
    axis_samples,
    locate_transitions,
    scan_diagonal,
    scan_grid,
)

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)


class TestClassifyPoint:
    """Single points go through geometry_report, the scans' classifier."""

    def test_quadratic_stable(self):
        codes = one_point(paraboloid(0.3, -0.8))["codes"]
        assert CLASS_ORDER[codes] is StabilityClass.STABLE

    def test_real_origin_degenerate(self):
        rep = geometry_report(REAL, (0.0, 0.0))
        assert rep.classification is StabilityClass.DEGENERATE

    def test_imaginary_diagonal_indefinite(self):
        rep = geometry_report(IMAG, (0.5, 0.5))
        assert rep.classification is StabilityClass.INDEFINITE


class TestScanGrid:
    def test_tiny_grid_shape_and_order(self):
        scan = scan_grid(REAL, (-0.2, 0.2), n=2)
        assert len(scan) == 4
        pts = list(zip(scan.columns["a1"].tolist(),
                       scan.columns["a2"].tolist()))
        # row-major, a1 fastest
        assert pts == [(-0.2, -0.2), (0.2, -0.2), (-0.2, 0.2), (0.2, 0.2)]

    def test_sample_positions_follow_the_formula(self):
        samples = axis_samples((-1.0, 1.0), 5)
        step = 2.0 / 4
        assert samples.tolist() == [-1.0 + i * step for i in range(5)]
        rng = np.random.default_rng(61)
        for _ in range(300):
            lo, hi = sorted(rng.uniform(-1.5, 1.5, 2).tolist())
            n = int(rng.integers(2, 300))
            step = (hi - lo) / (n - 1)
            assert [x.hex() for x in axis_samples((lo, hi), n).tolist()] == [
                (lo + i * step).hex() for i in range(n)]

    def test_refinement_shares_points_bitwise(self):
        n = 65  # the fine grid spans several kernel blocks
        coarse = scan_grid(IMAG, (-1.31, 1.07), n=n)
        fine = scan_grid(IMAG, (-1.31, 1.07), n=2 * n - 1)
        cd = coarse.columns["det"].reshape(n, n)
        fd = fine.columns["det"].reshape(2 * n - 1, 2 * n - 1)
        assert (cd == fd[::2, ::2]).all()
        cc = coarse.columns["curvature"].reshape(n, n)
        fc = fine.columns["curvature"].reshape(2 * n - 1, 2 * n - 1)[::2, ::2]
        both = np.isfinite(cc) & np.isfinite(fc)
        assert (cc[both] == fc[both]).all()
        assert (np.isnan(cc) == np.isnan(fc)).all()

    def test_real_default_scan_has_stable_and_other_bands(self):
        scan = scan_grid(REAL, n=64)
        labels = {CLASS_LABELS[c] for c in scan.columns["codes"].tolist()}
        assert "STABLE" in labels
        assert labels - {"STABLE"}

    def test_rescan_is_byte_identical(self):
        a = "".join(render_csv(grid_table(scan_grid(COMP, n=16))))
        b = "".join(render_csv(grid_table(scan_grid(COMP, n=16))))
        assert a == b

    def test_block_split_does_not_change_content(self, monkeypatch):
        n = 97  # 9409 points: three blocks at the default block size
        base = scan_grid(IMAG, n=n)
        for block in (13, 1000, 4000, n * n):
            monkeypatch.setattr(backend, "BLOCK", block)
            split = scan_grid(IMAG, n=n)
            for key in ("value", "g11", "g12", "g22", "det", "curvature",
                        "codes"):
                a, b = base.columns[key], split.columns[key]
                assert a.tobytes() == b.tobytes(), (block, key)

    def test_domain_touching_pole_rejected(self):
        with pytest.raises(BadDomain):
            scan_grid(REAL, (-math.pi / 2, 1.0), n=8)
        with pytest.raises(BadDomain):
            scan_grid(REAL, (-1.0, 1.56), n=8)
        with pytest.raises(BadDomain):
            scan_grid(REAL, (1.0, -1.0), n=8)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            scan_grid(REAL, n=1)

    def test_asymmetric_axes(self):
        scan = scan_grid(REAL, (-0.5, 0.5), (0.1, 0.9), n=3)
        assert scan.spec.a1_axis.tolist() == [-0.5, 0.0, 0.5]
        assert scan.spec.a2_axis.tolist() == [0.1, 0.5, 0.9]


class TestScanDiagonal:
    def test_imaginary_diagonal_flat_curvature(self):
        scan = scan_diagonal(IMAG, (-1.4, 1.4), n=101)
        assert scan.spec.command == "diagonal"
        assert len(scan) == 101
        cols = scan.columns
        assert (cols["a1"] == cols["a2"]).all()
        curv = cols["curvature"]
        finite = np.isfinite(curv)
        assert finite.any()
        assert (np.abs(curv[finite]) <= 1e-6).all()

    def test_real_diagonal_degenerate_everywhere(self):
        k2 = REAL.k ** 2
        scan = scan_diagonal(REAL, (-1.4, 1.4), n=51)
        sec = 1.0 / np.cos(scan.columns["a1"])
        assert (np.abs(scan.columns["det"]) <= 1e-9 * k2 * sec**8).all()
        labels = {CLASS_LABELS[c] for c in scan.columns["codes"].tolist()}
        assert labels == {"DEGEN"}
        assert np.isnan(scan.columns["curvature"]).all()

    def test_complex_diagonal_origin_degenerate(self):
        scan = scan_diagonal(COMP, (-1.0, 1.0), n=21)
        cols = scan.columns
        assert (cols["a1"][10], cols["a2"][10]) == (0.0, 0.0)
        assert cols["det"][10] == 0.0
        assert CLASS_ORDER[cols["codes"][10]] is StabilityClass.DEGENERATE


class TestScanSpec:
    """One spec describes both scan shapes and checks them in one place."""

    def test_scans_carry_their_spec(self):
        grid = scan_grid(COMP, (-0.5, 0.5), (0.1, 0.9), n=3)
        assert grid.spec == ScanSpec(COMP, "scan", (-0.5, 0.5), (0.1, 0.9), 3)
        square = scan_grid(COMP, (-0.5, 0.5), n=3)
        assert square.spec == ScanSpec(COMP, "scan", (-0.5, 0.5),
                                       (-0.5, 0.5), 3)
        diagonal = scan_diagonal(IMAG, (-1.0, 1.0), n=5)
        assert diagonal.spec == ScanSpec(IMAG, "diagonal", (-1.0, 1.0),
                                         (-1.0, 1.0), 5)
        assert len(diagonal) == 5

    def test_bounds_are_stored_as_float_pairs(self):
        spec = ScanSpec(REAL, "scan", [-1, 1], np.array([0, 1]), 2)
        assert spec.a1_bounds == (-1.0, 1.0)
        assert spec.a2_bounds == (0.0, 1.0)
        assert all(type(x) is float
                   for x in spec.a1_bounds + spec.a2_bounds)

    def test_points_of_a_grid_and_a_diagonal(self):
        a1, a2 = ScanSpec(REAL, "scan", (-1.0, 1.0), (0.0, 0.5), 3).points()
        assert a1.tolist() == [-1.0, 0.0, 1.0] * 3
        assert a2.tolist() == [0.0] * 3 + [0.25] * 3 + [0.5] * 3
        a1, a2 = ScanSpec(REAL, "diagonal", (-1.0, 1.0), (-1.0, 1.0),
                          3).points()
        assert a1 is a2
        assert a1.tolist() == [-1.0, 0.0, 1.0]

    @pytest.mark.parametrize("a2", [(-0.5, 0.5), (-1.0, 0.5),
                                    (-1.0, math.nextafter(1.0, 2.0))])
    def test_diagonal_a2_bounds_must_be_its_a1_bounds(self, a2):
        with pytest.raises(BadDomain):
            ScanSpec(REAL, "diagonal", (-1.0, 1.0), a2, 5)

    @pytest.mark.parametrize("command", ["scan", "diagonal"])
    def test_checks_n_and_both_axes(self, command):
        with pytest.raises(ValueError, match="^need at least 2 samples per "
                           "axis, got 1$"):
            ScanSpec(REAL, command, (-1.0, 1.0), (-1.0, 1.0), 1)
        with pytest.raises(BadDomain, match="^a1 bounds must satisfy"):
            ScanSpec(REAL, command, (1.0, -1.0), (1.0, -1.0), 4)
        with pytest.raises(BadDomain, match="^a2 bounds .* reach within"):
            ScanSpec(REAL, command, (-1.0, 1.0), (-1.0, 1.56), 4)

    def test_unknown_command(self):
        with pytest.raises(ValueError, match="unknown scan command 'grid'"):
            ScanSpec(REAL, "grid", (-1.0, 1.0), (-1.0, 1.0), 4)

    def test_point_ceiling(self):
        """n^2 points of a grid and n of a diagonal may reach MAX_POINTS
        and not pass it; the check allocates nothing."""
        side = math.isqrt(stability.MAX_POINTS)
        assert side * side == stability.MAX_POINTS
        ScanSpec(REAL, "scan", (-1.0, 1.0), (-1.0, 1.0), side)
        ScanSpec(REAL, "diagonal", (-1.0, 1.0), (-1.0, 1.0),
                 stability.MAX_POINTS)
        with pytest.raises(BadDomain, match=(
                f"^a scan of n={side + 1} has {(side + 1) ** 2} points, "
                f"more than the {stability.MAX_POINTS} a scan may hold$")):
            ScanSpec(REAL, "scan", (-1.0, 1.0), (-1.0, 1.0), side + 1)
        tracemalloc.start()
        try:
            with pytest.raises(BadDomain, match=(
                    "^a diagonal of n=99999999999 has 99999999999 points, ")):
                ScanSpec(REAL, "diagonal", (-1.0, 1.0), (-1.0, 1.0),
                         99999999999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestScanMemory:
    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_a_scan_keeps_only_its_columns(self, kind, monkeypatch):
        """A 512^2 scan keeps its a1, a2, value, g11, g12, g22, det and
        curvature columns and its codes, 65 B a point, and none of the
        jet's other slots; its traced peak stays at 141 B a point."""
        batch_slots = backend.batch_slots

        def checked(kind, a1, a2):
            jets = batch_slots(kind, a1, a2)
            assert len({id(slot) for slot in jets}) == len(jets) == 10
            for slot in jets:
                assert slot.base is None and slot.flags.c_contiguous
            return jets

        monkeypatch.setattr(backend, "batch_slots", checked)
        n = 512
        tracemalloc.start()
        try:
            scan = scan_grid(PowerModel(kind, v=1.3, r0=0.7), n=n)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 66 * n * n
        assert peak <= 141.1 * n * n
        spec = scan.spec
        for axis, (lo, hi) in ((spec.a1_axis, spec.a1_bounds),
                               (spec.a2_axis, spec.a2_bounds)):
            step = (hi - lo) / (n - 1)
            assert axis.dtype == np.float64 and not axis.flags.writeable
            assert [x.hex() for x in axis.tolist()] == [
                (lo + i * step).hex() for i in range(n)]
        assert spec.a1_axis is spec.a1_axis


def diagonal_crossings(field, positions):
    """Bisected determinant zeros of a jet field along a1 = a2."""
    def det_at(a1, a2):
        return np.array([one_point(field(x, y))["det"]
                         for x, y in zip(a1.tolist(), a2.tolist())])

    a = np.array(positions)
    zeros, _ = _det_crossings([("diag", np.array([math.nan]), a,
                                det_at(a, a)[np.newaxis])],
                              det_at, det_at)
    return zeros


_LIMIT = HALF_PI - DEFAULT_GUARD
_BOUNDS = st.tuples(st.floats(-_LIMIT, _LIMIT), st.floats(-_LIMIT, _LIMIT)
                    ).filter(lambda b: b[0] != b[1]).map(sorted).map(tuple)


def _crossing_bits(zeros):
    return [(z.line, z.level.hex(), z.root.hex(), z.bracket.hex(),
             z.det_at_root.hex()) for z in zeros]


class TestLocateTransitions:
    def test_linear_determinant_has_single_root_at_zero(self):
        # synthetic field with det proportional to a1: S = a1^3/6 + a2^2/2
        # gives g11 = a1, g22 = 1, g12 = 0, det = a1
        def field(a1, a2):
            x = jet_seed(1, a1)
            y = jet_seed(2, a2)
            cubic = jet_mul(jet_mul(x, x), x)
            quad = jet_mul(y, y)
            return jet_linear(cubic, quad, 1.0 / 6.0, 0.5)

        positions = [-1.0, -0.5, 0.25, 1.0]
        assert [one_point(field(a, a))["det"]
                for a in positions] == positions
        zeros = diagonal_crossings(field, positions)
        assert len(zeros) == 1
        root = zeros[0]
        assert root.line == "diag"
        assert abs(root.root) <= 1e-10
        assert root.bracket <= 1e-10

    def test_quadratic_field_has_no_transitions(self):
        assert diagonal_crossings(paraboloid, [-1.0, -0.3, 0.4, 1.0]) == []

    def test_grid_roots_meet_the_det_bound_or_float_limit(self):
        for model in (REAL, IMAG, COMP):
            scan = scan_grid(model, n=48)
            transitions = locate_transitions(scan)
            assert transitions.det_zeros  # these surfaces do cross zero
            for z in transitions.det_zeros:
                at_bound = abs(z.det_at_root) < transitions.det_bound
                collapsed = z.bracket <= 4.0 * math.ulp(max(1.0, abs(z.root)))
                assert at_bound or collapsed
                assert z.bracket <= transitions.bisect_xtol or collapsed

    def test_diagonal_transition_counts_are_reported(self):
        transitions = locate_transitions(scan_diagonal(COMP, n=201))
        # origin det zero and curvature spike count are reported, not asserted
        # against any external claim
        assert len(transitions.det_zeros) >= 1
        assert transitions.curvature_spikes == tuple(
            s for s in transitions.curvature_spikes)

    def test_det_evaluations_count_the_bisected_midpoints(self):
        assert locate_transitions(scan_grid(IMAG, n=16)).det_evaluations > 0
        flat = locate_transitions(scan_grid(REAL, (0.2, 0.6), (-0.9, -0.5),
                                            n=8))
        assert flat.det_zeros == () and flat.det_evaluations == 0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(flow=st.sampled_from(list(FlowKind)),
           v=st.floats(0.5, 2.0), r0=st.floats(0.5, 2.0),
           a1_bounds=_BOUNDS, a2_bounds=_BOUNDS, n=st.integers(2, 40),
           diagonal=st.booleans())
    def test_matches_the_scalar_reference(self, flow, v, r0, a1_bounds,
                                          a2_bounds, n, diagonal):
        """Every crossing, in order and bit for bit, is the one the
        per-bracket scalar search finds, from as many evaluations."""
        model = PowerModel(flow, v=v, r0=r0)
        scan = (scan_diagonal(model, a1_bounds, n) if diagonal
                else scan_grid(model, a1_bounds, a2_bounds, n))
        transitions = locate_transitions(scan)
        zeros, evaluations = reference_crossings(scan)
        assert _crossing_bits(transitions.det_zeros) == _crossing_bits(zeros)
        assert transitions.det_evaluations == evaluations

    def test_spike_threshold_scales_with_k(self):
        model = PowerModel(FlowKind.COMPLEX, v=2.0, r0=1.0)
        scan = scan_grid(model, (-0.5, 0.5), n=5)
        transitions = locate_transitions(scan)
        assert transitions.spike_threshold == pytest.approx(1e6 / 4.0)
        assert transitions.det_bound == pytest.approx(1e-8 * 16.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0,
                                     -0.0, -1.0])
    def test_spike_threshold_must_be_finite_and_positive(self, bad):
        for scan in (scan_grid(COMP, (-0.5, 0.5), n=5),
                     scan_diagonal(COMP, n=5)):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                locate_transitions(scan, spike_threshold=bad)

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_a_non_finite_det_column_is_refused(self, kind):
        """At k = 1e153 the scaled determinant overflows near the poles:
        the first nan or inf det is named, with k and its point, before
        any bisection."""
        model = PowerModel(kind, v=1e76, r0=0.1)
        for scan in (scan_grid(model, n=64), scan_diagonal(model, n=4001)):
            det, a1, a2 = (scan.columns[key] for key in ("det", "a1", "a2"))
            at = int(np.argmax(~np.isfinite(det)))
            assert not math.isfinite(det[at])
            message = (f"det is {float(det[at])!r} at k = V^2/R0 = "
                       f"{model.k!r} (a1 = {float(a1[at])!r}, "
                       f"a2 = {float(a2[at])!r}): the scaled geometry is "
                       "out of float range")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                locate_transitions(scan)

    def test_crossings_come_from_the_written_det_column(self):
        """Crossing events are the written det column's exact zeros and
        sign changes between nonzero neighbours, rows then columns, as a
        reader of the scan file counts them. At (1.5, 1.4999999999999998)
        of this real-flow tile the unit determinant cancels to exactly 0.0,
        so the point is DEGEN, yet its written det is 1.52587890625e-05:
        events taken from the class codes would count other crossings."""
        model = PowerModel(FlowKind.REAL, v=1.9958212043420633,
                           r0=1.1393733799817543)
        n = 64
        scan = scan_grid(model, (-0.1650852405725588, 1.5),
                         (-0.4913465889749535, 1.5), n=n)
        cols = scan.columns
        assert (cols["a1"][-1], cols["a2"][-1]) == (1.5, 1.4999999999999998)
        assert CLASS_ORDER[cols["codes"][-1]] is StabilityClass.DEGENERATE
        assert cols["det"][-1] == 1.52587890625e-05

        def events(dets):
            zero, neg = dets == 0.0, dets < 0.0
            return int(zero.sum() + (~zero[:-1] & ~zero[1:]
                                     & (neg[:-1] != neg[1:])).sum())

        det = cols["det"].reshape(n, n)
        expected = sum(map(events, [*det, *det.T]))
        assert expected == 201
        assert len(locate_transitions(scan).det_zeros) == expected


#: Scales from 1e-6 to 1e6: a mantissa times a power of ten, or an end.
_DECADES = st.one_of(
    st.sampled_from((1e-6, 1e6)),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-6, 5)))


class TestClassificationInvariance:
    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(flow=st.sampled_from(list(FlowKind)), v=_DECADES, r0=_DECADES,
           n=st.integers(2, 24), diagonal=st.booleans())
    @example(flow=FlowKind.COMPLEX, v=1.3, r0=0.7, n=64, diagonal=False)
    def test_classes_and_crossings_do_not_depend_on_k(self, flow, v, r0, n,
                                                      diagonal):
        """The stability class is a sign pattern of a metric that goes as
        k = V^2/R0: at any V and R0 in 1e-6...1e6 a scan's class codes are
        those at k = 1. Its crossings are bisected on the unit determinant,
        so each one's line, level, root and bracket, and the determinant
        evaluations, are those at k = 1 bit for bit."""
        def scan(model):
            return (scan_diagonal(model, n=n) if diagonal
                    else scan_grid(model, n=n))

        unit, scaled = scan(PowerModel(flow)), scan(PowerModel(flow, v, r0))
        assert (scaled.columns["codes"] == unit.columns["codes"]).all()
        at_unit, at_k = locate_transitions(unit), locate_transitions(scaled)
        assert ([bits[:4] for bits in _crossing_bits(at_k.det_zeros)]
                == [bits[:4] for bits in _crossing_bits(at_unit.det_zeros)])
        assert at_k.det_evaluations == at_unit.det_evaluations

    @pytest.mark.parametrize("n", [33, 64, 256])
    def test_transpose_relations(self, n):
        """Swapping a1 and a2 negates u. The real flow is even in u, so
        its class map is symmetric; the imaginary flow is odd, so its
        metric changes sign and STABLE and NEGDEF trade places."""
        real = scan_grid(REAL, n=n).columns["codes"].reshape(n, n)
        assert (real == real.T).all()
        stable = CLASS_ORDER.index(StabilityClass.STABLE)
        negdef = CLASS_ORDER.index(StabilityClass.NEGATIVE_DEFINITE)
        swap = np.arange(len(CLASS_ORDER))
        swap[[stable, negdef]] = negdef, stable
        imag = scan_grid(IMAG, n=n).columns["codes"].reshape(n, n)
        assert (imag == swap[imag.T]).all()

    def test_rescaling_k_preserves_every_class(self):
        # signs of g11, g22 and det are homogeneous in k > 0
        for kind in FlowKind:
            unit = scan_grid(PowerModel(kind), n=24)
            scaled = scan_grid(PowerModel(kind, v=2.0, r0=1.0), n=24)
            assert (unit.columns["codes"] == scaled.columns["codes"]).all()
