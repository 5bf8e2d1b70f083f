"""Metric, determinant, curvature: anchors, cross-checks, covariance."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom.errors import DegenerateMetric
from powergeom.fdcheck import central_difference
from powergeom.geometry import (
    CLASS_ORDER,
    DEGEN_TOL,
    Metric2,
    StabilityClass,
    determinant,
    geometry_columns,
    geometry_report,
    hessian_metric,
    is_degenerate,
    metric_determinant,
    scalar_curvature_closed,
    scalar_curvature_oracle,
)
from powergeom.jets import Jet3, jet_linear, jet_mul, jet_seed
from powergeom.models import FlowKind, PowerModel

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)


def paraboloid(a1: float, a2: float) -> Jet3:
    """Synthetic quadratic field a1^2 + a2^2."""
    x = jet_seed(1, a1)
    y = jet_seed(2, a2)
    return jet_linear(jet_mul(x, x), jet_mul(y, y), 1.0, 1.0)


def random_points(seed, n, lo=-1.4, hi=1.4):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestMetric:
    def test_quadratic_field(self):
        m = hessian_metric(paraboloid, (0.37, -0.9))
        assert (m.g11, m.g12, m.g22) == (2.0, 0.0, 2.0)
        assert metric_determinant(m) == 4.0

    def test_real_flow_origin(self):
        m = hessian_metric(REAL, (0.0, 0.0))
        assert (m.g11, m.g12, m.g22) == (-2.0, 2.0, -2.0)
        assert metric_determinant(m) == 0.0

    def test_imaginary_flow_origin_is_zero_matrix(self):
        m = hessian_metric(IMAG, (0.0, 0.0))
        assert (m.g11, m.g12, m.g22) == (0.0, 0.0, 0.0)

    def test_real_flow_exchange_symmetry(self):
        for (a1, a2) in random_points(21, 50):
            m = hessian_metric(REAL, (a1, a2))
            ms = hessian_metric(REAL, (a2, a1))
            tol = 1e-12 * max(1.0, m.inf_norm)
            assert abs(m.g11 - ms.g22) <= tol
            assert abs(m.g22 - ms.g11) <= tol
            assert abs(m.g12 - ms.g12) <= tol


class TestCurvature:
    def test_quadratic_field_is_flat_both_routes(self):
        assert scalar_curvature_closed(paraboloid, (0.5, 0.5)) == 0.0
        assert scalar_curvature_oracle(paraboloid, (0.5, 0.5)) == 0.0

    def test_degenerate_at_real_flow_origin(self):
        with pytest.raises(DegenerateMetric):
            scalar_curvature_closed(REAL, (0.0, 0.0))
        with pytest.raises(DegenerateMetric):
            scalar_curvature_oracle(REAL, (0.0, 0.0))

    @pytest.mark.parametrize("model", [REAL, IMAG, COMP])
    def test_closed_equals_oracle(self, model):
        """The two curvature routes agree wherever det is well away from 0."""
        checked = 0
        k2 = model.k * model.k
        for (a1, a2) in random_points(22, 400):
            m = hessian_metric(model, (a1, a2))
            if abs(metric_determinant(m)) <= 0.1 * k2:
                continue
            closed = scalar_curvature_closed(model, (a1, a2))
            oracle = scalar_curvature_oracle(model, (a1, a2))
            assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle))
            checked += 1
            if checked == 100:
                break
        assert checked == 100

    def test_imaginary_equal_phases_flat(self):
        for a in (0.5, -0.5, 0.3, 1.0, -1.3):
            r = scalar_curvature_closed(IMAG, (a, a))
            assert abs(r) <= 1e-6

    def test_against_surface_theory_curvature(self):
        """Brioschi formula on the metric field, fully independent route.

        Differentiates the metric components numerically and assembles the
        Gaussian curvature K; the scalar curvature must equal 2K.
        """

        def metric_entry(model, which):
            def entry(a1, a2):
                m = hessian_metric(model, (a1, a2))
                return getattr(m, which)
            return entry

        for model, point in [(REAL, (0.4, -0.3)), (IMAG, (0.7, 0.2)),
                             (COMP, (-0.5, 0.35))]:
            E = metric_entry(model, "g11")
            F = metric_entry(model, "g12")
            G = metric_entry(model, "g22")
            x, y = point
            Ev = central_difference(E, x, y, 0, 1, 1e-3)
            Evv = central_difference(E, x, y, 0, 2, 1e-3)
            Eu = central_difference(E, x, y, 1, 0, 1e-3)
            Fu = central_difference(F, x, y, 1, 0, 1e-3)
            Fv = central_difference(F, x, y, 0, 1, 1e-3)
            Fuv = central_difference(F, x, y, 1, 1, 1e-3)
            Gu = central_difference(G, x, y, 1, 0, 1e-3)
            Gv = central_difference(G, x, y, 0, 1, 1e-3)
            Guu = central_difference(G, x, y, 2, 0, 1e-3)
            e, f, g = E(x, y), F(x, y), G(x, y)

            def det3(m):
                return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

            first = det3([[-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
                          [Fv - 0.5 * Gu, e, f],
                          [0.5 * Gv, f, g]])
            second = det3([[0.0, 0.5 * Ev, 0.5 * Gu],
                           [0.5 * Ev, e, f],
                           [0.5 * Gu, f, g]])
            det = e * g - f * f
            gauss = (first - second) / (det * det)
            closed = scalar_curvature_closed(model, point)
            assert closed == pytest.approx(2.0 * gauss, rel=1e-5, abs=1e-7)


class TestDiagonalIdentities:
    def test_real_flow_determinant_vanishes(self):
        k2 = REAL.k * REAL.k
        for a in [i / 20 * 1.4 for i in range(-20, 21)]:
            det = metric_determinant(hessian_metric(REAL, (a, a)))
            sec = 1.0 / math.cos(a)
            assert abs(det) <= 1e-9 * k2 * sec**8

    @pytest.mark.parametrize("model", [IMAG, COMP])
    def test_diagonal_determinant_formula(self, model):
        k2 = model.k * model.k
        for a in [i / 20 * 1.4 for i in range(-20, 21)]:
            det = metric_determinant(hessian_metric(model, (a, a)))
            sec = 1.0 / math.cos(a)
            expected = -4.0 * k2 * sec**4 * math.tan(a) ** 2
            assert abs(det - expected) <= 1e-9 * max(1.0, abs(expected))


class TestScaleCovariance:
    def test_power_of_two_scale_is_exact(self):
        # k=4 exactly; slot scaling by a power of two is lossless
        for kind in FlowKind:
            unit = PowerModel(kind)
            scaled = PowerModel(kind, v=2.0, r0=1.0)
            for (a1, a2) in random_points(23, 30):
                mu = hessian_metric(unit, (a1, a2))
                ms = hessian_metric(scaled, (a1, a2))
                assert (ms.g11, ms.g12, ms.g22) == (
                    4.0 * mu.g11, 4.0 * mu.g12, 4.0 * mu.g22)
                assert metric_determinant(ms) == 16.0 * metric_determinant(mu)

    def test_generic_scale_covariance(self):
        for kind in FlowKind:
            unit = PowerModel(kind)
            scaled = PowerModel(kind, v=1.9, r0=0.7)
            c = scaled.k
            for (a1, a2) in random_points(24, 40):
                mu = hessian_metric(unit, (a1, a2))
                ms = hessian_metric(scaled, (a1, a2))
                assert ms.g11 == pytest.approx(c * mu.g11, rel=1e-12, abs=1e-12)
                det_u = metric_determinant(mu)
                if abs(det_u) < 0.1:
                    continue
                assert metric_determinant(ms) == pytest.approx(
                    c * c * det_u, rel=1e-12)
                ru = scalar_curvature_closed(unit, (a1, a2))
                rs = scalar_curvature_closed(scaled, (a1, a2))
                assert rs == pytest.approx(ru / c, rel=1e-9)


class TestReportsAndClassification:
    def test_quadratic_is_stable(self):
        rep = geometry_report(paraboloid, (0.1, 0.2))
        assert rep.classification is StabilityClass.STABLE
        assert rep.curvature == 0.0

    def test_real_origin_is_degenerate_with_nan_curvature(self):
        rep = geometry_report(REAL, (0.0, 0.0))
        assert rep.classification is StabilityClass.DEGENERATE
        assert math.isnan(rep.curvature)
        assert rep.det == 0.0
        assert rep.value == 1.0

    def test_imaginary_diagonal_point_indefinite(self):
        rep = geometry_report(IMAG, (0.5, 0.5))
        assert rep.classification is StabilityClass.INDEFINITE
        assert rep.det < 0.0

    def test_degeneracy_tolerance_scales_with_metric(self):
        # a metric with tiny det relative to its norm squared is degenerate
        small = Metric2(g11=1e6, g12=1e6, g22=1e6 + 1e-9, point=(0.0, 0.0))
        det = metric_determinant(small)
        assert det > DEGEN_TOL  # above the tolerance's absolute floor
        assert is_degenerate(det, small.g11, small.g12, small.g22)
        jet = Jet3(0.0, 0.0, 0.0, small.g11, small.g12, small.g22,
                   0.0, 0.0, 0.0, 0.0)
        codes = geometry_columns(jet)["codes"]
        assert CLASS_ORDER[int(codes)] is StabilityClass.DEGENERATE

    def test_class_labels_round_trip(self):
        for member in StabilityClass:
            assert StabilityClass.from_label(member.label) is member


def _magnitudes():
    """0, +-inf, and finite magnitudes spread over 1e-170 ... 1e170."""
    finite = st.builds(lambda m, e: m * 10.0 ** e,
                       st.floats(1.0, 10.0), st.integers(-170, 169))
    return st.one_of(st.just(0.0), st.just(math.inf), finite)


def _signed(magnitude):
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(
        lambda t: t[0] * t[1])


_free_triples = st.tuples(_signed(_magnitudes()), _signed(_magnitudes()),
                          _signed(_magnitudes()))
# g22 close to g12^2/g11, so that det is tiny next to the components
_near_singular = st.builds(
    lambda g11, g12, rel: (g11, g12, g12 * g12 / g11 * (1.0 + rel)),
    _signed(_magnitudes()).filter(lambda g: g != 0.0),
    _signed(_magnitudes()),
    st.sampled_from((0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-10, -1e-10,
                     1e-8, 1e-4)))


class TestDegeneracyPredicate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(_free_triples, _near_singular),
                    min_size=1, max_size=40))
    def test_floats_arrays_and_the_max_form_agree(self, triples):
        want = []
        got_float = []
        for g11, g12, g22 in triples:
            det = determinant(g11, g12, g22)
            norm = max(abs(g11), abs(g12), abs(g22))
            want.append(abs(det) <= DEGEN_TOL * max(1.0, norm * norm))
            got_float.append(is_degenerate(det, g11, g12, g22))
        assert got_float == want
        g11, g12, g22 = (np.array(col) for col in zip(*triples))
        with np.errstate(all="ignore"):
            det = determinant(g11, g12, g22)
            got_array = is_degenerate(det, g11, g12, g22)
        assert got_array.tolist() == want
