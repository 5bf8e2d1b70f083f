"""Metric, determinant, curvature: anchors, cross-checks, covariance."""

import math
import random
import sys
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jet_reference import one_point, paraboloid
from powergeom import backend
from powergeom.backend import Jet3
from powergeom.errors import DegenerateMetric, DomainError
from powergeom.fdcheck import PRECISION, central_difference, decimal_tan
from powergeom.geometry import (
    CLASS_ORDER,
    StabilityClass,
    curvature_numerator,
    determinant,
    geometry_columns,
    geometry_report,
    is_degenerate,
    scalar_curvature_oracle,
)
from powergeom.models import (FlowKind, PowerModel, eval_power_jet,
                              unit_surface)

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)


def at(model, a1, a2):
    """geometry_columns of the model's unit jet at one point and its k."""
    return one_point(backend.unit_slots(model.kind, a1, a2), model.k)


def random_points(seed, n, lo=-1.4, hi=1.4):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestMetric:
    def test_quadratic_field(self):
        m = one_point(paraboloid(0.37, -0.9))
        assert (m["g11"], m["g12"], m["g22"]) == (2.0, 0.0, 2.0)
        assert m["det"] == 4.0

    def test_real_flow_origin(self):
        m = at(REAL, 0.0, 0.0)
        assert (m["g11"], m["g12"], m["g22"]) == (-2.0, 2.0, -2.0)
        assert m["det"] == 0.0

    def test_imaginary_flow_origin_is_zero_matrix(self):
        m = at(IMAG, 0.0, 0.0)
        assert (m["g11"], m["g12"], m["g22"]) == (0.0, 0.0, 0.0)

    def test_real_flow_exchange_symmetry(self):
        for (a1, a2) in random_points(21, 50):
            m = at(REAL, a1, a2)
            ms = at(REAL, a2, a1)
            norm = max(abs(m["g11"]), abs(m["g12"]), abs(m["g22"]))
            tol = 1e-12 * max(1.0, norm)
            assert abs(m["g11"] - ms["g22"]) <= tol
            assert abs(m["g22"] - ms["g11"]) <= tol
            assert abs(m["g12"] - ms["g12"]) <= tol


class TestCurvature:
    def test_quadratic_field_is_flat_both_routes(self):
        jet = paraboloid(0.5, 0.5)
        assert one_point(jet)["curvature"] == 0.0
        assert scalar_curvature_oracle(jet) == 0.0

    def test_degenerate_at_real_flow_origin(self):
        cols = at(REAL, 0.0, 0.0)
        assert math.isnan(cols["curvature"])
        assert CLASS_ORDER[cols["codes"]] is StabilityClass.DEGENERATE
        with pytest.raises(DegenerateMetric):
            scalar_curvature_oracle(eval_power_jet(REAL, 0.0, 0.0))

    @pytest.mark.parametrize("model", [REAL, IMAG, COMP])
    def test_closed_equals_oracle(self, model):
        """The two curvature routes agree wherever det is well away from 0."""
        checked = 0
        k2 = model.k * model.k
        for (a1, a2) in random_points(22, 400):
            cols = at(model, a1, a2)
            if abs(cols["det"]) <= 0.1 * k2:
                continue
            closed = cols["curvature"]
            oracle = scalar_curvature_oracle(eval_power_jet(model, a1, a2))
            assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle))
            checked += 1
            if checked == 100:
                break
        assert checked == 100

    def test_imaginary_equal_phases_flat(self):
        for a in (0.5, -0.5, 0.3, 1.0, -1.3):
            r = at(IMAG, a, a)["curvature"]
            assert abs(r) <= 1e-6

    def test_against_surface_theory_curvature(self):
        """Brioschi formula on the metric field, fully independent route.

        The metric entries are second differences of the surface, and the
        Brioschi formula takes differences of those entries, all from one
        central stencil in ``decimal`` (entries at h = 1e-12, their
        derivatives at h = 1e-6), on the unit surface, as the models are
        at k = 1. The Gaussian curvature K they give owes nothing to the
        jets; the scalar curvature must equal 2K.
        """
        inner, outer = Decimal("1e-12"), Decimal("1e-6")

        def metric_entry(model, i, j):
            def entry(a1, a2):
                def surface(x, y):
                    return unit_surface(model.kind,
                                        decimal_tan(x) - decimal_tan(y))
                return central_difference(surface, a1, a2, i, j, inner)
            return entry

        def det3(m):
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

        for model, point in [(REAL, (0.4, -0.3)), (IMAG, (0.7, 0.2)),
                             (COMP, (-0.5, 0.35))]:
            E = metric_entry(model, 2, 0)
            F = metric_entry(model, 1, 1)
            G = metric_entry(model, 0, 2)
            x, y = map(Decimal, point)
            with localcontext(Context(prec=PRECISION)):
                Ev = central_difference(E, x, y, 0, 1, outer)
                Evv = central_difference(E, x, y, 0, 2, outer)
                Eu = central_difference(E, x, y, 1, 0, outer)
                Fu = central_difference(F, x, y, 1, 0, outer)
                Fv = central_difference(F, x, y, 0, 1, outer)
                Fuv = central_difference(F, x, y, 1, 1, outer)
                Gu = central_difference(G, x, y, 1, 0, outer)
                Gv = central_difference(G, x, y, 0, 1, outer)
                Guu = central_difference(G, x, y, 2, 0, outer)
                e, f, g = E(x, y), F(x, y), G(x, y)
                first = det3([[-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2],
                              [Fv - Gu / 2, e, f],
                              [Gv / 2, f, g]])
                second = det3([[0, Ev / 2, Gu / 2],
                               [Ev / 2, e, f],
                               [Gu / 2, f, g]])
                det = e * g - f * f
                gauss = float((first - second) / (det * det))
            closed = at(model, *point)["curvature"]
            assert closed == pytest.approx(2.0 * gauss, rel=1e-5, abs=1e-7)


class TestDiagonalIdentities:
    def test_real_flow_determinant_vanishes(self):
        k2 = REAL.k * REAL.k
        for a in [i / 20 * 1.4 for i in range(-20, 21)]:
            det = at(REAL, a, a)["det"]
            sec = 1.0 / math.cos(a)
            assert abs(det) <= 1e-9 * k2 * sec**8

    @pytest.mark.parametrize("model", [IMAG, COMP])
    def test_diagonal_determinant_formula(self, model):
        k2 = model.k * model.k
        for a in [i / 20 * 1.4 for i in range(-20, 21)]:
            det = at(model, a, a)["det"]
            sec = 1.0 / math.cos(a)
            expected = -4.0 * k2 * sec**4 * math.tan(a) ** 2
            assert abs(det - expected) <= 1e-9 * max(1.0, abs(expected))


def surface_slopes(kind, u):
    """f'(u) and f''(u) of the unit surface f = models.unit_surface."""
    den = 1.0 + u * u
    real = (-2.0 * u / den**2, (6.0 * u * u - 2.0) / den**3)
    imag = ((1.0 - u * u) / den**2, 2.0 * u * (u * u - 3.0) / den**3)
    if kind is FlowKind.REAL:
        return real
    if kind is FlowKind.IMAGINARY:
        return imag
    return real[0] + imag[0], real[1] + imag[1]


class TestFactoredDeterminant:
    """The surface is f(u) with u = tan a1 - tan a2, so by the chain rule
    det = 2 s1 s2 f'(u) D with D = f''(u)(t1 s2 - t2 s1) - 2 f'(u) t1 t2,
    where t_i = tan a_i and s_i = 1 + t_i^2."""

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_kernel_determinant_matches_factored_form(self, kind):
        model = PowerModel(kind)
        assert model.k == 1.0
        for a1, a2 in random_points(61, 3000, -1.5, 1.5):
            m = at(model, a1, a2)
            t1, t2 = math.tan(a1), math.tan(a2)
            s1, s2 = 1.0 + t1 * t1, 1.0 + t2 * t2
            f1, f2 = surface_slopes(kind, t1 - t2)
            d = f2 * (t1 * s2 - t2 * s1) - 2.0 * f1 * t1 * t2
            scale = max(m["g11"] ** 2, m["g12"] ** 2, m["g22"] ** 2)
            assert abs(m["det"] - 2.0 * s1 * s2 * f1 * d) <= 1e-13 * scale


class TestScaleCovariance:
    def test_power_of_two_scale_is_exact(self):
        # k=4 exactly; slot scaling by a power of two is lossless
        for kind in FlowKind:
            unit = PowerModel(kind)
            scaled = PowerModel(kind, v=2.0, r0=1.0)
            for (a1, a2) in random_points(23, 30):
                mu = at(unit, a1, a2)
                ms = at(scaled, a1, a2)
                assert (ms["g11"], ms["g12"], ms["g22"]) == (
                    4.0 * mu["g11"], 4.0 * mu["g12"], 4.0 * mu["g22"])
                assert ms["det"] == 16.0 * mu["det"]

    def test_generic_scale_covariance(self):
        for kind in FlowKind:
            unit = PowerModel(kind)
            scaled = PowerModel(kind, v=1.9, r0=0.7)
            c = scaled.k
            for (a1, a2) in random_points(24, 40):
                mu = at(unit, a1, a2)
                ms = at(scaled, a1, a2)
                assert ms["g11"] == pytest.approx(c * mu["g11"], rel=1e-12,
                                                  abs=1e-12)
                det_u = mu["det"]
                if abs(det_u) < 0.1:
                    continue
                assert ms["det"] == pytest.approx(c * c * det_u, rel=1e-12)
                assert ms["curvature"] == pytest.approx(mu["curvature"] / c,
                                                        rel=1e-9)


class TestReportsAndClassification:
    def test_quadratic_is_stable(self):
        cols = one_point(paraboloid(0.1, 0.2))
        assert CLASS_ORDER[cols["codes"]] is StabilityClass.STABLE
        assert cols["curvature"] == 0.0

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

    def test_report_rejects_a_pole_angle(self):
        with pytest.raises(DomainError):
            geometry_report(REAL, (0.2, math.pi / 2))

    @pytest.mark.parametrize("v,r0", [(1e-50, 1.0), (1e-3, 1e3), (1.0, 1.0),
                                      (1e3, 1e-3), (1e100, 1e100)])
    def test_real_diagonal_is_degenerate_at_every_scale(self, v, r0):
        """Degeneracy is the unit determinant being exactly zero, as it is
        on the real flow's equal-angle line, whatever k is."""
        for a in (-1.2, -0.3, 0.0, 0.7):
            rep = geometry_report(PowerModel(FlowKind.REAL, v=v, r0=r0),
                                  (a, a))
            assert rep.classification is StabilityClass.DEGENERATE
            assert math.isnan(rep.curvature)

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


_third = st.floats(-1e3, 1e3)


_scales = st.builds(lambda m, e: m * 10.0 ** e,
                   st.floats(1.0, 10.0), st.integers(-150, 150))


def _bits(x):
    """``x``'s bits, one text for every nan."""
    return "nan" if math.isnan(x) else x.hex()


class TestUnitScaleClassifier:
    """``geometry_columns(jet, k)`` classifies the unit jet and reports the
    scaled one."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_free_triples, _near_singular),
           st.tuples(_third, _third, _third, _third), _scales)
    # det^2 of the scaled jet is subnormal at k = 1e-78 ... 1e-81, and
    # underflows to zero at 1e-82
    @example((2.0, 0.5, 1.5), (1.0, -2.0, 0.5, 3.0), 1e-78)
    @example((2.0, 0.5, 1.5), (1.0, -2.0, 0.5, 3.0), 1e-79)
    @example((2.0, 0.5, 1.5), (1.0, -2.0, 0.5, 3.0), 1e-80)
    @example((2.0, 0.5, 1.5), (1.0, -2.0, 0.5, 3.0), 1e-81)
    @example((2.0, 0.5, 1.5), (1.0, -2.0, 0.5, 3.0), 1e-82)
    def test_codes_are_the_unit_codes_and_values_are_scaled(self, metric,
                                                            third, k):
        unit = Jet3(0.25, -0.5, 0.75, *metric, *third)
        got = one_point(unit, k)
        at_one = one_point(unit)
        assert got["codes"] == at_one["codes"]
        degenerate = determinant(*metric) == 0.0
        assert (CLASS_ORDER[got["codes"]] is StabilityClass.DEGENERATE
                ) == degenerate
        scaled = Jet3(*(k * x for x in unit))
        det = determinant(scaled.f11, scaled.f12, scaled.f22)
        assert [_bits(got[key]) for key in ("value", "g11", "g12", "g22",
                                            "det")] == [
            _bits(x) for x in (scaled.f, scaled.f11, scaled.f12, scaled.f22,
                               det)]
        num = curvature_numerator(scaled)
        square = det * det
        if degenerate:
            want = math.nan
        elif (math.isfinite(num) and math.isfinite(square)
              and square >= sys.float_info.min):
            want = -0.5 * num / square  # the closed form of the scaled jet
        else:
            want = at_one["curvature"] / k
        assert _bits(got["curvature"]) == _bits(want)

    @pytest.mark.parametrize("k", [1e-78, 1e-79, 1e-80, 1e-81, 1e-82])
    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_curvature_keeps_its_bits_where_det_squared_is_subnormal(
            self, kind, k):
        """Where the scaled det^2 is subnormal, curvature times k is the
        unit curvature to rounding, not to the few bits left in det^2."""
        a1 = np.array([1.1, -0.3, 0.7])
        a2 = np.array([0.4, 0.9, -1.2])
        unit = geometry_columns(
            Jet3(*backend.batch_slots(kind, a1, a2).T), 1.0)["curvature"]
        got = geometry_columns(
            Jet3(*backend.batch_slots(kind, a1, a2).T), k)["curvature"]
        assert np.all(np.abs(got * k - unit) <= 1e-14 * np.abs(unit))

    def test_columns_are_scaled_in_place(self):
        slots = backend.batch_slots(FlowKind.COMPLEX, np.array([0.3, -0.4]),
                                    np.array([0.1, 0.2]))
        unit = slots.copy()
        cols = geometry_columns(Jet3(*slots.T), 2.5)
        assert (slots == 2.5 * unit).all()
        assert np.shares_memory(cols["g12"], slots)

    def test_is_degenerate_is_an_exact_zero(self):
        assert is_degenerate(0.0) and is_degenerate(-0.0)
        assert not is_degenerate(5e-324)
        assert is_degenerate(np.array([0.0, 1e-300, -0.0])).tolist() == [
            True, False, True]
