"""Reference jet algebra: seeding, algebra, composition; and the flow
jets against the derivative oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_reference import (
    jet_apply_univariate,
    jet_const,
    jet_linear,
    jet_mul,
    jet_reciprocal,
    jet_seed,
    jet_tan,
)
from powergeom.backend import Jet3
from powergeom.fdcheck import max_jet_deviations
from powergeom.models import FlowKind

ZERO = Jet3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_jet(rng: random.Random, lo: float = -3.0, hi: float = 3.0) -> Jet3:
    return Jet3(*(rng.uniform(lo, hi) for _ in range(10)))


def assert_close(a: Jet3, b: Jet3, tol: float = 1e-12) -> None:
    for slot_a, slot_b in zip(a, b):
        assert abs(slot_a - slot_b) <= tol * max(1.0, abs(slot_a), abs(slot_b))


class TestSeeding:
    def test_seed_first_variable(self):
        j = jet_seed(1, 0.7)
        assert j == Jet3(0.7, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_seed_second_variable(self):
        j = jet_seed(2, -0.3)
        assert j == Jet3(-0.3, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_seed_index_out_of_range(self):
        with pytest.raises(ValueError):
            jet_seed(3, 0.0)

    def test_seed_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jet_seed(1, math.inf)
        with pytest.raises(ValueError):
            jet_seed(2, math.nan)

    def test_const_has_zero_derivatives(self):
        assert jet_const(4.5) == Jet3(4.5, *([0.0] * 9))


class TestLinear:
    def test_cancellation(self):
        x = jet_seed(1, 1.3)
        assert jet_linear(x, x, 1.0, -1.0) == ZERO

    def test_constants(self):
        assert jet_linear(jet_const(2.0), jet_const(3.0), 2.0, 1.0) == jet_const(7.0)

    def test_variable_plus_constant(self):
        j = jet_linear(jet_seed(1, 5.0), jet_const(1.0), 1.0, 1.0)
        assert j == Jet3(6.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            jet_linear(ZERO, ZERO, math.nan, 1.0)


class TestMul:
    def test_bilinear_product(self):
        x = jet_seed(1, 2.0)
        y = jet_seed(2, 3.0)
        assert jet_mul(x, y) == Jet3(6.0, 3.0, 2.0, 0.0, 1.0, 0.0,
                                     0.0, 0.0, 0.0, 0.0)

    def test_square(self):
        x = jet_seed(1, 3.0)
        assert jet_mul(x, x) == Jet3(9.0, 6.0, 0.0, 2.0, 0.0, 0.0,
                                     0.0, 0.0, 0.0, 0.0)

    def test_constant_scales_every_slot(self):
        rng = random.Random(1)
        j = random_jet(rng)
        scaled = jet_mul(jet_const(2.5), j)
        assert scaled == Jet3(*(2.5 * s for s in j))


class TestDiv:
    def test_geometric_series(self):
        # 1/(1+x) at x=0 expands 1 - x + x^2 - x^3
        one_plus_x = jet_linear(jet_const(1.0), jet_seed(1, 0.0), 1.0, 1.0)
        j = jet_mul(jet_const(1.0), jet_reciprocal(one_plus_x))
        assert j == Jet3(1.0, -1.0, 0.0, 2.0, 0.0, 0.0, -6.0, 0.0, 0.0, 0.0)

    def test_self_division_is_one(self):
        rng = random.Random(2)
        a = random_jet(rng)._replace(f=1.7)
        assert_close(jet_mul(a, jet_reciprocal(a)), jet_const(1.0))

    def test_near_zero_denominator_guard(self):
        with pytest.raises(ZeroDivisionError):
            jet_reciprocal(jet_const(0.0)._replace(f=0.0))
        with pytest.raises(ZeroDivisionError):
            jet_mul(jet_const(1.0),
                    jet_reciprocal(Jet3(5e-15, *([0.0] * 9))))


class TestUnivariate:
    def test_tan_at_zero(self):
        j = jet_tan(jet_seed(1, 0.0))
        assert j == Jet3(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0)

    def test_identity_returns_input(self):
        rng = random.Random(3)
        u = random_jet(rng)
        out = jet_apply_univariate((u.f, 1.0, 0.0, 0.0), u)
        assert out == u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(finite, min_size=20, max_size=20), finite, finite)
def test_mul_commutes_and_distributes(slots, alpha, beta):
    a = Jet3(*slots[:10])
    b = Jet3(*slots[10:])
    assert_close(jet_mul(a, b), jet_mul(b, a))
    lhs = jet_mul(a, jet_linear(b, b, alpha, beta))
    rhs = jet_linear(jet_mul(a, b), jet_mul(a, b), alpha, beta)
    assert_close(lhs, rhs, tol=1e-11)


def test_div_inverse_property_on_flow_like_jets():
    # denominators of the flow surfaces have value >= 1 and modest slots;
    # there the inverse property holds to 1e-12
    rng = random.Random(6)
    for _ in range(200):
        a = random_jet(rng)
        b = random_jet(rng)._replace(f=rng.uniform(1.0, 3.0))
        assert_close(jet_mul(jet_mul(a, jet_reciprocal(b)), b), a, tol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(finite, min_size=20, max_size=20))
def test_div_inverse_property_adversarial(slots):
    # small denominator values with large slots amplify rounding; the
    # round-trip stays proportionally accurate
    a = Jet3(*slots[:10])
    b = Jet3(*slots[10:])
    if abs(b.f) < 0.5:
        b = b._replace(f=1.0 + b.f)
    quotient = jet_mul(a, jet_reciprocal(b))
    scale = max(1.0, max(abs(s) for s in quotient)) * max(
        1.0, max(abs(s) for s in b))
    for got, want in zip(jet_mul(quotient, b), a):
        assert abs(got - want) <= 1e-12 * max(scale, abs(want))


@pytest.mark.parametrize("kind", list(FlowKind))
def test_jets_match_central_differences(kind):
    """Every slot of every model agrees with the finite-difference oracle."""
    rng = random.Random(8101)
    points = [(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
              for _ in range(100)]
    worst, info = max_jet_deviations(points)[kind]
    assert worst <= 1e-6, f"worst deviation {worst} at {info}"
