"""The finite-difference oracle: accuracy, context hygiene, regressions."""

import decimal
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import fdcheck
from powergeom.fdcheck import decimal_tan, max_jet_deviation
from powergeom.models import FlowKind, PowerModel
from powergeom.selfcheck import _check_jets_vs_differences, _points

#: Seeds at which a Richardson-extrapolated float oracle missed the 1e-6
#: tolerance; the jets were right at every one of them.
HARD_SEEDS = (54, 56, 83, 106, 124, 153, 171, 208, 252)

#: The complex-flow point of seed 54 where that oracle's f222 was off by
#: 5e-6 (selfcheck._points(54, 100) contains it).
SEED_54_POINT = (-1.1344852942493266, -1.0416278593257453)


def worst_of(result):
    assert result.passed, result.detail
    return float(result.detail.split()[3])


@pytest.mark.parametrize("seed", HARD_SEEDS)
def test_hard_seeds_agree_to_far_below_tolerance(seed):
    assert worst_of(_check_jets_vs_differences(100, seed)) <= 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_any_seed_agrees_to_far_below_tolerance(seed):
    assert worst_of(_check_jets_vs_differences(100, seed)) <= 1e-10


def test_caller_decimal_context_is_left_alone():
    with decimal.localcontext() as ctx:
        ctx.prec = 7
        worst, info = max_jet_deviation(PowerModel(FlowKind.COMPLEX),
                                        _points(12345, 5))
        assert decimal.getcontext().prec == 7
    assert worst <= 1e-10, info


def test_seed_54_f222_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    a1, a2 = SEED_54_POINT
    assert SEED_54_POINT in _points(54, 100)
    oracle = fdcheck._oracle(PowerModel(FlowKind.COMPLEX), a1, a2).f222
    with mpmath.workdps(40):
        x, y = mpmath.mpf(a1), mpmath.mpf(a2)

        def complex_flow(b):
            u = mpmath.tan(x) - mpmath.tan(b)
            return (1 + u) / (1 + u * u)

        want = float(mpmath.diff(complex_flow, y, 3))
    assert abs(oracle - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("a", ["NaN", "Infinity", "-2", "3"])
def test_decimal_tan_rejects_angles_off_the_domain(a):
    with pytest.raises(ValueError, match="decimal_tan"):
        decimal_tan(Decimal(a))
