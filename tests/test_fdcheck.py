"""The finite-difference oracle: accuracy, context hygiene, regressions."""

import decimal
from decimal import Context, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import fdcheck
from powergeom.backend import Jet3
from powergeom.fdcheck import central_difference, decimal_tan, max_jet_deviation
from powergeom.models import FlowKind, PowerModel, unit_surface
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


def assembled_oracle(model, a1, a2):
    """The ten slots from :func:`central_difference`, one call per slot on
    a surface function of the integer offsets, with the tans of the shifted
    angles from the addition formula: the oracle as first written."""
    with decimal.localcontext(Context(prec=fdcheck.PRECISION)):
        def tans(a):
            t = decimal_tan(Decimal(a))
            return {o: (t + tau) / (1 - t * tau)
                    for o, tau in ((o, decimal_tan(o * fdcheck.STEP))
                                   for o in range(-2, 3))}

        t1, t2 = tans(a1), tans(a2)

        def surface(o1, o2):
            return unit_surface(model.kind, t1[o1] - t2[o2])

        k = Decimal(model.k)
        orders = [(name.count("1"), name.count("2")) for name in Jet3._fields]
        return Jet3(*(float(k * central_difference(surface, 0, 0, i, j, 1)
                            / fdcheck.STEP ** (i + j)) for i, j in orders))


@pytest.mark.parametrize("seed", [0, 54])
@pytest.mark.parametrize("kind", list(FlowKind))
def test_lattice_oracle_has_the_central_difference_bits(kind, seed):
    model = PowerModel(kind, v=1.3, r0=0.7)
    for a1, a2 in _points(seed, 100):
        got = fdcheck._oracle(model, a1, a2)
        want = assembled_oracle(model, a1, a2)
        assert [x.hex() for x in got] == [x.hex() for x in want], (a1, a2)


@pytest.mark.parametrize("a", ["NaN", "Infinity", "-2", "3"])
def test_decimal_tan_rejects_angles_off_the_domain(a):
    with pytest.raises(ValueError, match="decimal_tan"):
        decimal_tan(Decimal(a))
