"""The finite-difference oracle: accuracy, context hygiene, regressions."""

import decimal
import math
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import backend, fdcheck
from powergeom.backend import Jet3
from powergeom.fdcheck import (
    central_difference,
    decimal_tan,
    max_jet_deviations,
)
from powergeom.models import FlowKind, unit_surface
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
        worst, info = max_jet_deviations(_points(12345, 5))[FlowKind.COMPLEX]
        assert decimal.getcontext().prec == 7
    assert worst <= 1e-10, info


def test_seed_54_f222_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    a1, a2 = SEED_54_POINT
    assert SEED_54_POINT in _points(54, 100)
    oracle = Jet3(*dict(zip(FlowKind, fdcheck._oracles(a1, a2)))[
        FlowKind.COMPLEX]).f222
    with mpmath.workdps(40):
        x, y = mpmath.mpf(a1), mpmath.mpf(a2)

        def complex_flow(b):
            u = mpmath.tan(x) - mpmath.tan(b)
            return (1 + u) / (1 + u * u)

        want = float(mpmath.diff(complex_flow, y, 3))
    assert abs(oracle - want) <= 1e-12 * abs(want)


def assembled_oracle(kind, a1, a2):
    """The ten unit-scale slots from :func:`central_difference`, one call
    per slot on a surface function of the integer offsets, with the tans of
    the shifted angles from the addition formula: the oracle as first
    written."""
    with decimal.localcontext(Context(prec=fdcheck.PRECISION)):
        def tans(a):
            t = decimal_tan(Decimal(a))
            return {o: (t + tau) / (1 - t * tau)
                    for o, tau in ((o, decimal_tan(o * fdcheck.STEP))
                                   for o in range(-2, 3))}

        t1, t2 = tans(a1), tans(a2)

        def surface(o1, o2):
            return unit_surface(kind, t1[o1] - t2[o2])

        orders = [(name.count("1"), name.count("2")) for name in Jet3._fields]
        return Jet3(*(float(central_difference(surface, 0, 0, i, j, 1)
                            / fdcheck.STEP ** (i + j)) for i, j in orders))


@pytest.mark.parametrize("seed", [0, 54])
def test_one_lattice_for_all_flows_has_the_central_difference_bits(seed):
    kinds = tuple(FlowKind)
    for a1, a2 in _points(seed, 100):
        got = fdcheck._oracles(a1, a2)
        want = [assembled_oracle(kind, a1, a2) for kind in kinds]
        assert ([[x.hex() for x in slots] for slots in got]
                == [[x.hex() for x in slots] for slots in want]), (a1, a2)


def test_deviations_name_their_points_and_no_points_deviate_by_zero():
    points = _points(7, 20)
    assert all(worst > 0.0 and info["point"] in points
               for worst, info in max_jet_deviations(points).values())
    assert max_jet_deviations([]) == {kind: (0.0, {}) for kind in FlowKind}


def test_nan_jet_slot_fails_the_check(monkeypatch):
    """A NaN deviation is the worst one, not one that ``dev > worst``
    skips."""
    batch_slots = backend.batch_slots

    def one_nan(kind, a1, a2):
        jet = batch_slots(kind, a1, a2)
        f122 = jet.f122.copy()
        f122[3] = np.nan
        return jet._replace(f122=f122)

    monkeypatch.setattr(backend, "batch_slots", one_nan)
    worst, info = max_jet_deviations(_points(0, 10))[FlowKind.REAL]
    assert math.isnan(worst)
    assert info["slot"] == "f122" and info["point"] == _points(0, 10)[3]
    result = _check_jets_vs_differences(100, 0)
    assert not result.passed, result.detail


@pytest.mark.parametrize("a", ["NaN", "Infinity", "-2", "3"])
def test_decimal_tan_rejects_angles_off_the_domain(a):
    with pytest.raises(ValueError, match="decimal_tan"):
        decimal_tan(Decimal(a))
