"""Slot kernel: per-point and column-wise jets must equal, bit for bit,
the jet composition of ``powergeom.jets`` that the kernel writes out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import backend, jets
from powergeom.errors import DivisionByNearZero
from powergeom.jets import Jet3
from powergeom.stability import DEFAULT_BOUNDS, axis_samples

CODES = (backend.KIND_REAL, backend.KIND_IMAGINARY, backend.KIND_COMPLEX)
BLOCK = backend.BLOCK

_ONE = jets.jet_const(1.0)
_EDGE_LIMIT = math.pi / 2 - 1e-6

#: Signed zeros, the smallest subnormal, tiny normals and the angles next
#: to the tan pole; every ordered pair of them is tested, a1 == a2 too.
EDGE = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
        _EDGE_LIMIT, -_EDGE_LIMIT, 0.5, -1.25)


def reference_slots(code, a1, a2):
    """Unit-scale jet by the generic composition: seeds through ``tan``,
    u = tan a1 - tan a2, the reciprocal of 1 + u*u, then u or 1 + u times
    it."""
    u = jets.jet_linear(jets.jet_tan(jets.jet_seed(1, a1)),
                        jets.jet_tan(jets.jet_seed(2, a2)), 1.0, -1.0)
    inv = jets.jet_reciprocal(
        jets.jet_linear(_ONE, jets.jet_mul(u, u), 1.0, 1.0))
    if code == backend.KIND_REAL:
        return inv
    if code == backend.KIND_IMAGINARY:
        return jets.jet_mul(u, inv)
    return jets.jet_mul(jets.jet_linear(_ONE, u, 1.0, 1.0), inv)


def assert_matches_reference(code, a1, a2):
    """Both kernel paths give the reference's bits at every point."""
    want = np.array([reference_slots(code, x, y) for x, y in zip(a1, a2)],
                    dtype=np.float64).reshape(-1, 10)
    a1, a2 = np.array(a1, dtype=np.float64), np.array(a2, dtype=np.float64)
    assert_same_bits(unit_rows(code, a1, a2), want)
    assert_same_bits(backend.batch_slots(code, a1, a2), want)


def unit_rows(code, a1, a2):
    rows = [backend.unit_slots(code, x, y)
            for x, y in zip(a1.tolist(), a2.tolist())]
    return np.array(rows, dtype=np.float64).reshape(-1, 10)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


def random_points(seed, n, lo=-1.57, hi=1.57):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


_angles = st.floats(min_value=-_EDGE_LIMIT, max_value=_EDGE_LIMIT,
                    allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("code", CODES)
class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.tuples(_angles, _angles),
                              _angles.map(lambda a: (a, a))),
                    min_size=1, max_size=8))
    def test_drawn_points(self, code, points):
        assert_matches_reference(code, *zip(*points))

    def test_edge_points(self, code):
        assert_matches_reference(code, [x for x in EDGE for _ in EDGE],
                                 [y for _ in EDGE for y in EDGE])

    def test_random_and_equal_angle_points(self, code):
        a1, a2 = random_points(51 + code, 3000)
        a1[:1000] = a2[:1000]
        assert_matches_reference(code, a1.tolist(), a2.tolist())


@pytest.mark.parametrize("code", CODES)
class TestBatchAgainstUnit:
    def test_random_points(self, code):
        a1, a2 = random_points(31 + code, 5000)
        assert_same_bits(backend.batch_slots(code, a1, a2),
                         unit_rows(code, a1, a2))

    def test_default_grid_256(self, code):
        axis = np.array(axis_samples(DEFAULT_BOUNDS, 256))
        a1, a2 = np.tile(axis, 256), np.repeat(axis, 256)
        assert_same_bits(backend.batch_slots(code, a1, a2),
                         unit_rows(code, a1, a2))

    def test_diagonal_4001(self, code):
        a = np.array(axis_samples(DEFAULT_BOUNDS, 4001))
        assert_same_bits(backend.batch_slots(code, a, a),
                         unit_rows(code, a, a))


class TestBlocks:
    def test_slices_at_any_offset_give_the_same_bits(self):
        n = 3 * BLOCK + 123
        a1, a2 = random_points(41, n)
        whole = backend.batch_slots(backend.KIND_COMPLEX, a1, a2)
        for start, stop in ((0, 1), (1, BLOCK + 1), (BLOCK - 7, 2 * BLOCK + 5),
                            (777, n - 333), (2 * BLOCK + 1, n), (n - 1, n)):
            part = backend.batch_slots(backend.KIND_COMPLEX,
                                       a1[start:stop], a2[start:stop])
            assert_same_bits(part, whole[start:stop])

    def test_empty_input(self):
        out = backend.batch_slots(backend.KIND_REAL, np.zeros(0), np.zeros(0))
        assert out.shape == (0, 10)


class TestInputChecks:
    def test_batch_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            backend.batch_slots(0, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            backend.batch_slots(0, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_unknown_flow_code(self):
        with pytest.raises(ValueError):
            backend.unit_slots(3, 0.1, 0.2)
        with pytest.raises(ValueError):
            backend.batch_slots(3, np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [5, BLOCK + 17, 3 * BLOCK + 4],
                             ids=["first-block", "middle-block", "last-block"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_angle_in_any_block(self, bad, index, axis):
        coords = list(random_points(43, 3 * BLOCK + 5))
        coords[axis][index] = bad
        with pytest.raises(ValueError):
            backend.batch_slots(backend.KIND_REAL, *coords)
        point = [0.25, -0.5]
        point[axis] = bad
        with pytest.raises(ValueError):
            backend.unit_slots(backend.KIND_REAL, *point)

    def test_denominator_guard_matches_scalar(self):
        guard = jets.DIV_GUARD
        for near in (0.0, -0.0, 0.5 * guard, -guard, guard):
            with pytest.raises(DivisionByNearZero) as generic:
                jets.jet_reciprocal(Jet3(near, *([0.5] * 9)))
            with pytest.raises(DivisionByNearZero) as kernel:
                backend._check_denominator(near)
            assert str(kernel.value) == str(generic.value)
            with pytest.raises(DivisionByNearZero):
                backend._check_denominator(np.array([1.5, near, -2.0]))
        values = [2.0 * guard, -3.0 * guard, 0.75, -4.0, math.nan]
        for v in values:
            jets.jet_reciprocal(Jet3(v, *([0.5] * 9)))
            backend._check_denominator(v)
        backend._check_denominator(np.array(values))
