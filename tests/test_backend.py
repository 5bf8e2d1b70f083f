"""Slot kernel: per-point and column-wise jets must equal, bit for bit,
the jet composition of ``jet_reference`` that the kernel writes out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_reference import reference_slots
from powergeom import backend
from powergeom.backend import FlowKind
from powergeom.stability import DEFAULT_BOUNDS, axis_samples

#: The flows in order; a flow's position is its test id and offsets its
#: random seeds.
CODES = tuple(FlowKind)
BLOCK = backend.BLOCK
each_flow = pytest.mark.parametrize("kind", CODES,
                                    ids=lambda kind: str(CODES.index(kind)))

_EDGE_LIMIT = math.pi / 2 - 1e-6

#: Signed zeros, the smallest subnormal, tiny normals, the angles next to
#: the tan pole and the doubles at and next to pi/2, where tan is largest;
#: every ordered pair of them is tested, a1 == a2 too.
EDGE = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
        _EDGE_LIMIT, -_EDGE_LIMIT, 0.5, -1.25, math.pi / 2, -math.pi / 2,
        math.nextafter(math.pi / 2, 0), -math.nextafter(math.pi / 2, 0))


def assert_matches_reference(kind, a1, a2):
    """Both kernel paths give the reference's bits at every point; returns
    the slots."""
    want = np.array([reference_slots(kind, x, y) for x, y in zip(a1, a2)],
                    dtype=np.float64).reshape(-1, 10)
    a1, a2 = np.array(a1, dtype=np.float64), np.array(a2, dtype=np.float64)
    assert_same_bits(unit_rows(kind, a1, a2), want)
    assert_same_bits(backend.batch_slots(kind, a1, a2), want)
    return want


def unit_rows(kind, a1, a2):
    rows = [backend.unit_slots(kind, x, y)
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
_tiny = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
                  st.floats(min_value=-1e-150, max_value=1e-150))


@each_flow
class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.tuples(_angles, _angles),
                              _angles.map(lambda a: (a, a))),
                    min_size=1, max_size=8))
    def test_drawn_points(self, kind, points):
        assert_matches_reference(kind, *zip(*points))

    # |a| <= 1e-150, subnormals and signed zeros: the m*v products
    # underflow to signed zeros, where a term the kernel leaves out could
    # change the sign of a slot.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.tuples(_tiny, _tiny), _tiny.map(lambda a: (a, a)),
        st.tuples(_tiny, st.sampled_from((-math.inf, math.inf))).map(
            lambda p: (p[0], math.nextafter(*p)))),
        min_size=1, max_size=8))
    def test_tiny_angles(self, kind, points):
        assert_matches_reference(kind, *zip(*points))

    def test_edge_points(self, kind):
        slots = assert_matches_reference(
            kind, [x for x in EDGE for _ in EDGE],
            [y for _ in EDGE for y in EDGE])
        # 1 + u*u >= 1 at every finite angle, so no slot blows up, even
        # where tan is largest.
        assert np.isfinite(slots).all()

    def test_random_and_equal_angle_points(self, kind):
        a1, a2 = random_points(51 + CODES.index(kind), 3000)
        a1[:1000] = a2[:1000]
        assert_matches_reference(kind, a1.tolist(), a2.tolist())


@each_flow
class TestBatchAgainstUnit:
    def test_random_points(self, kind):
        a1, a2 = random_points(31 + CODES.index(kind), 5000)
        assert_same_bits(backend.batch_slots(kind, a1, a2),
                         unit_rows(kind, a1, a2))

    def test_default_grid_256(self, kind):
        axis = np.array(axis_samples(DEFAULT_BOUNDS, 256))
        a1, a2 = np.tile(axis, 256), np.repeat(axis, 256)
        assert_same_bits(backend.batch_slots(kind, a1, a2),
                         unit_rows(kind, a1, a2))

    def test_diagonal_4001(self, kind):
        a = np.array(axis_samples(DEFAULT_BOUNDS, 4001))
        assert_same_bits(backend.batch_slots(kind, a, a),
                         unit_rows(kind, a, a))


class TestBlocks:
    def test_slices_at_any_offset_give_the_same_bits(self):
        n = 3 * BLOCK + 123
        a1, a2 = random_points(41, n)
        whole = backend.batch_slots(FlowKind.COMPLEX, a1, a2)
        for start, stop in ((0, 1), (1, BLOCK + 1), (BLOCK - 7, 2 * BLOCK + 5),
                            (777, n - 333), (2 * BLOCK + 1, n), (n - 1, n)):
            part = backend.batch_slots(FlowKind.COMPLEX,
                                       a1[start:stop], a2[start:stop])
            assert_same_bits(part, whole[start:stop])

    def test_empty_input(self):
        out = backend.batch_slots(FlowKind.REAL, np.zeros(0), np.zeros(0))
        assert out.shape == (0, 10)


class TestInputChecks:
    def test_batch_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            backend.batch_slots(FlowKind.REAL, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            backend.batch_slots(FlowKind.REAL, np.zeros((2, 2)),
                                np.zeros((2, 2)))

    def test_unknown_flow_code(self):
        # the old int codes and the kinds' names are not kinds
        for bad in (3, 0, 2, "real", None):
            with pytest.raises(ValueError, match="unknown flow kind"):
                backend.unit_slots(bad, 0.1, 0.2)
            with pytest.raises(ValueError, match="unknown flow kind"):
                backend.batch_slots(bad, np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [5, BLOCK + 17, 3 * BLOCK + 4],
                             ids=["first-block", "middle-block", "last-block"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_angle_in_any_block(self, bad, index, axis):
        coords = list(random_points(43, 3 * BLOCK + 5))
        coords[axis][index] = bad
        with pytest.raises(ValueError):
            backend.batch_slots(FlowKind.REAL, *coords)
        point = [0.25, -0.5]
        point[axis] = bad
        with pytest.raises(ValueError):
            backend.unit_slots(FlowKind.REAL, *point)
