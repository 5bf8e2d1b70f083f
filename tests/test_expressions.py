"""Tabulated expansions: anchors, structure, bounds, reconstruction."""

import hashlib
import math
import random
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergeom import _tables
from powergeom.errors import DenominatorZero
from powergeom.expressions import (
    QUANTITIES,
    PaperQuantity,
    Powers,
    Prefactor,
    TrigPolynomial,
    quantities_for,
    quantity,
    reconstruct_quantity,
)
from powergeom.models import FlowKind, PowerModel, eval_power_jet

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestAnchors:
    def test_real_numerators_at_origin(self):
        for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"):
            assert quantity(qid).numerators[0](0.0, 0.0) == 1.0

    def test_real_denominators_at_origin(self):
        for qid in ("METRIC_R_11", "METRIC_R_12", "METRIC_R_22"):
            assert quantity(qid).denominators[0](0.0, 0.0) == -1.0

    def test_imaginary_numerators_vanish_at_origin(self):
        for qid in ("METRIC_I_11", "METRIC_I_12", "METRIC_I_22"):
            assert quantity(qid).numerators[0](0.0, 0.0) == 0.0

    def test_imaginary_denominator_at_origin(self):
        assert quantity("METRIC_I_11").denominators[0](0.0, 0.0) == -1.0

    def test_reconstructed_real_metric_matches_jet_at_origin(self):
        jet = eval_power_jet(PowerModel(FlowKind.REAL), 0.0, 0.0)
        for qid, slot in (("METRIC_R_11", jet.f11), ("METRIC_R_12", jet.f12),
                          ("METRIC_R_22", jet.f22)):
            recon = reconstruct_quantity(quantity(qid), 0.0, 0.0)
            assert abs(recon - slot) <= 1e-12

    def test_real_origin_values_explicitly(self):
        assert reconstruct_quantity(quantity("METRIC_R_11"), 0.0, 0.0) == -2.0
        assert reconstruct_quantity(quantity("METRIC_R_12"), 0.0, 0.0) == 2.0
        assert reconstruct_quantity(quantity("METRIC_R_22"), 0.0, 0.0) == -2.0

    def test_imaginary_metric_origin_is_zero(self):
        assert reconstruct_quantity(quantity("METRIC_I_11"), 0.0, 0.0) == 0.0


class TestStructure:
    def test_registry_covers_three_flows_times_five(self):
        assert len(QUANTITIES) == 15
        for kind in FlowKind:
            qs = quantities_for(kind)
            assert [q.target for q in qs] == ["g11", "g12", "g22", "det",
                                              "curvature"]

    def test_denominator_families_term_for_term(self):
        for fam in ("R", "I", "C"):
            d11 = quantity(f"METRIC_{fam}_11").denominators[0].terms
            d12 = quantity(f"METRIC_{fam}_12").denominators[0].terms
            d22 = quantity(f"METRIC_{fam}_22").denominators[0].terms
            assert d11 == d12 == d22

    def test_integer_coefficients_and_exponents(self):
        for q in QUANTITIES:
            for poly in q.numerators + q.denominators:
                for coeff, ec1, es1, ec2, es2 in poly.terms:
                    assert isinstance(coeff, int)
                    assert all(isinstance(e, int) and e >= 0
                               for e in (ec1, es1, ec2, es2))

    def test_exponent_repairs_are_annotated(self):
        repaired = {poly.name: poly.repairs
                    for q in QUANTITIES
                    for poly in q.numerators + q.denominators
                    if poly.repairs}
        assert set(repaired) == {"DET_R.den", "CURV_R.num", "CURV_I.num1",
                                 "CURV_I.den", "CURV_C.num3"}
        # every repaired exponent is multi-digit
        for fixes in repaired.values():
            for _, original, exponent in fixes:
                assert exponent >= 10
                assert str(exponent) in original

    def test_known_discrepant_quantities_carry_notes(self):
        assert quantity("METRIC_I_12").notes
        assert quantity("DET_I").notes

    def test_unknown_quantity_id(self):
        with pytest.raises(KeyError):
            quantity("METRIC_X_11")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(angles, angles)
def test_coefficient_mass_bounds_every_table(a1, a2):
    for q in QUANTITIES[:5] + QUANTITIES[9:10]:
        for poly in q.numerators + q.denominators:
            assert abs(poly(a1, a2)) <= poly.coefficient_mass


def test_pole_structure_kills_cosine_terms():
    # at a1 = pi/2 only terms free of c1 survive
    poly = quantity("METRIC_R_11").numerators[0]
    survivors = [t for t in poly.terms if t[1] == 0]
    expected = sum(c * math.cos(math.pi / 2) ** 0 * math.sin(math.pi / 2) ** es1
                   * math.cos(0.3) ** ec2 * math.sin(0.3) ** es2
                   for c, _, es1, ec2, es2 in survivors)
    got = poly(math.pi / 2, 0.3)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


#: The exponents a power table is asked for: the prefactor's c^-2 and
#: every exponent the tables use, and more.
EXPONENTS = (-2, *range(15))

#: sha256 of ``NAME = repr(value)`` lines, names sorted, over every
#: public table of ``_tables`` and ``EXPONENT_REPAIRS``. It was taken from
#: the tables as tuple literals, so rewriting how they are written cannot
#: change a term unnoticed.
TABLES_DIGEST = (
    "3e62a92c125ccaa3c6ee79f1231cc16a0510d5571898cf619b06107c8df1d9dc")


def test_transcribed_tables_keep_their_values():
    names = sorted(name for name, value in vars(_tables).items()
                   if not name.startswith("_")
                   and isinstance(value, (tuple, dict)))
    text = "".join(f"{name} = {getattr(_tables, name)!r}\n" for name in names)
    assert len(names) == 37
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_DIGEST


#: Cosines and sines, signed zeros, the smallest subnormals, +-1 and values
#: near 1e-150, whose powers underflow to subnormals and signed zeros.
_table_values = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)),
    st.tuples(st.floats(min_value=1e-151, max_value=1e-149),
              st.booleans()).map(lambda p: -p[0] if p[1] else p[0]))


class TestPowerTables:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_table_values, min_size=1, max_size=16))
    def test_column_entries_have_the_bits_of_float_powers(self, values):
        table = Powers(np.array(values, dtype=np.float64))
        for e in EXPONENTS:
            try:
                want = np.array([v**e for v in values], dtype=np.float64)
            except ArithmeticError as exc:  # 0.0**-2, or a subnormal's
                with pytest.raises(type(exc)):
                    table[e]
                continue
            got = np.broadcast_to(np.asarray(table[e], dtype=np.float64),
                                  want.shape)
            assert (got.view(np.uint64) == want.view(np.uint64)).all(), e

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_table_values, st.booleans()), min_size=1,
                    max_size=16),
           st.sets(st.integers(min_value=0, max_value=14)))
    def test_subset_entries_have_the_bits_of_the_whole_column(
            self, items, computed):
        """Entries computed before the subset is taken are sliced, the
        others computed at its elements alone: both as the whole column
        has them."""
        values = np.array([v for v, _ in items], dtype=np.float64)
        rows = np.flatnonzero([keep for _, keep in items])
        table = Powers(values)
        for e in computed:
            table[e]
        subset = table.subset(rows)
        whole = Powers(values)
        for e in range(15):
            want = np.broadcast_to(whole[e], values.shape)[rows]
            got = np.broadcast_to(subset[e], rows.shape)
            assert (got.view(np.uint64) == want.view(np.uint64)).all(), e

    def test_constant_polynomial_of_columns_is_a_column(self):
        poly = TrigPolynomial(name="const", terms=((3, 0, 0, 0, 0),
                                                  (-1, 0, 0, 0, 0)))
        cols = [np.array([0.5, -0.25]) for _ in range(4)]
        got = poly.eval_cs(*cols)
        assert isinstance(got, np.ndarray) and got.tolist() == [2.0, 2.0]
        assert poly.eval_cs(0.5, 0.5, 0.5, 0.5) == 2.0


class TestPowerErrors:
    """A column raises what ``**`` raises at its first element that
    ``**`` rejects, in column order, and nothing where ``**`` gives a
    float."""

    def test_overflow_before_a_zero_is_an_overflow(self):
        with pytest.raises(OverflowError):
            Powers(np.array([1e-250, 0.0]))[-2]

    def test_zero_before_an_overflow_is_a_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Powers(np.array([0.0, 1e-250]))[-2]

    def test_negative_zero_to_a_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            Powers(np.array([-0.0]))[-3]

    def test_infinity_to_a_negative_power_is_zero(self):
        power = Powers(np.array([np.inf]))[-2]
        assert power.tolist() == [float("inf") ** -2] == [0.0]

    def test_infinite_and_nan_elements_raise_nothing(self):
        values = [np.inf, -np.inf, np.nan, 2.0]
        power = Powers(np.array(values))[3]
        want = np.array([v**3 for v in values])
        assert (power.view(np.uint64) == want.view(np.uint64)).all()


#: Exponents the tripwire checks: every one the tables use (-2 and
#: 2...15) and all of -15...-1.
TRIPWIRE_EXPONENTS = (*range(-15, 0), *range(2, 16))


def _numpy_build() -> str:
    """numpy's version and the CPU features its dispatch has on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    on = " ".join(name for name, enabled in __cpu_features__.items()
                  if enabled)
    return f"numpy {np.__version__}, CPU features on: {on}"


def _near(values, ulps=3):
    """Each value and the doubles up to ``ulps`` steps either side."""
    out = list(values)
    for v in values:
        below = above = v
        for _ in range(ulps):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            out += [below, above]
    return out


def _tripwire_values():
    """Angles for cos and sin, and cosines and sines for the powers: a
    seeded set of 100,000 of each over [-1.6, 1.6], the model's domain
    with room to spare, plus signed zeros, the smallest subnormals, values
    next to +-1, +-1.4 and +-1.6, and values near +-1e-150, whose powers
    overflow or underflow to subnormals and signed zeros."""
    draw = random.Random("numpy-routines-match-math").random
    angles = [-1.6 + 3.2 * draw() for _ in range(100_000)]
    special = [0.0, -0.0, 5e-324, -5e-324,
               *_near([1.0, -1.0, 1.4, -1.4, 1.6, -1.6])]
    tiny = [1e-151 + 9e-150 * draw() for _ in range(200)]
    special += tiny + [-t for t in tiny] + _near([1e-150, -1e-150])
    bases = [f(a) for a in angles for f in (math.cos, math.sin)]
    return (np.array(angles + special), np.array(bases + special))


class TestNumpyRoutinesMatchMath:
    """The tripwire for the numpy routines the verifier uses in place of
    ``math``: ``np.float_power`` (:class:`Powers`), ``np.cos`` and
    ``np.sin`` (``verify``) must give the bits of ``**``, ``math.cos`` and
    ``math.sin`` at every input, or verify reports would depend on the
    numpy build. They do on builds whose float64 loops call libm; a build
    that routes them to SIMD code rounding differently fails here.

    The fix for a failure is to go back to ``math`` per element in
    :class:`Powers` or ``verify`` for the routine named, never to loosen
    this test. Each routine is checked on a contiguous column and on a
    strided view, as ``verify`` draws its angles."""

    @pytest.fixture(scope="class")
    def values(self):
        return _tripwire_values()

    @staticmethod
    def _layouts(x):
        """``x`` contiguous and as a view of stride two."""
        doubled = np.empty(2 * len(x))
        doubled[0::2] = x
        return x, doubled[0::2]

    @staticmethod
    def _assert_no_mismatch(routine, inputs, bad, got, want):
        bad = np.flatnonzero(bad)
        assert not bad.size, (
            f"{routine} differs from math at {bad.size} of {len(inputs)} "
            f"inputs; first at x = {float(inputs[bad[0]]).hex()}: got "
            f"{float(got[bad[0]]).hex()}, math gives "
            f"{float(want[bad[0]]).hex()} ({_numpy_build()}). Take this "
            "routine from math again; do not loosen this test.")

    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_cos_and_sin(self, name, values):
        angles, _ = values
        want = np.fromiter(map(getattr(math, name), angles.tolist()),
                           np.float64, len(angles))
        for column in self._layouts(angles):
            got = getattr(np, name)(column)
            self._assert_no_mismatch(
                f"np.{name}", angles,
                got.view(np.uint64) != want.view(np.uint64), got, want)

    @pytest.mark.parametrize("e", TRIPWIRE_EXPONENTS)
    def test_float_power(self, e, values):
        """Bit for bit where ``**`` gives a float; infinite where it
        raises, which :class:`Powers` turns back into ``**``'s error."""
        _, bases = values
        want = np.fromiter(map(_power_or_nan, bases.tolist(), repeat(e)),
                           np.float64, len(bases))
        raises = np.isnan(want)
        for column in self._layouts(bases):
            with np.errstate(all="ignore"):
                got = np.float_power(column, float(e))
            bad = np.where(raises, ~np.isinf(got),
                           got.view(np.uint64) != want.view(np.uint64))
            self._assert_no_mismatch(f"np.float_power(x, {e})", bases, bad,
                                     got, want)


def _power_or_nan(v: float, e: int) -> float:
    """``v**e``, or nan where ``**`` raises (no base here is nan)."""
    try:
        return v**e
    except ArithmeticError:
        return math.nan


class TestReconstruction:
    def test_matches_jet_metric_away_from_origin(self):
        rng = random.Random(5)
        model = PowerModel(FlowKind.REAL)
        for _ in range(25):
            a1, a2 = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
            jet = eval_power_jet(model, a1, a2)
            for qid, slot in (("METRIC_R_11", jet.f11),
                              ("METRIC_R_12", jet.f12),
                              ("METRIC_R_22", jet.f22)):
                recon = reconstruct_quantity(quantity(qid), a1, a2)
                assert recon == pytest.approx(slot, rel=1e-9, abs=1e-9)

    def test_scale_constants_enter_the_prefactor(self):
        """The reconstruction is the table over k^p: unmoved by V and R0
        but for CURV_R, whose transcribed prefactor leaves R0^-2."""
        for q in QUANTITIES:
            base = reconstruct_quantity(q, 0.4, -0.2)
            scaled = reconstruct_quantity(q, 0.4, -0.2, v=3.0, r0=2.0)
            want = base / 4.0 if q.id == "CURV_R" else base
            assert scaled == want, q.id

    @pytest.mark.parametrize("v,r0", [(1e100, 1e100), (1e-100, 1e-200)])
    def test_prefactor_overflow_names_the_quantity(self, v, r0):
        for q in QUANTITIES:
            if q.id == "CURV_R" and r0 == 1e-200:
                with pytest.raises(ValueError) as info:
                    reconstruct_quantity(q, 0.4, -0.2, v=v, r0=r0)
                assert str(info.value) == (
                    "CURV_R: scale residual R0^-2 overflows at "
                    f"V={v!r}, R0={r0!r}")
            else:
                assert math.isfinite(
                    reconstruct_quantity(q, 0.4, -0.2, v=v, r0=r0)), q.id

    def test_denominator_zero_raises_with_location(self):
        poly = TrigPolynomial(name="vanishing", terms=((1, 0, 1, 0, 0),))
        q = PaperQuantity(
            id="SYNTH", kind=FlowKind.REAL, target="g11",
            prefactor=Prefactor(+1),
            numerators=(TrigPolynomial(name="one", terms=((1, 0, 0, 0, 0),)),),
            denominators=(poly,))
        with pytest.raises(DenominatorZero):
            reconstruct_quantity(q, 0.0, 0.5)  # sin(a1) = 0

    def test_prefactor_monomial(self):
        pf = Prefactor(-1, pow2=3, e_c1=2, e_c2=-1, e_v=4, e_r0=-2)
        assert pf.value(0.5, 2.0) == -8.0 * 0.25 / 2.0
