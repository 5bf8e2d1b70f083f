"""Verification harness: statuses, determinism, diagnostics, self-checks."""

import dataclasses
import functools
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jet_reference import one_point
from powergeom import backend, expressions, geometry, selfcheck, verify
from powergeom.cli import main
from powergeom.errors import DegenerateMetric, DenominatorZero
from powergeom.expressions import (
    QUANTITIES,
    PaperQuantity,
    Prefactor,
    TrigPolynomial,
    reconstruct_quantity,
)
from powergeom.geometry import evaluate_points
from powergeom.models import FlowKind, PowerModel, eval_power
from powergeom.selfcheck import run_self_checks
from powergeom.stability import axis_samples
from powergeom.verify import _diagonal_identities, verify_against_autodiff

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)

DEGEN = geometry.StabilityClass.DEGENERATE


def point_value(target, kind, a1, a2):
    """``target`` from the one unit-scale (k = 1) jet at (a1, a2),
    independent of the column route under test; a degenerate point's
    curvature raises DegenerateMetric."""
    cols = one_point(backend.unit_slots(kind, a1, a2))
    if (target == "curvature"
            and geometry.CLASS_ORDER[cols["codes"]] is DEGEN):
        raise DegenerateMetric(
            f"metric determinant {cols['det']!r} at {(a1, a2)} is "
            "degenerate; curvature undefined")
    return cols[target]


@pytest.fixture(scope="module")
def reports():
    return {kind: verify_against_autodiff(PowerModel(kind), samples=100, seed=7)
            for kind in FlowKind}


class TestStatuses:
    def test_real_family_fully_verified(self, reports):
        rep = reports[FlowKind.REAL]
        assert rep.verified_ids() == ["METRIC_R_11", "METRIC_R_12",
                                      "METRIC_R_22", "DET_R", "CURV_R"]
        assert rep.discrepant_ids() == []

    def test_complex_family_fully_verified(self, reports):
        rep = reports[FlowKind.COMPLEX]
        assert rep.discrepant_ids() == []

    def test_imaginary_family_surfaces_the_two_discrepancies(self, reports):
        rep = reports[FlowKind.IMAGINARY]
        assert rep.discrepant_ids() == ["METRIC_I_12", "DET_I"]
        assert set(rep.verified_ids()) == {"METRIC_I_11", "METRIC_I_22",
                                           "CURV_I"}

    def test_verified_deviations_are_tiny(self, reports):
        for rep in reports.values():
            for check in rep.checks:
                if check.status == "VERIFIED":
                    assert check.max_rel_dev <= 1e-9

    def test_discrepant_checks_carry_worst_point_diagnostics(self, reports):
        for check in reports[FlowKind.IMAGINARY].checks:
            if check.status == "DISCREPANT":
                assert check.max_rel_dev > 1e-3
                assert all(math.isfinite(x) for x in check.worst_point)
                assert math.isfinite(check.worst_autodiff)
                assert math.isfinite(check.worst_reconstructed)
                assert check.notes  # suspected prefactor repair is recorded


class TestScaleAnomalies:
    def test_real_curvature_prefactor_breaks_only_off_unit_r0(self):
        # transcribed CURV_R prefactor goes as 1/(R0 V^2); true curvature as
        # R0/V^2. Off by R0^2: verified at R0=1 for any V, deviation
        # |1 - 1/R0^2| otherwise.
        ok = verify_against_autodiff(PowerModel(FlowKind.REAL, v=2.0, r0=1.0),
                                     samples=40)
        assert ok.discrepant_ids() == []
        bad = verify_against_autodiff(PowerModel(FlowKind.REAL, v=1.0, r0=4.0),
                                      samples=40)
        assert bad.discrepant_ids() == ["CURV_R"]
        check = next(c for c in bad.checks if c.quantity_id == "CURV_R")
        assert check.max_rel_dev == pytest.approx(1.0 - 1.0 / 16.0, rel=1e-6)

    def test_other_curvature_prefactors_scale_correctly(self):
        for kind in (FlowKind.IMAGINARY, FlowKind.COMPLEX):
            rep = verify_against_autodiff(PowerModel(kind, v=1.3, r0=2.5),
                                          samples=40)
            curv = next(c for c in rep.checks if c.target == "curvature")
            assert curv.status == "VERIFIED"


@functools.lru_cache(maxsize=None)
def unit_report(kind):
    return verify_against_autodiff(PowerModel(kind), samples=30, seed=5)


#: V or R0 log-uniform in 1e-6 ... 1e6.
_log_scales = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


class TestScaleFreeReports:
    @settings(max_examples=45, deadline=None, derandomize=True)
    @given(st.sampled_from(list(FlowKind)), _log_scales,
           st.one_of(st.just(1.0), _log_scales))
    # at k = 1e-8, a comparison of scaled values read the two wrong tables
    # as VERIFIED
    @example(FlowKind.IMAGINARY, 1e-4, 1.0)
    def test_entries_are_the_unit_entries(self, kind, v, r0):
        """Every quantity entry and derived identity of a report at
        (V, R0) is the one at V = R0 = 1, field for field; CURV_R's only
        where R0 = 1, as its residual R0^-2 is 1.0 there alone."""
        unit = unit_report(kind)
        scaled = verify_against_autodiff(PowerModel(kind, v=v, r0=r0),
                                         samples=30, seed=5)
        assert scaled.derived_identities == unit.derived_identities
        assert scaled.notes == unit.notes
        for got, want in zip(scaled.checks, unit.checks, strict=True):
            if got.quantity_id != "CURV_R" or r0 == 1.0:
                assert exact_fields(got) == exact_fields(want), got.quantity_id


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = verify_against_autodiff(IMAG, samples=50, seed=3).to_json()
        b = verify_against_autodiff(IMAG, samples=50, seed=3).to_json()
        assert a == b

    def test_different_seed_different_samples(self):
        a = verify_against_autodiff(REAL, samples=50, seed=3)
        b = verify_against_autodiff(REAL, samples=50, seed=4)
        assert a.checks[0].worst_point != b.checks[0].worst_point

    def test_json_is_parseable_and_complete(self, reports):
        data = json.loads(reports[FlowKind.REAL].to_json())
        assert data["report"] == "verify-paper"
        assert data["model"] == "real"
        assert len(data["quantities"]) == 5
        for q in data["quantities"]:
            assert set(q) >= {"id", "status", "max_rel_dev", "worst_point",
                              "repaired_exponents", "notes"}

    def test_text_rendering_lists_every_quantity(self, reports):
        text = reports[FlowKind.IMAGINARY].render_text()
        for qid in ("METRIC_I_11", "METRIC_I_12", "METRIC_I_22",
                    "DET_I", "CURV_I"):
            assert qid in text
        assert "DISCREPANT" in text


@pytest.fixture
def scarce_points(monkeypatch):
    """Most samples degenerate: of the draws whose jet value is asked
    for, in draw order, only every 2000th is defined, so no quantity gets
    its samples within the 1000-draws-per-sample budget at samples=3. The
    equal-angle identities, which read single points, are left alone."""
    real = verify._autodiff_columns
    asked = [0]

    def scarce(target, kind, a1, a2):
        values, defined = real(target, kind, a1, a2)
        order = asked[0] + 1 + np.arange(len(a1))
        asked[0] += len(a1)
        return values, defined & (order % 2000 == 0)

    monkeypatch.setattr(verify, "_autodiff_columns", scarce)


class TestSampleShortfall:
    def test_short_check_is_not_verified(self, scarce_points):
        rep = verify_against_autodiff(COMP, samples=3, seed=7)
        assert rep.verified_ids() == []
        assert rep.discrepant_ids() == []
        assert rep.short_ids() == [c.quantity_id for c in rep.checks]
        for check in rep.checks:
            assert check.status == "SHORT"
            assert check.samples < 3
            assert check.notes[-1] == (
                f"sample shortfall: {check.samples} of 3 samples usable "
                "after 3000 draws")

    def test_shortfall_in_text_and_json(self, scarce_points):
        rep = verify_against_autodiff(COMP, samples=3, seed=7)
        text = rep.render_text()
        data = json.loads(rep.to_json())
        for check, q in zip(rep.checks, data["quantities"]):
            assert q["status"] == "SHORT"
            assert q["samples"] == check.samples
            assert q["notes"][-1].startswith("sample shortfall: ")
            assert f"{check.quantity_id:<14}SHORT" in text
            assert f"    note: {check.notes[-1]}" in text

    def test_discrepancy_outranks_shortfall(self, scarce_points):
        rep = verify_against_autodiff(PowerModel(FlowKind.IMAGINARY),
                                      samples=3, seed=7)
        assert rep.discrepant_ids() == ["METRIC_I_12", "DET_I"]
        assert set(rep.short_ids()) == {"METRIC_I_11", "METRIC_I_22",
                                        "CURV_I"}
        for check in rep.checks:
            assert check.samples < 3
            assert check.notes[-1].startswith("sample shortfall: ")

    def test_cli_summary_names_short_checks(self, scarce_points, tmp_path,
                                            capsys):
        out = tmp_path / "report.json"
        assert main(["verify-paper", "--model", "complex", "--samples", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote report to {out}: 0 verified, 0 discrepant, 5 short "
            "(METRIC_C_11, METRIC_C_12, METRIC_C_22, DET_C, CURV_C)\n")

    def test_full_samples_stay_verified(self):
        rep = verify_against_autodiff(COMP, samples=20, seed=7)
        assert rep.short_ids() == []
        assert all(c.samples == 20 for c in rep.checks)
        assert all("shortfall" not in n for c in rep.checks for n in c.notes)


class TestDerivedIdentities:
    def test_real_diagonal_note_present(self, reports):
        rep = reports[FlowKind.REAL]
        assert "real_diagonal_det_max_scaled" in rep.derived_identities
        assert rep.derived_identities["real_diagonal_det_max_scaled"] <= 1e-9
        assert any("equal-angle determinant" in n for n in rep.notes)

    def test_imaginary_diagonal_curvature_recorded(self, reports):
        rep = reports[FlowKind.IMAGINARY]
        assert rep.derived_identities[
            "imaginary_diagonal_curvature_max_abs"] <= 1e-6

    def test_complex_diagonal_formula_recorded(self, reports):
        rep = reports[FlowKind.COMPLEX]
        assert rep.derived_identities[
            "complex_diagonal_det_formula_max_rel_dev"] <= 1e-9

    def test_degenerate_curvature_raises_instead_of_reading_nan(
            self, monkeypatch):
        """A degenerate point has no curvature to compare: the sample loop
        resamples it and the diagonal identities do not skip it. No
        sampled imaginary diagonal point is degenerate, so one is made so
        by its class code."""
        def one_degenerate(model, a1, a2):
            cols = evaluate_points(model, a1, a2)
            cols["codes"][3] = geometry.CLASS_ORDER.index(DEGEN)
            cols["curvature"][3] = math.nan
            return cols

        monkeypatch.setattr(verify, "evaluate_points", one_degenerate)
        with pytest.raises(
                DegenerateMetric,
                match=r"^metric determinant -14610\.05395572648 at "
                      r"\(-1\.3159999999999998, -1\.3159999999999998\) is "
                      r"degenerate; curvature undefined$"):
            _diagonal_identities(FlowKind.IMAGINARY)
        monkeypatch.undo()
        # at k = 1e-8 the report's diagonal is the one at k = 1
        small = verify_against_autodiff(
            PowerModel(FlowKind.IMAGINARY, v=1e-4), samples=5).derived_identities
        assert small == _diagonal_identities(FlowKind.IMAGINARY)[0]
        assert math.isfinite(small["imaginary_diagonal_curvature_max_abs"])
        origin = np.zeros(1)
        cols = evaluate_points(REAL, origin, origin)
        assert cols["det"].tolist() == [0.0]
        assert geometry.CLASS_ORDER[int(cols["codes"][0])] is DEGEN
        assert math.isnan(cols["curvature"][0])
        _, defined = verify._autodiff_columns("curvature", FlowKind.REAL,
                                              origin, origin)
        assert defined.tolist() == [False]
        _, defined = verify._autodiff_columns("det", FlowKind.REAL, origin,
                                              origin)
        assert defined.tolist() == [True]

    def test_repaired_exponent_annotations_travel_with_quantities(self, reports):
        by_id = {c.quantity_id: c for c in reports[FlowKind.REAL].checks}
        assert by_id["DET_R"].repairs
        assert by_id["CURV_R"].repairs
        assert not by_id["METRIC_R_11"].repairs


def test_self_checks_all_pass():
    results = run_self_checks(samples=100, seed=0)
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(f"{r.name}: {r.detail}" for r in failures)
    assert len(results) == 11


def test_nan_flow_value_fails_the_symmetry_check(monkeypatch):
    """A NaN deviation fails the check rather than losing to ``max``."""
    calls = []

    def one_nan(model, a1, a2):
        calls.append(None)
        return math.nan if len(calls) == 40 else eval_power(model, a1, a2)

    monkeypatch.setattr(selfcheck, "eval_power", one_nan)
    result = selfcheck._check_flow_symmetries(100, 0)
    assert len(calls) == 500
    assert not result.passed, result.detail


#: The power p of k = V^2/R0 that each target goes as.
TARGET_POWERS = {"g11": 1, "g12": 1, "g22": 1, "det": 2, "curvature": -1}


def reference_residual(q, v, r0):
    """``V^(e_v - 2p) R0^(e_r0 + p)`` from the transcribed exponents: the
    table over k^p at (V, R0) against the table at V = R0 = 1."""
    p = TARGET_POWERS[q.target]
    return v ** (q.prefactor.e_v - 2 * p) * r0 ** (q.prefactor.e_r0 + p)


def reference_check_quantity(q, model, samples, seed):
    """The verification loop one draw at a time, as it was before draws
    were evaluated in chunks: the reference the chunked loop must match.
    Polynomials and the prefactor are evaluated term by term here, with
    plain left-to-right addition. Both sides are compared at unit scale:
    the unit jet against the table at V = R0 = 1 times its residual."""
    def poly(p, c1, s1, c2, s2):
        total = 0.0
        for coeff, ec1, es1, ec2, es2 in p.terms:
            total += coeff * c1**ec1 * s1**es1 * c2**ec2 * s2**es2
        return total

    def polys(ps, c1, s1, c2, s2):
        total = 0.0
        for p in ps:
            total += poly(p, c1, s1, c2, s2)
        return total

    pf = q.prefactor
    residual = reference_residual(q, model.v, model.r0)
    stream = verify._sample_stream(seed, q.id)
    mass = q.denominator_mass()
    worst = -1.0
    worst_point = (math.nan, math.nan)
    worst_auto = math.nan
    worst_recon = math.nan
    used = 0
    resampled = 0
    draws = budget = 1000 * samples
    while used < samples and budget > 0:
        budget -= 1
        a1, a2 = next(stream)
        c1, s1 = math.cos(a1), math.sin(a1)
        c2, s2 = math.cos(a2), math.sin(a2)
        den = polys(q.denominators, c1, s1, c2, s2)
        if abs(den) <= verify.RESAMPLE_DENOM_TOL * mass:
            resampled += 1
            continue
        try:
            auto = point_value(q.target, model.kind, a1, a2)
        except DegenerateMetric:
            resampled += 1
            continue
        num = polys(q.numerators, c1, s1, c2, s2)
        prefactor = (pf.sign * 2.0**pf.pow2 * c1**pf.e_c1 * c2**pf.e_c2
                     * residual)
        recon = prefactor * num / den
        if not (math.isfinite(auto) and math.isfinite(recon)):
            resampled += 1
            continue
        dev = abs(recon - auto) / max(1.0, abs(auto))
        if dev > worst:
            worst = dev
            worst_point = (a1, a2)
            worst_auto = auto
            worst_recon = recon
        used += 1
    notes = q.notes
    if worst > verify.VERIFY_TOL:
        status = "DISCREPANT"
    elif used < samples:
        status = "SHORT"
    else:
        status = "VERIFIED"
    if used < samples:
        notes += (f"sample shortfall: {used} of {samples} samples usable "
                  f"after {draws} draws",)
    return verify.QuantityCheck(
        quantity_id=q.id, target=q.target, status=status,
        max_rel_dev=worst, worst_point=worst_point,
        worst_autodiff=worst_auto, worst_reconstructed=worst_recon,
        samples=used, resampled=resampled,
        repairs=tuple(q.repair_annotations()), notes=notes)


def reference_diagonal_identities(kind):
    """The equal-angle identities one point and one unit-scale jet at a
    time."""
    samples = [a for a in axis_samples(verify.DEFAULT_BOUNDS, 101).tolist()
               if abs(a) >= 0.05]
    worst = 0.0
    for a in samples:
        if kind is FlowKind.REAL:
            det = point_value("det", kind, a, a)
            sec = 1.0 / math.cos(a)
            worst = max(worst, abs(det) / sec**8)
        elif kind is FlowKind.IMAGINARY:
            worst = max(worst, abs(point_value("curvature", kind, a, a)))
        else:
            det = point_value("det", kind, a, a)
            sec = 1.0 / math.cos(a)
            expected = -4.0 * sec**4 * math.tan(a) ** 2
            worst = max(worst,
                        abs(det - expected) / max(1.0, abs(expected)))
    return worst


def _exact(value):
    """A value with its type, floats as ``float.hex``, for bitwise
    comparison (a numpy scalar leaking into a report shows as a type)."""
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


def exact_fields(check):
    return {f.name: _exact(getattr(check, f.name))
            for f in dataclasses.fields(check)}


#: (V, R0): unit scale, the golden-bytes scale and a large k = 9e4; off
#: R0 = 1 the last two also carry CURV_R's residual R0^-2.
SCALES = ((1.0, 1.0), (1.3, 0.7), (30.0, 0.01))
RUNS = ((1, 0), (1, 1), (1, 2), (7, 0), (7, 1), (7, 2), (1000, 3))


class TestChunkedSampling:
    @pytest.mark.parametrize("v,r0", SCALES)
    @pytest.mark.parametrize("samples,seed", RUNS)
    def test_matches_one_draw_at_a_time_bit_for_bit(self, v, r0, samples,
                                                    seed):
        for q in QUANTITIES:
            model = PowerModel(q.kind, v=v, r0=r0)
            got = verify._check_quantity(q, model, samples, seed)
            want = reference_check_quantity(q, model, samples, seed)
            assert exact_fields(got) == exact_fields(want), q.id

    @pytest.mark.parametrize("v,r0", SCALES)
    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_diagonal_identities_match_one_point_at_a_time(self, kind, v,
                                                           r0):
        model = PowerModel(kind, v=v, r0=r0)
        identities = verify_against_autodiff(model, samples=1).derived_identities
        (got,) = identities.values()
        assert _exact(got) == _exact(reference_diagonal_identities(kind))

    def test_first_maximum_wins_across_chunks(self, monkeypatch):
        """Every draw ties (table value 1, jet value 2): the worst point is
        the very first draw, though the draws span several chunks."""
        one = TrigPolynomial("one", ((1, 0, 0, 0, 0),))
        q = PaperQuantity(id="TIE", kind=FlowKind.REAL, target="g11",
                          prefactor=Prefactor(+1), numerators=(one,),
                          denominators=(one,))

        def constant(target, kind, a1, a2):
            return np.full(len(a1), 2.0), np.ones(len(a1), dtype=bool)

        monkeypatch.setattr(verify, "_autodiff_columns", constant)
        check = verify._check_quantity(q, REAL, 3 * verify.CHUNK, 0)
        assert (check.samples, check.resampled) == (3 * verify.CHUNK, 0)
        assert check.max_rel_dev == 0.5
        assert check.worst_point == next(verify._sample_stream(0, "TIE"))

    def test_jet_batches_stay_within_one_block(self, monkeypatch):
        """Metric entries and det take ``batch_metric``, curvature
        ``batch_slots``: every jet batch of either stays within a chunk."""
        sizes = []

        def recording(real):
            def record(code, a1, a2):
                sizes.append(len(a1))
                return real(code, a1, a2)
            return record

        for name in ("batch_slots", "batch_metric"):
            monkeypatch.setattr(backend, name,
                                recording(getattr(backend, name)))
        rep = verify_against_autodiff(REAL, samples=5000, seed=2)
        assert all(c.samples == 5000 for c in rep.checks)
        assert verify.CHUNK <= backend.BLOCK
        assert max(sizes) <= verify.CHUNK
        assert max(sizes) > verify.CHUNK // 2  # the cap is what binds
        assert sum(sizes) > 5 * 5000

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_report_does_not_depend_on_the_chunk_size(self, kind,
                                                      monkeypatch):
        reports = set()
        for chunk in (7, 1024, 2048):
            monkeypatch.setattr(verify, "CHUNK", chunk)
            reports.add(verify_against_autodiff(PowerModel(kind), samples=300,
                                                seed=5).to_json())
        assert len(reports) == 1

    @pytest.mark.parametrize("flow", [k.value for k in FlowKind])
    @pytest.mark.parametrize("scale", [[], ["--v", "1.3", "--r0", "0.7"]],
                             ids=["unit", "box"])
    def test_verify_paper_writes_nothing_to_stderr(self, flow, scale,
                                                   tmp_path, capsys):
        """Rejected draws (vanishing denominators, degenerate curvature)
        raise no numpy warning and print nothing."""
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify-paper", "--model", flow, *scale,
                         "--samples", "300", "--seed", "4",
                         "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""


def reference_poly(p, c1, s1, c2, s2):
    """One polynomial at one point, term by term: the loop of
    :func:`reference_check_quantity`."""
    total = 0.0
    for coeff, ec1, es1, ec2, es2 in p.terms:
        total += coeff * c1**ec1 * s1**es1 * c2**ec2 * s2**es2
    return total


#: Cosine and sine values, signed zeros, +-1, subnormals and values near
#: 1e-150, whose powers underflow to subnormals and signed zeros.
_trig_values = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310,
                     -1e-310)),
    st.tuples(st.floats(min_value=1e-151, max_value=1e-149),
              st.booleans()).map(lambda p: -p[0] if p[1] else p[0]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestColumnPaths:
    """The column routes of the sampling loop against one value at a
    time."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_trig_values, _trig_values, _trig_values,
                              _trig_values), min_size=1, max_size=12))
    def test_compiled_polynomials_have_the_reference_bits(self, points):
        columns = [np.array(c, dtype=np.float64) for c in zip(*points)]
        for q in QUANTITIES:
            for poly in q.numerators + q.denominators:
                want = [reference_poly(poly, *point) for point in points]
                assert _bits(poly.eval_cs(*columns)) == _bits(want), poly.name
                assert ([_exact(poly.eval_cs(*point)) for point in points]
                        == list(map(_exact, want))), poly.name

    def test_chunks_take_the_stream_points(self):
        uniform = verify._uniform(3, "CHUNKS")
        stream = verify._sample_stream(3, "CHUNKS")
        for size in (1, verify.CHUNK, 7):
            a1, a2 = verify._draw(uniform, size)
            want = [next(stream) for _ in range(size)]
            assert list(zip(a1.tolist(), a2.tolist())) == want

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_metric_columns_match_evaluate_points(self, kind):
        """g11, g12, g22 and det from the metric slots alone have the bits
        of the full geometry, over two chunks of draws and at points of
        exact zeros (the real metric is degenerate on a1 = a2)."""
        a1, a2 = verify._draw(verify._uniform(5, "METRIC"),
                              verify.CHUNK + 5)
        a1 = np.concatenate([a1, [0.0, 0.5, -0.0]])
        a2 = np.concatenate([a2, [0.0, 0.5, 0.0]])
        cols = evaluate_points(PowerModel(kind), a1, a2)
        for target in ("g11", "g12", "g22", "det"):
            parts = [verify._autodiff_columns(target, kind, a1[s], a2[s])
                     for s in (slice(0, verify.CHUNK),
                               slice(verify.CHUNK, None))]
            assert all(defined.all() for _, defined in parts)
            got = np.concatenate([values for values, _ in parts])
            assert _bits(got) == _bits(cols[target]), target


def test_bits_do_not_depend_on_builtin_sum(monkeypatch):
    """Python 3.12's ``sum()`` compensates float sums. The polynomials are
    added with plain ``+``, so a compensated module-level ``sum`` changes
    neither a report nor a reconstructed value."""
    rng = random.Random(11)
    points = [(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
              for _ in range(50)]

    def outputs():
        reports = [verify_against_autodiff(PowerModel(kind), samples=200,
                                           seed=9).to_json()
                   for kind in FlowKind]
        values = []
        for q in QUANTITIES:
            for a1, a2 in points:
                try:
                    values.append(
                        reconstruct_quantity(q, a1, a2, v=1.3, r0=0.7).hex())
                except DenominatorZero:
                    values.append(None)
        assert values.count(None) < len(values) // 4
        return reports, values

    before = outputs()

    def compensated_sum(values, start=0):
        return math.fsum(values) + start

    for module in (expressions, verify):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs() == before
