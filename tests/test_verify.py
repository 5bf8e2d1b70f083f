"""Verification harness: statuses, determinism, diagnostics, self-checks."""

import json
import math

import pytest

from powergeom import verify
from powergeom.cli import main
from powergeom.errors import DegenerateMetric
from powergeom.models import FlowKind, PowerModel
from powergeom.selfcheck import run_self_checks
from powergeom.verify import _autodiff_value, verify_against_autodiff

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)


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
    """Most off-diagonal samples degenerate: only every 2000th call of
    ``_autodiff_value`` off the diagonal returns, so no quantity gets its
    samples within the 1000-draws-per-sample budget at samples=3. The
    equal-angle identities (a1 == a2) are left alone."""
    real = verify._autodiff_value
    calls = [0]

    def scarce(target, model, a1, a2):
        if a1 != a2:
            calls[0] += 1
            if calls[0] % 2000:
                raise DegenerateMetric("forced degenerate sample")
        return real(target, model, a1, a2)

    monkeypatch.setattr(verify, "_autodiff_value", scarce)


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

    def test_degenerate_curvature_raises_instead_of_reading_nan(self):
        """A degenerate point has no curvature to compare: the sample loop
        resamples it and the diagonal identities do not skip it."""
        with pytest.raises(DegenerateMetric,
                           match=r"at \(0\.0, 0\.0\) is degenerate"):
            _autodiff_value("curvature", REAL, 0.0, 0.0)
        assert _autodiff_value("det", REAL, 0.0, 0.0) == 0.0

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
