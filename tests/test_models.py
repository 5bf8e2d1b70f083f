"""Flow surfaces, phase angles, bus injections, and their invariants."""

import json
import math
import random

import pytest

from powergeom.errors import DanglingBranch, DomainError, ZeroResistance
from powergeom.models import (
    Branch,
    BranchParams,
    Bus,
    BusNetwork,
    FlowKind,
    PowerModel,
    bus_injections,
    eval_power,
    eval_power_jet,
    load_bus_network,
    network_from_dict,
    network_to_dict,
    phase_angles,
)

REAL = PowerModel(FlowKind.REAL)
IMAG = PowerModel(FlowKind.IMAGINARY)
COMP = PowerModel(FlowKind.COMPLEX)

QUARTER_PI = math.pi / 4.0


def random_points(seed, n, lo=-1.4, hi=1.4):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestEvalPower:
    def test_real_at_origin(self):
        assert eval_power(REAL, 0.0, 0.0) == 1.0

    def test_imaginary_at_quarter_pi(self):
        assert eval_power(IMAG, QUARTER_PI, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_complex_at_quarter_pi(self):
        assert eval_power(COMP, QUARTER_PI, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.pi / 2, -math.pi / 2,
                                     math.pi / 2 - 1e-7, 2.0, math.nan])
    def test_pole_guard(self, bad):
        with pytest.raises(DomainError):
            eval_power(REAL, bad, 0.0)
        with pytest.raises(DomainError):
            eval_power(REAL, 0.0, bad)

    def test_invalid_scale_constants(self):
        with pytest.raises(ValueError):
            PowerModel(FlowKind.REAL, v=0.0)
        with pytest.raises(ValueError):
            PowerModel(FlowKind.REAL, r0=-1.0)

    def test_kind_parsing(self):
        assert FlowKind.parse(" Real ") is FlowKind.REAL
        with pytest.raises(ValueError):
            FlowKind.parse("reactive")


class TestSurfaceInvariants:
    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_scale_law_exact(self, kind):
        scaled = PowerModel(kind, v=3.0, r0=2.0)
        unit = PowerModel(kind, v=1.0, r0=1.0)
        k = scaled.k
        for (a1, a2) in random_points(11, 50):
            assert eval_power(scaled, a1, a2) == k * eval_power(unit, a1, a2)
            js = eval_power_jet(scaled, a1, a2)
            ju = eval_power_jet(unit, a1, a2)
            for ss, su in zip(js, ju):
                assert ss == k * su

    def test_real_symmetric_imaginary_antisymmetric(self):
        for (a1, a2) in random_points(12, 100):
            p = eval_power(REAL, a1, a2)
            assert abs(p - eval_power(REAL, a2, a1)) <= 1e-12 * max(1.0, abs(p))
            q = eval_power(IMAG, a1, a2)
            assert abs(q + eval_power(IMAG, a2, a1)) <= 1e-12 * max(1.0, abs(q))

    def test_complex_decomposes_into_real_plus_imaginary(self):
        for (a1, a2) in random_points(13, 100, lo=-1.54, hi=1.54):
            f = eval_power(COMP, a1, a2)
            p = eval_power(REAL, a1, a2)
            q = eval_power(IMAG, a1, a2)
            assert abs(f - (p + q)) <= 1e-12 * max(1.0, abs(f), abs(p), abs(q))


class TestEvalPowerJet:
    def test_real_origin_hessian(self):
        j = eval_power_jet(REAL, 0.0, 0.0)
        assert (j.f11, j.f12, j.f22) == (-2.0, 2.0, -2.0)
        assert j.f1 == j.f2 == 0.0

    def test_imaginary_origin(self):
        j = eval_power_jet(IMAG, 0.0, 0.0)
        assert (j.f11, j.f12, j.f22) == (0.0, 0.0, 0.0)
        assert (j.f1, j.f2) == (1.0, -1.0)

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_value_slot_matches_eval_power(self, kind):
        model = PowerModel(kind, v=1.5, r0=0.7)
        for (a1, a2) in random_points(14, 50):
            j = eval_power_jet(model, a1, a2)
            v = eval_power(model, a1, a2)
            assert abs(j.f - v) <= 1e-14 * max(1.0, abs(v))

    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_value_slot_multiplies_by_the_reciprocal(self, kind):
        """The f slot is k * (m * (1/(1 + u*u))), m = 1, u or 1 + u, where
        eval_power divides by 1 + u*u: the same bits on the real flow, and
        within 2**-50 relative on the others, where they do differ."""
        model = PowerModel(kind, v=1.3, r0=0.7)
        differ = 0
        for (a1, a2) in random_points(15, 2000):
            f = eval_power_jet(model, a1, a2).f
            value = eval_power(model, a1, a2)
            u = math.tan(a1) - math.tan(a2)
            m = {FlowKind.REAL: 1.0, FlowKind.IMAGINARY: u,
                 FlowKind.COMPLEX: 1.0 + u}[kind]
            assert f == model.k * (m * (1.0 / (1.0 + u * u)))
            assert abs(f - value) <= 2.0**-50 * abs(value)
            differ += f != value
        assert (differ == 0) == (kind is FlowKind.REAL)

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            eval_power_jet(REAL, math.pi / 2, 0.0)


class TestPhaseAngles:
    def test_inductive_branch(self):
        angles = phase_angles(BranchParams(r=1.0, xl=1.0, xc=0.0))
        assert angles == pytest.approx((QUARTER_PI, 0.0, QUARTER_PI))

    def test_balanced_reactances_cancel(self):
        angles = phase_angles(BranchParams(r=1.0, xl=2.0, xc=2.0))
        assert angles.inductive == pytest.approx(math.atan(2.0))
        assert angles.capacitive == pytest.approx(math.atan(2.0))
        assert angles.general == 0.0

    def test_zero_resistance_rejected(self):
        with pytest.raises(ZeroResistance):
            phase_angles(BranchParams(r=0.0, xl=1.0, xc=0.0))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            BranchParams(r=-1.0, xl=0.0, xc=0.0)

    def test_angles_stay_in_open_interval(self):
        angles = phase_angles(BranchParams(r=1.0, xl=1e6, xc=0.0))
        assert abs(angles.inductive) < math.pi / 2


def two_bus(g=1.0, b=0.0, a=0.0):
    return BusNetwork(
        buses=(Bus("b1"), Bus("b2")),
        branches=(Branch("b1", "b2", ymag=1.0, g=g, b=b, a=a),),
    )


class TestBusInjections:
    def test_conductive_branch(self):
        inj = bus_injections(two_bus(g=1.0, b=0.0))
        assert inj[0] == pytest.approx((1.0, 0.0))
        assert inj[1] == pytest.approx((1.0, 0.0))

    def test_susceptive_branch(self):
        inj = bus_injections(two_bus(g=0.0, b=1.0))
        assert inj[0] == pytest.approx((0.0, -1.0))
        assert inj[1] == pytest.approx((0.0, -1.0))

    def test_no_branches_gives_zeros(self):
        net = BusNetwork(buses=(Bus("b1"), Bus("b2")), branches=())
        assert bus_injections(net) == [(0.0, 0.0), (0.0, 0.0)]

    def test_three_bus_row_sums(self):
        # all vmag=1, delta=0, a=0, b=0: P_i reduces to sum of |Y| g over
        # incident branches
        net = BusNetwork(
            buses=(Bus("b1"), Bus("b2"), Bus("b3")),
            branches=(Branch("b1", "b2", ymag=2.0, g=3.0),
                      Branch("b2", "b3", ymag=0.5, g=4.0),
                      Branch("b1", "b3", ymag=1.5, g=1.0)),
        )
        inj = bus_injections(net)
        assert inj[0].p == pytest.approx(2.0 * 3.0 + 1.5 * 1.0)
        assert inj[1].p == pytest.approx(2.0 * 3.0 + 0.5 * 4.0)
        assert inj[2].p == pytest.approx(0.5 * 4.0 + 1.5 * 1.0)
        assert all(abs(i.q) < 1e-15 for i in inj)

    def test_phase_difference_direction(self):
        net = BusNetwork(
            buses=(Bus("b1", delta=0.0), Bus("b2", delta=0.3)),
            branches=(Branch("b1", "b2", ymag=1.0, g=0.0, b=1.0),),
        )
        inj = bus_injections(net)
        # Q_i = -B cos(a + d_j - d_i); the sign of the phase flips per side
        assert inj[0].q == pytest.approx(-math.cos(0.3))
        assert inj[1].q == pytest.approx(-math.cos(-0.3))
        assert inj[0].p == pytest.approx(math.sin(0.3))
        assert inj[1].p == pytest.approx(math.sin(-0.3))

    def test_dangling_branch_rejected(self):
        with pytest.raises(DanglingBranch):
            BusNetwork(buses=(Bus("b1"),), branches=(Branch("b1", "b9"),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            BusNetwork(buses=(Bus("b1"),), branches=(Branch("b1", "b1"),))


class TestNetworkJson:
    def test_round_trip(self, tmp_path):
        data = {
            "buses": [{"id": "b1", "vmag": 1.0, "delta": 0.0},
                      {"id": "b2", "vmag": 0.98, "delta": -0.1}],
            "branches": [{"from": "b1", "to": "b2", "ymag": 1.2,
                          "g": 0.9, "b": 0.4, "a": 0.05}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        net = load_bus_network(str(path))
        assert network_to_dict(net) == data
        assert network_from_dict(network_to_dict(net)) == net

    def test_missing_key_is_value_error(self):
        with pytest.raises(ValueError):
            network_from_dict({"branches": []})
