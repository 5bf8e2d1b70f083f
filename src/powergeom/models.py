"""Two-angle power-flow surfaces, branch phase angles, and bus injections.

The three flow surfaces share the combination ``u = tan(a1) - tan(a2)`` of
the network phase angles and a common scale ``k = V^2/R0``:

* real flow       ``P = k / (1 + u^2)``
* imaginary flow  ``Q = k * u / (1 + u^2)``
* complex flow    ``F = k * (1 + u) / (1 + u^2)``

Angles live strictly inside (-pi/2, pi/2); hitting a tan pole is a typed
:class:`DomainError`, never a clamp, because the pole is exactly the
lossless limit a physical branch cannot reach.

No load-flow solving happens here: the bus-injection evaluator computes
the stated conservation sums for given voltages and admittances, exactly
as written, including the simultaneous |Y| and (G, B) factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import backend
from .backend import FlowKind, Jet3
from .errors import DanglingBranch, DomainError, ZeroResistance

HALF_PI = math.pi / 2.0

#: Angles closer than this to an odd multiple of pi/2 are rejected.
DOMAIN_GUARD = 1e-6


@dataclass(frozen=True)
class PowerModel:
    """A flow surface with its scale constants (volts, ohms)."""

    kind: FlowKind
    v: float = 1.0
    r0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise ValueError(f"bus voltage must be positive, got {self.v!r}")
        if not (self.r0 > 0.0 and math.isfinite(self.r0)):
            raise ValueError(f"base resistance must be positive, got {self.r0!r}")
        k = self.k
        if not (math.isfinite(k * k) and k * k > 0.0):
            raise ValueError(
                f"scale k = V^2/R0 = {k!r} (V={self.v!r}, R0={self.r0!r}) "
                "is out of range: k and k^2 must be finite and nonzero")

    @property
    def k(self) -> float:
        """Overall surface scale ``V^2/R0``; metric and determinant go as
        k and k^2, curvature as 1/k."""
        return self.v * self.v / self.r0


def check_angle(a: float) -> float:
    """Validate one phase angle against the tan-pole guard."""
    if not math.isfinite(a):
        raise DomainError(f"phase angle must be finite, got {a!r}")
    if abs(a) >= HALF_PI - DOMAIN_GUARD:
        raise DomainError(f"phase angle {a!r} is within {DOMAIN_GUARD!r} "
                          "rad of the +-pi/2 pole")
    return float(a)


def unit_surface(kind: FlowKind, u):
    """The surface at k = 1 as a function of u = tan a1 - tan a2.

    Number-generic: a float u gives the float surface, a Decimal u the
    Decimal one (in the current context).
    """
    den = 1 + u * u
    if kind is FlowKind.REAL:
        return 1 / den
    if kind is FlowKind.IMAGINARY:
        return u / den
    return (1 + u) / den


def eval_power(model: PowerModel, a1: float, a2: float) -> float:
    """Flow surface value at (a1, a2), in watts or vars."""
    a1 = check_angle(a1)
    a2 = check_angle(a2)
    return model.k * unit_surface(model.kind, math.tan(a1) - math.tan(a2))


def eval_power_jet(model: PowerModel, a1: float, a2: float) -> Jet3:
    """Jet of the flow surface at (a1, a2): k times ``backend.unit_slots``.
    Its f slot, ``k * (m * (1/(1 + u*u)))`` with m = 1, u or 1 + u, has
    eval_power's bits on the real flow; eval_power divides by 1 + u*u, so
    on the other flows their last two bits may differ."""
    a1 = check_angle(a1)
    a2 = check_angle(a2)
    k = model.k
    return Jet3(*(k * s for s in backend.unit_slots(model.kind, a1, a2)))


class PhaseAngles(NamedTuple):
    inductive: float
    capacitive: float
    general: float


@dataclass(frozen=True)
class BranchParams:
    """Series parameters of one branch (all in ohms)."""

    r: float
    xl: float
    xc: float

    def __post_init__(self) -> None:
        for name in ("r", "xl", "xc"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def phase_angles(params: BranchParams) -> PhaseAngles:
    """Inductive, capacitive and general impedance angles of a branch.

    All three are arctangents of reactance over resistance and therefore
    lie in (-pi/2, pi/2); the zero-resistance limit would push them onto
    the pole, so it is rejected.
    """
    if params.r == 0.0:
        raise ZeroResistance("phase angles are undefined at zero resistance")
    return PhaseAngles(
        math.atan(params.xl / params.r),
        math.atan(params.xc / params.r),
        math.atan((params.xl - params.xc) / params.r),
    )


@dataclass(frozen=True)
class Bus:
    """One bus: voltage magnitude (p.u.) and angle (radians)."""

    id: str
    vmag: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vmag) and self.vmag >= 0.0):
            raise ValueError(f"bus {self.id!r}: vmag must be >= 0")
        if not math.isfinite(self.delta):
            raise ValueError(f"bus {self.id!r}: delta must be finite")


@dataclass(frozen=True)
class Branch:
    """One branch: admittance magnitude |Y| (siemens), its G/B parts and
    the impedance angle a (radians)."""

    from_bus: str
    to_bus: str
    ymag: float = 1.0
    g: float = 1.0
    b: float = 0.0
    a: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ymag", "g", "b", "a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"branch {self.from_bus}-{self.to_bus}: "
                                 f"{name} must be finite")


@dataclass(frozen=True)
class BusNetwork:
    """Buses plus branches; endpoints must exist and self-loops are invalid."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        ids = [bus.id for bus in self.buses]
        if len(set(ids)) != len(ids):
            raise ValueError("bus ids must be unique")
        known = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise DanglingBranch(
                        f"branch {br.from_bus!r}-{br.to_bus!r} references "
                        f"unknown bus {end!r}")
            if br.from_bus == br.to_bus:
                raise ValueError(f"self-loop on bus {br.from_bus!r}")


class BusInjection(NamedTuple):
    p: float
    q: float


def bus_injections(net: BusNetwork) -> list[BusInjection]:
    """Net (P_i, Q_i) at each bus, in bus order.

    For every branch incident to bus i with far end j:

        P_i += |V_i||V_j||Y_ij| (G_ij cos(a_ij + d_j - d_i)
                                 + B_ij sin(a_ij + d_j - d_i))
        Q_i += |V_i||V_j||Y_ij| (G_ij sin(a_ij + d_j - d_i)
                                 - B_ij cos(a_ij + d_j - d_i))

    Both |Y| and (G, B) enter as stated; the hybrid form is kept verbatim,
    not normalized to a polar or rectangular convention. An injection
    that overflows to inf or nan raises ``OverflowError`` naming its bus.
    """
    by_id = {bus.id: bus for bus in net.buses}
    totals = {bus.id: [0.0, 0.0] for bus in net.buses}
    for br in net.branches:
        for here, there in ((br.from_bus, br.to_bus), (br.to_bus, br.from_bus)):
            bus_i = by_id[here]
            bus_j = by_id[there]
            phase = br.a + bus_j.delta - bus_i.delta
            scale = bus_i.vmag * bus_j.vmag * br.ymag
            totals[here][0] += scale * (br.g * math.cos(phase)
                                        + br.b * math.sin(phase))
            totals[here][1] += scale * (br.g * math.sin(phase)
                                        - br.b * math.cos(phase))
    for bus_id, (p, q) in totals.items():
        if not (math.isfinite(p) and math.isfinite(q)):
            raise OverflowError(f"bus {bus_id!r}: injection (p, q) = "
                                f"({p!r}, {q!r}) is not finite")
    return [BusInjection(*totals[bus.id]) for bus in net.buses]


def _objects(items, key: str) -> list:
    """``items``, checked to be a list of JSON objects."""
    if not isinstance(items, list):
        raise ValueError(f"{key!r} must be a list of objects, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {item!r}")
    return items


def _number(item: dict, key: str, default: float, where: str) -> float:
    value = item.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{where}: {key!r} must be a number, got {value!r}") from None


def network_from_dict(data: dict) -> BusNetwork:
    """Build a network from the JSON object layout.

    Expected shape::

        {"buses":    [{"id": "b1", "vmag": 1.0, "delta": 0.0}, ...],
         "branches": [{"from": "b1", "to": "b2", "ymag": 1.0,
                       "g": 1.0, "b": 0.0, "a": 0.0}, ...]}

    Angles are radians; magnitudes per-unit and siemens. Any other shape
    is a ValueError that names the offending part.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"network must be a JSON object, got {type(data).__name__}")
    try:
        buses = tuple(
            Bus(id=str(item["id"]),
                vmag=_number(item, "vmag", 1.0, f"buses[{i}]"),
                delta=_number(item, "delta", 0.0, f"buses[{i}]"))
            for i, item in enumerate(_objects(data["buses"], "buses")))
        branches = tuple(
            Branch(from_bus=str(item["from"]), to_bus=str(item["to"]),
                   ymag=_number(item, "ymag", 1.0, f"branches[{i}]"),
                   g=_number(item, "g", 1.0, f"branches[{i}]"),
                   b=_number(item, "b", 0.0, f"branches[{i}]"),
                   a=_number(item, "a", 0.0, f"branches[{i}]"))
            for i, item in enumerate(
                _objects(data.get("branches", []), "branches")))
    except KeyError as exc:
        raise ValueError(f"network object missing required key {exc}") from None
    return BusNetwork(buses=buses, branches=branches)


def network_to_dict(net: BusNetwork) -> dict:
    """Inverse of :func:`network_from_dict`."""
    return {
        "buses": [{"id": b.id, "vmag": b.vmag, "delta": b.delta}
                  for b in net.buses],
        "branches": [{"from": br.from_bus, "to": br.to_bus, "ymag": br.ymag,
                      "g": br.g, "b": br.b, "a": br.a}
                     for br in net.branches],
    }


def load_bus_network(path: str) -> BusNetwork:
    """Read a network JSON file; a file that is not UTF-8 JSON of the
    network layout is a ValueError naming the file and the problem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return network_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:  # the decoder's limit on nested arrays
            raise ValueError(f"{path}: JSON nested too deeply") from None
