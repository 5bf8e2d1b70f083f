"""Central-finite-difference oracle for the jet engine.

Every jet slot is checked against a derivative of the scalar surface that
owes nothing to the jets: one second-order central product stencil per
slot at step ``STEP = 1e-9``, on surface values computed in ``decimal`` at
``PRECISION = 45`` digits. Truncation (h^2 = 1e-18 times a fifth
derivative) and rounding (1e-45 amplified by at most h^-3) both sit near
1e-18, so a deviation the check reports is the engine's. Both run at k = 1.

The surfaces depend on the angles through ``u = tan a1 - tan a2`` only.
``tan a`` comes once per axis from the sin and cos Taylor series, and each
shifted abscissa from ``tan(a + s) = (tan a + tan s) / (1 - tan a tan s)``.
The slots' stencils visit 13 points of the integer offset lattice. At
each, ``u`` and ``1 + u*u`` are computed once, and the three flows'
surfaces from them (:func:`~powergeom.models.unit_surfaces`). Each slot's
stencil is a fixed table of (offset, weight) terms over the lattice,
summed in the order :func:`central_difference` sums them, so it gives the
same bits. :func:`max_jet_deviations` checks all three flows in one call,
so a point's lattice serves all of them. No lattice or slot is kept from
one call to the next; only the shifted tangents of the last 256 angles
are, so a call that repeats the points of an earlier one (a second
``verify-self`` in one process, say) skips their series.

This is test machinery that ships with the package so ``verify-self`` can
rerun it anywhere. Only the self-check imports it, so the CLI does not
load ``decimal`` otherwise.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal, localcontext
from typing import Sequence

import numpy as np

from . import backend
from .backend import Jet3
from .models import FLOW_INDEX, FlowKind, check_angle, unit_surfaces

PRECISION = 45
STEP = Decimal("1e-9")

_CONTEXT = Context(prec=PRECISION)

#: Central stencils for d^n/dx^n, second-order accurate, as
#: (divisor, ((offset, weight), ...)) with integer offsets and weights so
#: that any number type can go through them.
_STENCILS = (
    (1, ((0, 1),)),
    (2, ((-1, -1), (1, 1))),
    (1, ((-1, 1), (0, -2), (1, 1))),
    (2, ((-2, -1), (-1, 2), (1, -2), (2, 1))),
)


def central_difference(f, x, y, i: int, j: int, h):
    """d^{i+j} f / dx^i dy^j at (x, y) from one central product stencil.

    Number-generic: x, y, h and the values of f may be floats, Decimals or
    Fractions, and the arithmetic is done in their type (for Decimals, in
    the current context). The error is O(h^2) plus the rounding of f
    amplified by h^-(i+j).
    """
    div_x, xs = _STENCILS[i]
    div_y, ys = _STENCILS[j]
    total = sum(wx * wy * f(x + ox * h, y + oy * h)
                for ox, wx in xs for oy, wy in ys)
    return total / (div_x * div_y * h ** (i + j))


def decimal_tan(a: Decimal) -> Decimal:
    """tan a from the sin and cos Taylor series, in the current context.

    For angles of the model's domain, |a| < pi/2; anything else, NaN
    included, is a ``ValueError`` rather than a series that never settles.
    """
    if not (a.is_finite() and abs(a) < 2):
        raise ValueError(f"decimal_tan takes |a| < 2, got {a}")
    a2 = a * a
    sin, cos, term, n = a, Decimal(1), Decimal(1), 0
    while True:
        n += 2
        term = -term * a2 / (n * (n - 1))  # (-1)^(n/2) a^n / n!
        next_cos = cos + term
        next_sin = sin + term * a / (n + 1)
        if next_cos == cos and next_sin == sin:
            return sin / cos
        cos, sin = next_cos, next_sin


with localcontext(_CONTEXT):
    #: tan(o * STEP) for every offset o a stencil of order <= 3 takes.
    _TAN_OFFSETS = {o: decimal_tan(o * STEP) for o in range(-2, 3)}


@functools.lru_cache(maxsize=256)
def _axis_tans(a: float) -> dict[int, Decimal]:
    """{o: tan(a + o * STEP)} over the stencil offsets, from one series
    for tan a. Within one call each angle is read once; the cache serves
    later calls at the same angles. Callers only read the dict.
    """
    with localcontext(_CONTEXT):
        t = decimal_tan(Decimal(a))
        return {o: (t + tau) / (1 - t * tau)
                for o, tau in _TAN_OFFSETS.items()}


def _slot_stencil(i: int, j: int):
    """The product stencil of d^{i+j}/dx^i dy^j as :func:`central_difference`
    runs it at (0, 0) with h = 1: its (offset, weight) terms in summation
    order, its divisor and the derivative's order."""
    div_x, xs = _STENCILS[i]
    div_y, ys = _STENCILS[j]
    return (tuple(((ox, oy), wx * wy) for ox, wx in xs for oy, wy in ys),
            div_x * div_y, i + j)


#: The stencil of each slot of :class:`Jet3`, in order; a slot's name
#: spells its derivative: f112 is d^3/da1^2 da2.
_SLOT_STENCILS = tuple(_slot_stencil(name.count("1"), name.count("2"))
                       for name in Jet3._fields)
#: The 13 offsets (o1, o2) that the stencils visit.
_LATTICE = tuple(sorted({offset for terms, _, _ in _SLOT_STENCILS
                         for offset, _ in terms}))

with localcontext(_CONTEXT):
    #: Each slot's stencil as terms (place in _LATTICE, weight), divisor
    #: and STEP^order: the stencils run on the integer offset lattice,
    #: where the n-th derivative is STEP^n times the one in the angles.
    _SLOT_SUMS = tuple(
        (tuple((_LATTICE.index(offset), weight) for offset, weight in terms),
         divisor, STEP ** order)
        for terms, divisor, order in _SLOT_STENCILS)

_ZERO = Decimal(0)


def _oracles(a1: float, a2: float) -> list[list[float]]:
    """Each flow's ten unit-scale slots at (a1, a2) from central
    differences, in :class:`FlowKind` order: :func:`unit_surfaces` once
    per lattice point for all the flows, then each slot's stencil on the
    flow's surface, which gives it the bits of :func:`central_difference`
    on it.

    Each sum starts from zero and adds its terms in order, as
    :func:`central_difference` does; a weight of 1 or -1 is an add or a
    subtract, which is the product's value exactly, since every surface
    value has at most ``PRECISION`` digits."""
    t1, t2 = _axis_tans(a1), _axis_tans(a2)
    with localcontext(_CONTEXT):
        lattice = [unit_surfaces(t1[o1] - t2[o2]) for o1, o2 in _LATTICE]
        flows = []
        for kind in FlowKind:
            flow = FLOW_INDEX[kind]
            surface = [values[flow] for values in lattice]
            slots = []
            for terms, divisor, step_power in _SLOT_SUMS:
                total = _ZERO
                for at, weight in terms:
                    if weight == 1:
                        total = total + surface[at]
                    elif weight == -1:
                        total = total - surface[at]
                    else:
                        total = total + weight * surface[at]
                slots.append(float(total / divisor / step_power))
            flows.append(slots)
        return flows


def max_jet_deviations(points: Sequence[tuple[float, float]]
                       ) -> dict[FlowKind, tuple[float, dict]]:
    """Worst slot deviation between each flow's unit-scale jets and oracle.

    For each flow: the maximum of |jet - oracle| / max(1, |oracle|) over
    all slots and points, the first in point-then-slot order, plus a
    description of where it occurred (empty when every deviation is
    zero). A NaN deviation is the maximum, so a NaN slot fails any
    tolerance. The jets of all points come from one ``batch_slots`` call
    per flow, which gives each the bits of ``backend.unit_slots``; the
    oracle's lattice is computed once per point for all the flows. Every
    point passes ``check_angle`` first. The caller's decimal context is
    left as it was.
    """
    if not points:
        return {kind: (0.0, {}) for kind in FlowKind}
    a1s = np.array([check_angle(a1) for a1, _ in points], dtype=np.float64)
    a2s = np.array([check_angle(a2) for _, a2 in points], dtype=np.float64)
    oracles = [_oracles(a1, a2) for a1, a2 in points]
    out = {}
    for f, kind in enumerate(FlowKind):
        got = np.column_stack(backend.batch_slots(kind, a1s, a2s))
        want = np.array([flows[f] for flows in oracles], dtype=np.float64)
        dev = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        p, slot = divmod(int(np.argmax(dev)), len(Jet3._fields))
        worst = float(dev[p, slot])
        info = {} if worst == 0.0 else {
            "slot": Jet3._fields[slot], "point": tuple(points[p]),
            "jet": float(got[p, slot]), "oracle": float(want[p, slot])}
        out[kind] = worst, info
    return out

