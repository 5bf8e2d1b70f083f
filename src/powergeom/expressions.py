"""Tabulated closed-form expansions of the flow geometry.

Each metric component, determinant and scalar curvature of the three flow
surfaces has a published expansion of the form

    prefactor * (sum of numerator polynomials) / (sum of denominator polynomials)

where the polynomials have integer coefficients in c1, s1, c2, s2 (cosines
and sines of the two angles) and the prefactor is a signed monomial in 2,
c1, c2, V and R0. The tables in :mod:`powergeom._tables` transcribe those
expansions term for term, in source order; this module evaluates them and
pairs each with the jet-engine quantity it claims to equal, so the
verification harness can confirm or flag every single one. Each target
goes as k^p in k = V^2/R0 (:data:`SCALE_POWERS`), so a table over k^p is
its value at V = R0 = 1 times an exact :meth:`PaperQuantity.residual`.

One evaluator serves one point and many. :meth:`TrigPolynomial.eval_cs`
and :meth:`Prefactor.value` take floats, float64 columns, or
:class:`Powers` tables of either, and read every ``x**e`` off a table, so
a quantity's numerators, denominators and prefactor share one table per
variable. A column's ``x**0`` and ``x**1`` are exact (``1.0`` and the
column), its other entries come from ``np.float_power``, libm ``pow``
per element as ``**`` takes it. The verifier takes its columns of cosines
and sines from ``np.cos`` and ``np.sin``; the kernel keeps ``math.tan``,
because ``np.tan`` rounds differently at some points.
``tests/test_expressions.py::TestNumpyRoutinesMatchMath`` holds the three
numpy routines to ``math`` bit for bit, so a numpy build whose SIMD paths
round them differently fails it. Each polynomial compiles its terms once,
to a float coefficient and the factors of nonzero exponent (a product
with ``x**0 = 1.0`` changes no bit). A term's factors are multiplied and the
terms added left to right in source order, so a column holds the same
bits as the floats at each of its points. :meth:`Powers.subset` narrows a
table to some of its elements, so entries that only some points need are
taken at those points alone. Polynomials are added with
plain ``+``, never builtin ``sum()``, whose float sums are compensated from
Python 3.12 on and would make the reports depend on the Python version.

Transcriptions are never corrected to make verification pass: a quantity
whose tabulated form disagrees with the defining Hessian stays encoded as
transcribed and is reported as discrepant, with any strong repair candidate
recorded as a note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _tables
from .errors import DenominatorZero
from .models import FlowKind

#: A single monomial: (coeff, e_c1, e_s1, e_c2, e_s2).
TrigTerm = tuple

#: Denominator magnitudes at or below DENOM_TOL * coefficient_mass raise
#: DenominatorZero.
DENOM_TOL = 1e-12


class Powers:
    """``x**e`` for each exponent asked of one variable, computed once.

    ``x`` is a float or a float64 column. A column's ``x**0`` is the
    scalar ``1.0`` and its ``x**1`` the column itself, as Python ``**``
    gives them for every float. Any other exponent takes
    ``np.float_power``, libm ``pow`` per element, the function ``**``
    calls; ``tests/test_expressions.py::TestNumpyRoutinesMatchMath`` holds
    it to ``**`` bit for bit. ``np.power`` is not used: its SIMD paths
    round differently. Where ``**`` raises, so does the column: at the
    first element whose power is infinite though the element is finite,
    ``ZeroDivisionError`` at a zero and ``OverflowError`` elsewhere. So
    every element has the float's bits.
    """

    __slots__ = ("x", "_table")

    def __init__(self, x):
        self.x = x
        self._table = {}

    def __getitem__(self, e: int):
        power = self._table.get(e)
        if power is None:
            x = self.x
            if not isinstance(x, np.ndarray):
                power = x**e
            elif e == 0:
                power = 1.0
            elif e == 1:
                power = x
            else:
                with np.errstate(all="ignore"):
                    power = np.float_power(x, float(e))
                if np.isinf(power).any():
                    _raise_out_of_range(x, power, e)
            self._table[e] = power
        return power

    def subset(self, rows: np.ndarray) -> "Powers":
        """The table of the column's elements at ``rows``: the entries
        computed so far, sliced, and any other entry taken for those
        elements only, with the bits the whole column would give them."""
        subset = Powers(self.x[rows])
        subset._table.update((e, p[rows] if isinstance(p, np.ndarray) else p)
                             for e, p in self._table.items())
        return subset


def _raise_out_of_range(x: np.ndarray, power: np.ndarray, e: int) -> None:
    """Raise what ``**`` raises at the first element of ``x`` whose power
    is infinite though the element is finite, if there is one."""
    out_of_range = np.isinf(power) & np.isfinite(x)
    if out_of_range.any():
        v = x.item(int(np.argmax(out_of_range)))
        if v == 0.0:
            raise ZeroDivisionError(
                f"{v!r} cannot be raised to a negative power")
        raise OverflowError(f"{v!r}**{e} is out of float range")


def _powers(x) -> Powers:
    """``x`` itself if it is a :class:`Powers` table, else a new one."""
    return x if isinstance(x, Powers) else Powers(x)


def poly_sum(polys, c1, s1, c2, s2):
    """The polynomials' values added left to right with ``+``."""
    total = polys[0].eval_cs(c1, s1, c2, s2)
    for poly in polys[1:]:
        total = total + poly.eval_cs(c1, s1, c2, s2)
    return total


@dataclass(frozen=True)
class TrigPolynomial:
    """Integer-coefficient polynomial in c1, s1, c2, s2, in source order."""

    name: str
    terms: tuple[TrigTerm, ...]
    repairs: tuple[tuple[int, str, int], ...] = ()

    @property
    def coefficient_mass(self) -> int:
        """Sum of |coeff|; bounds |value| over the whole circle."""
        return sum(abs(t[0]) for t in self.terms)

    @cached_property
    def _program(self) -> tuple:
        """The terms as :meth:`eval_cs` runs them: the coefficient as a
        float and the ``(variable, exponent)`` factors, in source order,
        without those of exponent 0. ``x**0`` is ``1.0`` for every float
        and a product with ``1.0`` is the other factor, so leaving them
        out changes no bit."""
        return tuple((float(coeff), tuple((i, e) for i, e in enumerate(exps)
                                          if e))
                     for coeff, *exps in self.terms)

    def eval_cs(self, c1, s1, c2, s2):
        """Value at cosines and sines c1, s1, c2, s2: floats, float64
        columns (elementwise), or their :class:`Powers` tables."""
        tables = (_powers(c1), _powers(s1), _powers(c2), _powers(s2))
        # A column total even where a term has no column factor: zeros
        # keep the bits, as 0.0 + x is the same for a column and a float.
        columns = [t.x for t in tables if isinstance(t.x, np.ndarray)]
        total = np.zeros(len(columns[0])) if columns else 0.0
        for term, factors in self._program:
            for i, e in factors:
                term = term * tables[i][e]
            total += term
        return total

    def __call__(self, a1: float, a2: float) -> float:
        """Value at angles (radians); valid on the whole circle."""
        return self.eval_cs(math.cos(a1), math.sin(a1),
                            math.cos(a2), math.sin(a2))

    def repair_annotations(self) -> list[str]:
        return [f"{self.name} term {idx}: {original!r} read as exponent {exponent}"
                for idx, original, exponent in self.repairs]


@dataclass(frozen=True)
class Prefactor:
    """Signed monomial ``sign * 2^pow2 * c1^e_c1 * c2^e_c2 * V^e_v * R0^e_r0``."""

    sign: int
    pow2: int = 0
    e_c1: int = 0
    e_c2: int = 0
    e_v: int = 0
    e_r0: int = 0

    def value(self, c1, c2):
        """Value at cosines c1, c2 (floats, float64 columns or their
        :class:`Powers` tables) and V = R0 = 1."""
        c1, c2 = _powers(c1), _powers(c2)
        return self.sign * 2.0**self.pow2 * c1[self.e_c1] * c2[self.e_c2]


#: The power p of k = V^2/R0 that each target goes as.
SCALE_POWERS = {"g11": 1, "g12": 1, "g22": 1, "det": 2, "curvature": -1}


@dataclass(frozen=True)
class PaperQuantity:
    """One tabulated quantity and which jet-engine value it claims to equal.

    ``target`` is one of the keys of :data:`SCALE_POWERS`.
    """

    id: str
    kind: FlowKind
    target: str
    prefactor: Prefactor
    numerators: tuple[TrigPolynomial, ...]
    denominators: tuple[TrigPolynomial, ...]
    notes: tuple[str, ...] = ()

    def residual(self, v: float, r0: float) -> float:
        """``V^(e_v - 2p) R0^(e_r0 + p)``: the table over k^p at (V, R0) is
        its value at V = R0 = 1 times this. An overflow names the quantity."""
        p = SCALE_POWERS[self.target]
        e_v, e_r0 = self.prefactor.e_v - 2 * p, self.prefactor.e_r0 + p
        try:
            return v**e_v * r0**e_r0
        except OverflowError:
            monomial = " ".join(f"{name}^{e}" for name, e
                                in (("V", e_v), ("R0", e_r0)) if e)
            raise ValueError(f"{self.id}: scale residual {monomial} "
                             f"overflows at V={v!r}, R0={r0!r}") from None

    def prefactor_value(self, c1, c2, v: float, r0: float):
        """The prefactor at V = R0 = 1 times :meth:`residual`."""
        return self.prefactor.value(c1, c2) * self.residual(v, r0)

    def denominator_mass(self) -> int:
        return sum(p.coefficient_mass for p in self.denominators)

    def repair_annotations(self) -> list[str]:
        out: list[str] = []
        for poly in self.numerators + self.denominators:
            out.extend(poly.repair_annotations())
        return out


def reconstruct_quantity(q: PaperQuantity, a1: float, a2: float,
                         v: float = 1.0, r0: float = 1.0) -> float:
    """The table at (V, R0) over k^p: its prefactor value times numerator
    sum over denominator sum at (a1, a2)."""
    c1, s1 = Powers(math.cos(a1)), Powers(math.sin(a1))
    c2, s2 = Powers(math.cos(a2)), Powers(math.sin(a2))
    num = poly_sum(q.numerators, c1, s1, c2, s2)
    den = poly_sum(q.denominators, c1, s1, c2, s2)
    if abs(den) <= DENOM_TOL * q.denominator_mass():
        raise DenominatorZero(
            f"{q.id}: denominator {den!r} vanishes at ({a1!r}, {a2!r})")
    return q.prefactor_value(c1, c2, v, r0) * num / den


def _poly(name: str, table_name: str) -> TrigPolynomial:
    return TrigPolynomial(
        name=name,
        terms=tuple(getattr(_tables, table_name)),
        repairs=tuple(_tables.EXPONENT_REPAIRS.get(table_name, ())))


def _metric(qid: str, kind: FlowKind, target: str, pf: Prefactor,
            base: str, notes: tuple[str, ...] = ()) -> PaperQuantity:
    return PaperQuantity(
        id=qid, kind=kind, target=target, prefactor=pf,
        numerators=(_poly(f"{qid}.num", base + "_NUM"),),
        denominators=(_poly(f"{qid}.den", base + "_DEN"),),
        notes=notes)


_NOTE_I12 = ("transcribed prefactor is 2*c1^2*c2^2; the Hessian cross term "
             "instead matches this table with prefactor 2*c1*c2")
_NOTE_DET_I = ("transcribed prefactor is -c1^3*c2^3; the Hessian determinant "
               "instead matches this table with prefactor -4*c1^2*c2^2")
_NOTE_CURV_R = ("transcribed prefactor varies as 1/(R0*V^2) while curvature "
                "of the defining Hessian scales as R0/V^2; the two differ by "
                "R0^2 and coincide exactly when R0 = 1")

QUANTITIES: tuple[PaperQuantity, ...] = (
    # real flow
    _metric("METRIC_R_11", FlowKind.REAL, "g11",
            Prefactor(+1, pow2=1, e_c2=3, e_v=2, e_r0=-1), "METRIC_R_11"),
    _metric("METRIC_R_12", FlowKind.REAL, "g12",
            Prefactor(-1, pow2=1, e_c1=2, e_c2=2, e_v=2, e_r0=-1), "METRIC_R_12"),
    _metric("METRIC_R_22", FlowKind.REAL, "g22",
            Prefactor(+1, pow2=1, e_c1=3, e_v=2, e_r0=-1), "METRIC_R_22"),
    _metric("DET_R", FlowKind.REAL, "det",
            Prefactor(+1, pow2=3, e_c1=3, e_c2=3, e_v=4, e_r0=-2), "DET_R"),
    PaperQuantity(
        id="CURV_R", kind=FlowKind.REAL, target="curvature",
        prefactor=Prefactor(+1, pow2=-2, e_c1=-2, e_c2=-2, e_v=-2, e_r0=-1),
        numerators=(_poly("CURV_R.num", "CURV_R_NUM"),),
        denominators=(_poly("CURV_R.den", "CURV_R_DEN"),),
        notes=(_NOTE_CURV_R,)),
    # imaginary flow
    _metric("METRIC_I_11", FlowKind.IMAGINARY, "g11",
            Prefactor(-1, pow2=1, e_c2=2, e_v=2, e_r0=-1), "METRIC_I_11"),
    _metric("METRIC_I_12", FlowKind.IMAGINARY, "g12",
            Prefactor(+1, pow2=1, e_c1=2, e_c2=2, e_v=2, e_r0=-1),
            "METRIC_I_12", notes=(_NOTE_I12,)),
    _metric("METRIC_I_22", FlowKind.IMAGINARY, "g22",
            Prefactor(-1, pow2=1, e_c1=2, e_v=2, e_r0=-1), "METRIC_I_22"),
    _metric("DET_I", FlowKind.IMAGINARY, "det",
            Prefactor(-1, pow2=0, e_c1=3, e_c2=3, e_v=4, e_r0=-2),
            "DET_I", notes=(_NOTE_DET_I,)),
    PaperQuantity(
        id="CURV_I", kind=FlowKind.IMAGINARY, target="curvature",
        prefactor=Prefactor(-1, pow2=-1, e_c1=-2, e_c2=-2, e_v=-2, e_r0=1),
        numerators=(_poly("CURV_I.num1", "CURV_I_NUM_1"),
                    _poly("CURV_I.num2", "CURV_I_NUM_2")),
        denominators=(_poly("CURV_I.den", "CURV_I_DEN"),)),
    # complex flow
    _metric("METRIC_C_11", FlowKind.COMPLEX, "g11",
            Prefactor(+1, pow2=1, e_c2=2, e_v=2, e_r0=-1), "METRIC_C_11"),
    _metric("METRIC_C_12", FlowKind.COMPLEX, "g12",
            Prefactor(-1, pow2=1, e_c1=1, e_c2=1, e_v=2, e_r0=-1), "METRIC_C_12"),
    _metric("METRIC_C_22", FlowKind.COMPLEX, "g22",
            Prefactor(+1, pow2=1, e_c1=2, e_v=2, e_r0=-1), "METRIC_C_22"),
    _metric("DET_C", FlowKind.COMPLEX, "det",
            Prefactor(-1, pow2=2, e_c1=2, e_c2=2, e_v=4, e_r0=-2), "DET_C"),
    PaperQuantity(
        id="CURV_C", kind=FlowKind.COMPLEX, target="curvature",
        prefactor=Prefactor(+1, pow2=-2, e_c1=-2, e_c2=-2, e_v=-2, e_r0=1),
        numerators=(_poly("CURV_C.num1", "CURV_C_NUM_1"),
                    _poly("CURV_C.num2", "CURV_C_NUM_2"),
                    _poly("CURV_C.num3", "CURV_C_NUM_3"),
                    _poly("CURV_C.num4", "CURV_C_NUM_4")),
        denominators=(_poly("CURV_C.den1", "CURV_C_DEN_1"),
                      _poly("CURV_C.den2", "CURV_C_DEN_2"),
                      _poly("CURV_C.den3", "CURV_C_DEN_3"))),
)

_BY_ID = {q.id: q for q in QUANTITIES}


def quantities_for(kind: FlowKind) -> tuple[PaperQuantity, ...]:
    """All tabulated quantities of one flow, in table order."""
    return tuple(q for q in QUANTITIES if q.kind is kind)


def quantity(qid: str) -> PaperQuantity:
    """Look one quantity up by id (e.g. ``METRIC_R_11``)."""
    try:
        return _BY_ID[qid]
    except KeyError:
        raise KeyError(f"unknown quantity id {qid!r}; "
                       f"known: {sorted(_BY_ID)}") from None
