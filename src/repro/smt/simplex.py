"""Exact rational simplex for feasibility of conjunctions of linear atoms.

This is the "general simplex" of Dutertre and de Moura (the algorithm used
inside most SMT solvers, including the paper's STP-era contemporaries):
every input row ``e <= k`` introduces a slack variable ``s = e`` with upper
bound ``k``; the tableau expresses basic variables over non-basic ones; a
pivoting loop with Bland's rule repairs bound violations and either reaches
a feasible assignment or proves infeasibility.  A pivot moves each
dependent basic variable by ``coeff * theta`` instead of re-evaluating its
row.

**Explanations.**  Every bound remembers the input atom that set it (its
*provenance*: the atom's index, or ``None`` for a bound added through
:meth:`Simplex.set_bounds`).  An infeasible result carries the indices of
the atoms behind the bounds that refute it, read off where infeasibility
is found:

- a variable whose lower bound exceeds its upper bound: the two atoms that
  set them;
- a basic variable whose violated bound no non-basic variable of its row
  can repair: the atom behind that bound, plus the atoms behind the bound
  each non-basic variable sits at.  The row is a linear combination of the
  input rows, so these bounds alone are contradictory (a Farkas
  certificate).

**Exact, ints while integral.**  All arithmetic is exact, so the
verdicts are sound — there is no floating-point drift.  Coefficients,
bounds and assignments stay Python ``int`` while they are integral, the
common case on the formulas the analyses produce; a
:class:`fractions.Fraction` appears only for a division that does not come
out even, and any result with denominator 1 is turned back into an
``int`` (:func:`_norm`).  An ``int`` and the equal ``Fraction`` compare,
add and multiply alike, so pivot choices, cores and assignments are the
same as with ``Fraction`` everywhere; only the constructions go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Union

from repro.smt.linear import LinAtom

#: An exact rational: an ``int`` while integral, else a ``Fraction``.
Rational = Union[int, Fraction]

#: A bound: its value and the index of the atom that set it (None when it
#: came from :meth:`Simplex.set_bounds`).
Bound = tuple[Rational, Optional[int]]


def _norm(value: Rational) -> Rational:
    """``value`` as an ``int`` if it is integral (a ``Fraction`` with
    denominator 1 becomes its numerator)."""
    if type(value) is int or value.denominator != 1:
        return value
    return value.numerator


def _div(a: Rational, b: Rational) -> Rational:
    """Exact ``a / b``: an ``int`` when it divides evenly."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        return Fraction(a, b) if remainder else quotient
    return _norm(a / b)


@dataclass
class SimplexResult:
    feasible: bool
    assignment: dict[Hashable, Rational] = field(default_factory=dict)
    #: When infeasible: indices of input atoms whose bounds alone are
    #: infeasible (bounds from ``set_bounds`` are left out).
    core: frozenset[int] = frozenset()


class Simplex:
    """Feasibility checker over rationals with per-variable bounds."""

    def __init__(self) -> None:
        # Tableau: rows[basic] = {nonbasic: coeff}; basic = sum(coeff * nb).
        self._rows: dict[Hashable, dict[Hashable, Rational]] = {}
        self._assignment: dict[Hashable, Rational] = {}
        self._lower: dict[Hashable, Bound] = {}
        self._upper: dict[Hashable, Bound] = {}
        self._slack_index: dict[tuple[tuple[Hashable, int], ...], Hashable] = {}
        #: Registration order; Bland's rule picks variables in this order.
        self._order: dict[Hashable, int] = {}

    # -- construction --------------------------------------------------------

    def _register(self, v: Hashable) -> None:
        if v not in self._order:
            self._order[v] = len(self._order)
            self._assignment.setdefault(v, 0)

    def add_atom(self, atom: LinAtom, why: Optional[int] = None) -> None:
        """Assert ``atom`` (``sum coeffs <= constant``); ``why`` is the
        index reported in cores for the bounds it sets."""
        if not atom.coeffs:
            if atom.constant < 0:
                # Trivially false row: encode as 0 <= -1 via an impossible
                # bound on a dedicated variable.
                v = ("__false__",)
                self._register(v)
                self._set_upper(v, -1, why)
                self._set_lower(v, 0, why)
            return
        if len(atom.coeffs) == 1:
            ((v, c),) = atom.coeffs
            self._register(v)
            bound = _div(atom.constant, c)
            if c > 0:
                self._set_upper(v, bound, why)
            else:
                self._set_lower(v, bound, why)
            return
        key = atom.coeffs
        slack = self._slack_index.get(key)
        if slack is None:
            slack = ("__slack__", len(self._slack_index))
            self._slack_index[key] = slack
            self._register(slack)
            row: dict[Hashable, Rational] = {}
            for v, c in atom.coeffs:
                self._register(v)
                row[v] = c
            self._rows[slack] = row
            self._assignment[slack] = _norm(
                sum(c * self._assignment[v] for v, c in row.items())
            )
        self._set_upper(slack, atom.constant, why)

    def _set_upper(self, v: Hashable, bound: Rational, why: Optional[int]) -> None:
        current = self._upper.get(v)
        if current is None or bound < current[0]:
            self._upper[v] = (bound, why)

    def _set_lower(self, v: Hashable, bound: Rational, why: Optional[int]) -> None:
        current = self._lower.get(v)
        if current is None or bound > current[0]:
            self._lower[v] = (bound, why)

    def set_bounds(
        self, v: Hashable, lower: Optional[Rational], upper: Optional[Rational]
    ) -> None:
        """Externally constrain a variable (used by branch-and-bound)."""
        self._register(v)
        if lower is not None:
            self._set_lower(v, _norm(lower), None)
        if upper is not None:
            self._set_upper(v, _norm(upper), None)

    # -- solving --------------------------------------------------------------

    def check(self) -> SimplexResult:
        """Decide feasibility of all asserted rows and bounds."""
        # Immediately contradictory bounds are infeasible regardless of the
        # tableau, and catching them here keeps the pivot loop cycle-free.
        for v in self._order:
            lo, hi = self._lower.get(v), self._upper.get(v)
            if lo is not None and hi is not None and lo[0] > hi[0]:
                return SimplexResult(False, core=_explain((lo, hi)))
        # Ensure non-basic variables sit within their own bounds.
        for v in list(self._order):
            if v in self._rows:
                continue
            value = self._assignment[v]
            lo, hi = self._lower.get(v), self._upper.get(v)
            if lo is not None and value < lo[0]:
                self._update_nonbasic(v, lo[0])
            elif hi is not None and value > hi[0]:
                self._update_nonbasic(v, hi[0])
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return SimplexResult(True, dict(self._assignment))
            basic, need_increase = violated
            pivot = self._find_pivot(basic, need_increase)
            if pivot is None:
                core = self._explain_row(basic, need_increase)
                return SimplexResult(False, core=core)
            target = (
                self._lower[basic] if need_increase else self._upper[basic]
            )[0]
            self._pivot_and_update(basic, pivot, target)

    def _find_violated_basic(self) -> Optional[tuple[Hashable, bool]]:
        candidates = sorted(self._rows, key=self._order.__getitem__)
        for basic in candidates:
            value = self._assignment[basic]
            lo = self._lower.get(basic)
            if lo is not None and value < lo[0]:
                return basic, True
            hi = self._upper.get(basic)
            if hi is not None and value > hi[0]:
                return basic, False
        return None

    def _find_pivot(self, basic: Hashable, need_increase: bool) -> Optional[Hashable]:
        row = self._rows[basic]
        for nonbasic in sorted(row, key=self._order.__getitem__):  # Bland's rule
            coeff = row[nonbasic]
            if not coeff:
                continue
            up = (coeff > 0) == need_increase  # must nonbasic increase?
            bound = (self._upper if up else self._lower).get(nonbasic)
            value = self._assignment[nonbasic]
            if bound is None or (value < bound[0] if up else value > bound[0]):
                return nonbasic
        return None

    def _explain_row(self, basic: Hashable, need_increase: bool) -> frozenset[int]:
        """The atoms refuting ``basic``'s row when no pivot can repair it:
        its violated bound, and the bound each non-basic variable sits at
        (the one :meth:`_find_pivot` found blocking)."""
        bounds = [(self._lower if need_increase else self._upper)[basic]]
        for nonbasic, coeff in self._rows[basic].items():
            if coeff:
                up = (coeff > 0) == need_increase
                bounds.append((self._upper if up else self._lower)[nonbasic])
        return _explain(bounds)

    def _update_nonbasic(self, v: Hashable, value: Rational) -> None:
        assignment = self._assignment
        delta = value - assignment[v]
        if delta == 0:
            return
        assignment[v] = value
        for basic, row in self._rows.items():
            coeff = row.get(v)
            if coeff:
                assignment[basic] = _norm(assignment[basic] + coeff * delta)

    def _pivot_and_update(
        self, basic: Hashable, nonbasic: Hashable, target: Rational
    ) -> None:
        assignment = self._assignment
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        # Moving ``nonbasic`` by theta drives ``basic`` to its target.
        theta = _div(target - assignment[basic], coeff)
        assignment[basic] = target
        assignment[nonbasic] = _norm(assignment[nonbasic] + theta)
        # basic = coeff * nonbasic + rest  =>  nonbasic = (basic - rest)/coeff
        new_row: dict[Hashable, Rational] = {basic: _div(1, coeff)}
        for v, c in row.items():
            new_row[v] = _div(-c, coeff)
        # Substitute into every other row; each row that mentioned
        # ``nonbasic`` with coefficient c moves by c * theta.
        for other, other_row in self._rows.items():
            c = other_row.pop(nonbasic, None)
            if c:
                assignment[other] = _norm(assignment[other] + c * theta)
                for v, nc in new_row.items():
                    updated = _norm(other_row.get(v, 0) + c * nc)
                    if updated:
                        other_row[v] = updated
                    else:
                        other_row.pop(v, None)
        self._rows[nonbasic] = new_row


def _explain(bounds: Iterable[Bound]) -> frozenset[int]:
    return frozenset(why for _, why in bounds if why is not None)


def check_rational(
    atoms: Iterable[LinAtom],
    bounds: Optional[dict[Hashable, tuple[Optional[Rational], Optional[Rational]]]] = None,
) -> SimplexResult:
    """One-shot rational feasibility of a conjunction of atoms; a core
    holds positions in ``atoms``."""
    simplex = Simplex()
    for index, atom in enumerate(atoms):
        simplex.add_atom(atom, index)
    if bounds:
        for v, (lo, hi) in bounds.items():
            simplex.set_bounds(v, lo, hi)
    return simplex.check()
