"""Integer feasibility for conjunctions of linear atoms.

Strategy: gcd-tightened atoms (see :mod:`repro.smt.linear`) + exact
rational simplex + branch-and-bound on fractional variables (branch
bounds are ``int``, like every integral value in the simplex).  Tightening
already refutes the classic divisibility traps (e.g. ``3x - 3y = 1``);
branch-and-bound resolves the rest of the population MIX generates.

Branch-and-bound over unbounded polyhedra is not a decision procedure for
full linear integer arithmetic, so the search carries a budget; exhausting
it raises :class:`IntBudgetExceeded` and the top-level solver reports
``UNKNOWN`` rather than guessing.  None of the formulas produced by the
analyses in this repository come close to the budget.

**Cores.**  An infeasible :class:`IntResult` names the input atoms that
refute it (``core``, positions in the ``atoms`` argument), so the lazy
loop can block exactly those without a minimization search:

- refuted at the root: the simplex explanation (see
  :mod:`repro.smt.simplex`);
- refuted by branch-and-bound: the union of every leaf's explanation,
  with the branch bounds dropped.  This is sound over the integers
  because each branch ``x <= floor(v)  or  x >= ceil(v)`` is valid, so
  the atoms behind the leaves' refutations are infeasible without the
  branch bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Hashable, Optional, Sequence

from repro.smt.linear import LinAtom
from repro.smt.simplex import Rational, check_rational


class IntBudgetExceeded(Exception):
    """Branch-and-bound ran out of budget; feasibility is unknown."""


@dataclass
class IntResult:
    feasible: bool
    model: dict[Hashable, int]
    #: When infeasible: positions of input atoms that are infeasible alone.
    core: frozenset[int] = frozenset()


Bounds = dict[Hashable, tuple[Optional[Rational], Optional[Rational]]]


def check_integer(atoms: Sequence[LinAtom], budget: int = 4000) -> IntResult:
    """Decide integer feasibility of the conjunction of ``atoms``."""
    for index, atom in enumerate(atoms):
        if atom.is_trivially_false:
            return IntResult(False, {}, frozenset((index,)))
    return _branch(atoms, {}, _Budget(budget))


class _Budget:
    def __init__(self, remaining: int) -> None:
        self.remaining = remaining

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise IntBudgetExceeded()


def _branch(atoms: Sequence[LinAtom], bounds: Bounds, budget: _Budget) -> IntResult:
    # Depth-first with an explicit stack: branch chains can run hundreds
    # of cuts deep on wide integer ranges, which would blow the Python
    # recursion limit long before the search budget.
    stack: list[Bounds] = [bounds]
    core: set[int] = set()
    while stack:
        bounds = stack.pop()
        budget.spend()
        result = check_rational(atoms, bounds)
        if not result.feasible:
            core |= result.core
            continue
        fractional = _pick_fractional(result.assignment)
        if fractional is None:
            model = {
                v: int(value)
                for v, value in result.assignment.items()
                if not isinstance(v, tuple)  # drop internal slack variables
            }
            return IntResult(True, model)
        v, value = fractional
        lo, hi = bounds.get(v, (None, None))
        down = dict(bounds)
        down[v] = (lo, floor(value))
        up = dict(bounds)
        up[v] = (ceil(value), hi)
        stack.append(up)
        stack.append(down)  # LIFO: the down branch is explored first
    return IntResult(False, {}, frozenset(core))


def _pick_fractional(
    assignment: dict[Hashable, Rational]
) -> Optional[tuple[Hashable, Rational]]:
    for v, value in assignment.items():
        if isinstance(v, tuple):
            continue  # slack or internal variables need not be integral
        if value.denominator != 1:
            return v, value
    return None
