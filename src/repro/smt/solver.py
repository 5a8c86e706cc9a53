"""The top-level SMT solver: lazy DPLL(T) over the CDCL core.

``check()`` runs the classic lazy loop: the SAT engine proposes a boolean
model; the conjunction of linear-arithmetic literals it asserts is checked
for integer feasibility; on theory conflict a clause blocking the core
the integer engine explains (see :mod:`repro.smt.intsolve`) is learned
and the search resumes.  Uninterpreted functions and arrays were already
reduced to arithmetic by Ackermann expansion in preprocessing, so a
single theory engine suffices.

This is the reproduction's substitute for STP (the solver used by the
paper's Otter symbolic executor).  The interface the mix rules need:

- :meth:`Solver.check` / :meth:`Solver.model`
- :func:`is_satisfiable` -- path-condition feasibility,
- :func:`is_valid` -- the ``exhaustive(g1, ..., gn)`` tautology check of
  rule TSymBlock (validity of the disjunction of path conditions).

The one-shot helpers route through the process-wide
:class:`repro.smt.service.SolverService`, which memoizes verdicts in a
normalized-key query cache (see that module) before falling back to a
:class:`Solver`.

**Incrementality.**  :meth:`Solver.push` / :meth:`Solver.pop` are genuine
assertion scopes: the preprocessor, the Tseitin builder, the CDCL solver,
and everything the CDCL core has learned persist across ``check()``
calls.  Each scope owns a *selector* literal; scoped assertions are
encoded as ``selector -> goal`` clauses and ``check()`` solves under the
assumption that every live selector holds.  ``pop()`` permanently
falsifies the scope's selector instead of rebuilding the solver, so

- Tseitin definitions of shared subformulas are encoded once,
- theory blocking clauses (valid lemmas about integer-infeasible atom
  conjunctions) survive and keep pruning later checks, and
- CDCL-learned clauses remain — they are implied by the clause database
  regardless of which selectors are active.

The theory check is restricted to atoms appearing in *live* assertions
(plus all definitional side conditions), so atoms from popped scopes do
not burden the integer engine.  ``push``/``pop``/``check`` sequences are
guaranteed to produce the same verdicts as a fresh solver over the same
live assertions (differentially tested in
``tests/test_smt_incremental.py``).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from enum import Enum, unique
from typing import Iterable, Optional

from repro.smt.cnf import CnfBuilder
from repro.smt.intsolve import IntBudgetExceeded, check_integer
from repro.smt.linear import LinAtom, atom_from_comparison
from repro.smt.preprocess import Preprocessor
from repro.smt.sat import SatSolver, SatTimeout
from repro.smt.terms import (
    BOOL,
    INT,
    FuncDecl,
    Kind,
    SortError,
    Term,
)


class SolverError(Exception):
    """The solver could not decide the query (budget or fragment limits)."""


@unique
class SatResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Model:
    """A satisfying assignment, evaluable on terms of the checked formula."""

    def __init__(
        self,
        bool_values: dict[Term, bool],
        int_values: dict[Term, int],
        app_instances: dict[FuncDecl, list[tuple[tuple[Term, ...], Term]]],
        select_decls: dict[Term, FuncDecl],
    ) -> None:
        self._bools = bool_values
        self._ints = int_values
        self._apps = app_instances
        self._select_decls = select_decls
        # The model is immutable, so evaluation memoizes per term: the
        # paranoid self-check and the model-eval cache tier walk large
        # conjunct sets whose subterms are heavily shared.
        self._memo: dict[Term, object] = {}

    def satisfies(self, terms) -> bool:
        """True iff every term in ``terms`` evaluates to ``True`` here.

        Models are total interpretations (unassigned variables default to
        0 / false), so this is a complete check: it is the primitive both
        the model-eval cache tier and the service's paranoid self-check
        are built on.
        """
        try:
            return all(self.eval(term) is True for term in terms)
        except SortError:
            return False

    def eval(self, term: Term) -> object:
        """Evaluate ``term`` under this model (booleans and integers)."""
        kind = term.kind
        if kind in (Kind.CONST_BOOL, Kind.CONST_INT):
            return term.payload
        if kind is Kind.VAR:
            if term.sort == BOOL:
                return self._bools.get(term, False)
            if term.sort == INT:
                return self._ints.get(term, 0)
            raise SortError(f"cannot evaluate variable of sort {term.sort}")
        cached = self._memo.get(term)
        if cached is not None:
            return cached
        value = self._eval_composite(term, kind)
        self._memo[term] = value
        return value

    def _eval_composite(self, term: Term, kind: Kind) -> object:
        if kind is Kind.NOT:
            return not self.eval(term.args[0])
        if kind is Kind.AND:
            return all(self.eval(a) for a in term.args)
        if kind is Kind.OR:
            return any(self.eval(a) for a in term.args)
        if kind is Kind.IMPLIES:
            return (not self.eval(term.args[0])) or self.eval(term.args[1])
        if kind is Kind.IFF:
            return self.eval(term.args[0]) == self.eval(term.args[1])
        if kind is Kind.ITE:
            return self.eval(term.args[1] if self.eval(term.args[0]) else term.args[2])
        if kind is Kind.EQ:
            return self._eval_eq(term.args[0], term.args[1])
        if kind is Kind.DISTINCT:
            values = [self._eval_value(a) for a in term.args]
            return len(set(values)) == len(values)
        if kind is Kind.LE:
            return self.eval(term.args[0]) <= self.eval(term.args[1])  # type: ignore[operator]
        if kind is Kind.LT:
            return self.eval(term.args[0]) < self.eval(term.args[1])  # type: ignore[operator]
        if kind is Kind.ADD:
            return sum(self.eval(a) for a in term.args)  # type: ignore[misc]
        if kind is Kind.MUL:
            return self.eval(term.args[0]) * self.eval(term.args[1])  # type: ignore[operator]
        if kind is Kind.NEG:
            return -self.eval(term.args[0])  # type: ignore[operator]
        if kind is Kind.SELECT:
            return self._eval_select(term.args[0], term.args[1])
        if kind is Kind.APPLY:
            return self._eval_apply(term.payload, term.args)  # type: ignore[arg-type]
        raise SortError(f"cannot evaluate term {term}")

    def _eval_eq(self, left: Term, right: Term) -> bool:
        if left.sort.is_array:
            raise SortError("cannot evaluate array equality")
        return self._eval_value(left) == self._eval_value(right)

    def _eval_value(self, term: Term) -> object:
        return self.eval(term)

    def _eval_select(self, array: Term, index: Term) -> object:
        index_value = self.eval(index)
        while array.kind is Kind.STORE:
            base, written_index, written_value = array.args
            if self.eval(written_index) == index_value:
                return self.eval(written_value)
            array = base
        if array.kind is Kind.ITE:
            cond = self.eval(array.args[0])
            chosen = array.args[1] if cond else array.args[2]
            return self._eval_select(chosen, index)
        if array.kind is not Kind.VAR:
            raise SortError(f"cannot evaluate select from {array}")
        decl = self._select_decls.get(array)
        if decl is None:
            return 0 if array.sort.elem_sort == INT else False
        return self._lookup_app(decl, (index_value,))

    def _eval_apply(self, decl: FuncDecl, args: tuple[Term, ...]) -> object:
        return self._lookup_app(decl, tuple(self.eval(a) for a in args))

    def _lookup_app(self, decl: FuncDecl, arg_values: tuple[object, ...]) -> object:
        for instance_args, result_var in self._apps.get(decl, []):
            if tuple(self.eval(a) for a in instance_args) == arg_values:
                return self.eval(result_var)
        return 0 if decl.ret_sort == INT else False

    def as_dict(self) -> dict[str, object]:
        """A name -> value snapshot of all assigned variables."""
        out: dict[str, object] = {}
        for term, value in self._bools.items():
            out[str(term.payload)] = value
        for term, value in self._ints.items():
            out[str(term.payload)] = value
        return out


#: Process-wide memo of :func:`_theory_atoms` (a pure function of the
#: hash-consed term; terms are never freed).
_GOAL_ATOMS: dict[Term, tuple[LinAtom, ...]] = {}


def _theory_atoms(term: Term) -> tuple[LinAtom, ...]:
    """The theory atoms syntactically inside ``term``, each once, in the
    order a depth-first walk meets them."""
    atoms = _GOAL_ATOMS.get(term)
    if atoms is None:
        found: dict[LinAtom, None] = {}
        stack = [term]
        seen: set[int] = set()
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.kind is Kind.LE or t.kind is Kind.LT:
                found[atom_from_comparison(t.kind, t.args[0], t.args[1])] = None
                continue
            stack.extend(t.args)
        atoms = _GOAL_ATOMS[term] = tuple(found)
    return atoms


class Solver:
    """An SMT solver instance with *incremental* assertion-stack semantics.

    One :class:`Preprocessor` / :class:`CnfBuilder` / :class:`SatSolver`
    triple lives for the whole solver lifetime.  Assertions are encoded
    exactly once; ``check()`` only encodes the delta since the previous
    call and then solves under the live scope selectors (see the module
    docstring for the scheme).
    """

    #: Cap on theory-conflict iterations of the lazy loop per ``check``.
    max_theory_rounds = 10_000

    def __init__(self, int_budget: int = 4000, deadline: Optional[float] = None) -> None:
        self._assertions: list[Term] = []
        self._scopes: list[int] = []
        self._model: Optional[Model] = None
        self._int_budget = int_budget
        #: Absolute :func:`time.monotonic` instant checks must stop at
        #: (the resource governor's per-query deadline); None = unbounded.
        self.deadline = deadline
        #: True iff the most recent ``check()`` returned UNKNOWN because
        #: it hit ``deadline`` (as opposed to a budget/round limit).
        self.timed_out = False
        self.stats = {
            "checks": 0,
            "theory_rounds": 0,
            "sat_conflicts": 0,
            "sat_restarts": 0,
        }
        # Persistent engine state (created lazily on first check).
        self._pre: Optional[Preprocessor] = None
        self._sat: Optional[SatSolver] = None
        self._cnf: Optional[CnfBuilder] = None
        #: How many of ``_assertions`` have been encoded into the CNF.
        self._enc_index = 0
        #: Selector literal per scope (parallel to ``_scopes``); allocated
        #: lazily when the scope's first assertion is encoded.
        self._scope_sels: list[Optional[int]] = []
        #: Per encoded assertion: the SAT vars of its theory atoms.
        self._goal_atoms: list[frozenset[int]] = []
        #: SAT vars of atoms in definitional side conditions (kept live
        #: forever — Ackermann/ite definitions may span scopes).
        self._side_atoms: set[int] = set()

    # -- assertion stack -------------------------------------------------------

    def add(self, *assertions: Term) -> None:
        for a in assertions:
            if a.sort != BOOL:
                raise SortError(f"assertions must be boolean, got {a.sort}")
            self._assertions.append(a)

    def push(self) -> None:
        self._scopes.append(len(self._assertions))
        self._scope_sels.append(None)

    def pop(self) -> None:
        if not self._scopes:
            raise SolverError("pop without matching push")
        del self._assertions[self._scopes.pop() :]
        sel = self._scope_sels.pop()
        if sel is not None and self._sat is not None:
            # Permanently retract the scope: its selector can never hold
            # again, so its guarded clauses are vacuously satisfied.
            self._sat.add_clause([-sel])
        self._enc_index = min(self._enc_index, len(self._assertions))
        del self._goal_atoms[len(self._assertions) :]

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    # -- encoding --------------------------------------------------------------

    def _engine(self) -> tuple[Preprocessor, SatSolver, CnfBuilder]:
        if self._sat is None:
            self._pre = Preprocessor()
            self._sat = SatSolver()
            self._cnf = CnfBuilder(self._sat)
        assert self._pre is not None and self._cnf is not None
        return self._pre, self._sat, self._cnf

    def _selector_for_scope(self, scope: int) -> int:
        """The (lazily allocated) selector literal of 1-based ``scope``."""
        sel = self._scope_sels[scope - 1]
        if sel is None:
            sel = self._engine()[1].new_var()
            self._scope_sels[scope - 1] = sel
        return sel

    def _collect_atom_vars(self, term: Term, cnf: CnfBuilder) -> set[int]:
        """SAT vars of the theory atoms syntactically inside ``term``,
        added in traversal order (the set's iteration order, and with it
        the theory check's atom order, depends on it)."""
        out: set[int] = set()
        for atom in _theory_atoms(term):
            v = cnf.atom_to_var.get(atom)
            if v is not None:
                out.add(v)
        return out

    def _encode_pending(self) -> None:
        """Encode assertions added since the last ``check()``."""
        pre, sat, cnf = self._engine()
        for index in range(self._enc_index, len(self._assertions)):
            processed = pre.process(self._assertions[index])
            lit = cnf.encode(processed.goal)
            scope = bisect_right(self._scopes, index)
            if scope == 0:
                sat.add_clause([lit])  # base scope: never retracted
            else:
                sat.add_clause([-self._selector_for_scope(scope), lit])
            self._goal_atoms.append(
                frozenset(self._collect_atom_vars(processed.goal, cnf))
            )
            for side in processed.side_conditions:
                cnf.add_assertion(side)  # definitional: sound unconditionally
                self._side_atoms |= self._collect_atom_vars(side, cnf)
        self._enc_index = len(self._assertions)

    # -- solving ---------------------------------------------------------------

    def check(self, *extra: Term) -> SatResult:
        """Decide satisfiability of the asserted formulas plus ``extra``.

        With a ``deadline`` set, the lazy loop (and the CDCL search
        inside it) polls the clock; hitting the deadline yields
        ``UNKNOWN`` with ``timed_out`` set — never a wrong verdict.
        """
        self.stats["checks"] += 1
        self._model = None
        self.timed_out = False
        pre, sat, cnf = self._engine()
        self._encode_pending()

        relevant: set[int] = set(self._side_atoms)
        for atoms in self._goal_atoms:
            relevant |= atoms

        assumptions: list[int] = [s for s in self._scope_sels if s is not None]
        temp_sel: Optional[int] = None
        if extra:
            temp_sel = sat.new_var()
            assumptions.append(temp_sel)
            for formula in extra:
                processed = pre.process(formula)
                lit = cnf.encode(processed.goal)
                sat.add_clause([-temp_sel, lit])
                relevant |= self._collect_atom_vars(processed.goal, cnf)
                for side in processed.side_conditions:
                    cnf.add_assertion(side)
                    atom_vars = self._collect_atom_vars(side, cnf)
                    self._side_atoms |= atom_vars
                    relevant |= atom_vars

        try:
            for _ in range(self.max_theory_rounds):
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    self.timed_out = True
                    return SatResult.UNKNOWN
                try:
                    bool_model = sat.solve(assumptions, deadline=self.deadline)
                except SatTimeout:
                    self.timed_out = True
                    return SatResult.UNKNOWN
                self.stats["sat_conflicts"] = sat.num_conflicts
                self.stats["sat_restarts"] = sat.num_restarts
                if bool_model is None:
                    return SatResult.UNSAT
                asserted: list[tuple[int, LinAtom]] = []
                for sat_var in relevant:
                    atom = cnf.var_to_atom.get(sat_var)
                    if not isinstance(atom, LinAtom):
                        continue
                    value = bool_model[sat_var]
                    literal = sat_var if value else -sat_var
                    asserted.append((literal, atom if value else atom.negate()))
                try:
                    result = check_integer(
                        [a for _, a in asserted], budget=self._int_budget
                    )
                except IntBudgetExceeded:
                    return SatResult.UNKNOWN
                if result.feasible:
                    self._model = self._build_model(cnf, pre, bool_model, result.model)
                    return SatResult.SAT
                self.stats["theory_rounds"] += 1
                # Theory lemma: the explained core has no integer model.
                # Globally valid, so it survives pops and future checks.
                sat.add_clause([-asserted[i][0] for i in sorted(result.core)])
            return SatResult.UNKNOWN
        finally:
            if temp_sel is not None:
                sat.add_clause([-temp_sel])

    def _build_model(
        self,
        cnf: CnfBuilder,
        pre: Preprocessor,
        bool_model: dict[int, bool],
        int_model: dict[object, int],
    ) -> Model:
        bools: dict[Term, bool] = {}
        for atom, sat_var in cnf.atom_to_var.items():
            if isinstance(atom, Term):
                bools[atom] = bool_model[sat_var]
        ints: dict[Term, int] = {}
        for key, value in int_model.items():
            if isinstance(key, Term):
                ints[key] = value
        return Model(bools, ints, dict(pre._applications), dict(pre._select_decls))

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() is only available after a SAT check")
        return self._model


# ---------------------------------------------------------------------------
# One-shot helpers
# ---------------------------------------------------------------------------


def is_satisfiable(*formulas: Term) -> bool:
    """True iff the conjunction of ``formulas`` has a model.

    Routed through the process-wide :class:`repro.smt.service.SolverService`
    (query cache, then a fresh :class:`Solver` per full solve).  Raises
    :class:`SolverError` if the solver cannot decide the query.
    """
    from repro.smt.service import get_service

    return get_service().is_satisfiable(*formulas)


def is_valid(formula: Term, assuming: Iterable[Term] = ()) -> bool:
    """True iff ``formula`` holds in every model of ``assuming``.

    This implements the paper's ``exhaustive(g1, ..., gn)`` check: the
    disjunction of path conditions is a tautology iff its negation is
    unsatisfiable.  Routed through the process-wide solver service.
    """
    from repro.smt.service import get_service

    return get_service().is_valid(formula, assuming=assuming)
