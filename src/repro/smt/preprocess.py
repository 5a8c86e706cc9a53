"""Formula preprocessing: reduce arbitrary terms to the solver core.

The core fragment handled by CNF conversion and the theory engine is:

- boolean structure (``not/and/or/implies/iff/ite``) over
- boolean variables and linear integer comparisons (``<=``, ``<``).

This module rewrites everything else into that fragment:

- array ``select``/``store`` chains: read-over-write rewriting happens in
  :mod:`repro.smt.simplify`; selects from *base* array variables become
  uninterpreted applications and are then Ackermann-expanded;
- uninterpreted function applications: Ackermann expansion — each
  application becomes a fresh variable, with congruence side conditions
  ``args1 = args2  ==>  v1 = v2`` for every pair of same-symbol
  applications;
- non-boolean ``ite``: a fresh variable plus two guarded definitions;
- integer equality: ``a = b  ==>  a <= b  and  b <= a``;
- boolean equality: ``iff``; ``distinct``: pairwise negated equality.

Fresh variables are written into the reserved ``$`` namespace; user code
must not create variables whose names start with ``$``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.smt.simplify import simplify
from repro.smt.terms import (
    BOOL,
    INT,
    FuncDecl,
    Kind,
    Sort,
    SortError,
    Term,
    and_,
    eq,
    iff,
    implies,
    ite,
    le,
    not_,
    or_,
    var,
)


class UnsupportedTermError(SortError):
    """The formula leaves the fragment this solver decides."""


@dataclass
class Preprocessed:
    """The rewritten goal plus side conditions (all in the core fragment)."""

    goal: Term
    side_conditions: list[Term] = field(default_factory=list)

    def conjoined(self) -> Term:
        return and_(self.goal, *self.side_conditions)


#: Process-wide memo: assertion -> goal, for assertions whose simplified
#: form is pure (:func:`is_pure`).  Such a goal is a function of the
#: hash-consed term alone and has no side conditions, so every solver can
#: share it.  Terms are never freed, so the memo keeps nothing alive that
#: would otherwise be; concurrent threads can at worst both compute an
#: entry, and they store the same term.
_PURE_GOALS: dict[Term, Term] = {}
#: Process-wide memo of :func:`is_pure`.
_PURITY: dict[Term, bool] = {}

_STATEFUL_KINDS = (Kind.SELECT, Kind.STORE, Kind.APPLY)


def is_pure(term: Term) -> bool:
    """True iff rewriting ``term`` touches no :class:`Preprocessor` state:
    it contains no ``select``, ``store`` or application and no ``ite`` at
    a non-Bool sort, so it needs no fresh variable, no Ackermann instance
    and no side condition.  Decided by the term's syntax alone."""
    pure = _PURITY.get(term)
    if pure is None:
        kind = term.kind
        if kind in _STATEFUL_KINDS or (kind is Kind.ITE and term.sort != BOOL):
            pure = False
        else:
            pure = all(is_pure(a) for a in term.args)
        _PURITY[term] = pure
    return pure


class Preprocessor:
    """Stateful rewriter; one instance per :class:`~repro.smt.solver.Solver`.

    State is shared across the assertions of one solver so that Ackermann
    congruence constraints relate applications from *different*
    assertions.  Only *stateful* assertions need it: an assertion whose
    simplified form is pure (:func:`is_pure`) is rewritten once per
    process, and every later :meth:`process` of it, in any solver, reads
    the goal from a process-wide memo.
    """

    def __init__(self) -> None:
        self._memo: dict[Term, Term] = {}
        self._fresh_counter = 0
        self._side_conditions: list[Term] = []
        # FuncDecl -> list of (arg terms, result variable)
        self._applications: dict[FuncDecl, list[tuple[tuple[Term, ...], Term]]] = {}
        self._select_decls: dict[Term, FuncDecl] = {}

    def process(self, assertion: Term) -> Preprocessed:
        goal = _PURE_GOALS.get(assertion)
        if goal is not None:
            return Preprocessed(goal)
        if assertion.sort != BOOL:
            raise SortError(f"assertions must be boolean, got {assertion.sort}")
        simplified = simplify(assertion)
        if is_pure(simplified):
            goal = _PURE_GOALS[assertion] = simplify(self._rewrite(simplified))
            return Preprocessed(goal)
        goal = self._rewrite(simplified)
        side = self._side_conditions
        self._side_conditions = []
        return Preprocessed(simplify(goal), [simplify(s) for s in side])

    # -- helpers ---------------------------------------------------------------

    def _fresh(self, prefix: str, sort: Sort) -> Term:
        self._fresh_counter += 1
        return var(f"${prefix}{self._fresh_counter}", sort)

    def _defer(self, condition: Term) -> None:
        self._side_conditions.append(condition)

    # -- rewriting ---------------------------------------------------------------

    def _rewrite(self, term: Term) -> Term:
        cached = self._memo.get(term)
        if cached is not None:
            return cached
        result = self._rewrite_uncached(term)
        self._memo[term] = result
        return result

    def _rewrite_uncached(self, term: Term) -> Term:
        kind = term.kind

        if kind in (Kind.CONST_BOOL, Kind.CONST_INT):
            return term
        if kind is Kind.VAR:
            if term.sort.is_array:
                return term  # handled at the enclosing select
            if term.sort not in (BOOL, INT):
                raise UnsupportedTermError(
                    f"free sort {term.sort} is not supported; encode it as Int"
                )
            return term

        if kind is Kind.SELECT:
            return self._rewrite_select(term)
        if kind is Kind.STORE:
            raise UnsupportedTermError(
                "store must appear under a select (it has array sort); "
                "array-valued results are not supported"
            )
        if kind is Kind.APPLY:
            args = tuple(self._rewrite(a) for a in term.args)
            return self._ackermannize(term.payload, args)  # type: ignore[arg-type]

        if kind is Kind.ITE:
            return self._rewrite_ite(term)

        if kind is Kind.EQ:
            return self._rewrite_eq(term.args[0], term.args[1])

        if kind is Kind.DISTINCT:
            pairs = []
            args = term.args
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    pairs.append(not_(self._rewrite_eq(args[i], args[j])))
            return and_(*pairs)

        # Structural kinds: rewrite children, keep the operator.
        args = tuple(self._rewrite(a) for a in term.args)
        if kind is Kind.NOT:
            return not_(args[0])
        if kind is Kind.AND:
            return and_(*args)
        if kind is Kind.OR:
            return or_(*args)
        if kind is Kind.IMPLIES:
            return implies(args[0], args[1])
        if kind is Kind.IFF:
            return iff(args[0], args[1])
        if kind in (Kind.LE, Kind.LT):
            from repro.smt.terms import lt as _lt

            return le(args[0], args[1]) if kind is Kind.LE else _lt(args[0], args[1])
        if kind in (Kind.ADD, Kind.MUL, Kind.NEG):
            from repro.smt.terms import add, mul, neg

            if kind is Kind.ADD:
                return add(*args)
            if kind is Kind.MUL:
                return mul(args[0], args[1])
            return neg(args[0])
        raise UnsupportedTermError(f"unsupported term kind {kind.value}: {term}")

    def _rewrite_select(self, term: Term) -> Term:
        array, index = term.args
        array = simplify(array)
        if array.kind is Kind.ITE:
            cond, then, els = array.args
            from repro.smt.terms import select as _select

            pushed = ite(cond, _select(then, index), _select(els, index))
            return self._rewrite(pushed)
        if array.kind is Kind.STORE:
            # simplify() rewrites read-over-write; re-run it on this node.
            from repro.smt.terms import select as _select

            return self._rewrite(simplify(_select(array, index)))
        if array.kind is not Kind.VAR:
            raise UnsupportedTermError(f"unsupported array term: {array}")
        decl = self._select_decls.get(array)
        if decl is None:
            decl = FuncDecl(
                f"$sel_{array.payload}", (array.sort.index_sort,), array.sort.elem_sort
            )
            self._select_decls[array] = decl
        rewritten_index = self._rewrite(index)
        return self._ackermannize(decl, (rewritten_index,))

    def _ackermannize(self, decl: FuncDecl, args: tuple[Term, ...]) -> Term:
        if decl.ret_sort not in (BOOL, INT):
            raise UnsupportedTermError(
                f"uninterpreted function {decl.name} returns {decl.ret_sort}; "
                "only Bool and Int results are supported"
            )
        instances = self._applications.setdefault(decl, [])
        for prior_args, prior_var in instances:
            if prior_args == args:
                return prior_var
        result = self._fresh(f"ack_{decl.name}_", decl.ret_sort)
        for prior_args, prior_var in instances:
            agreement = and_(
                *(self._rewrite_eq(a, b) for a, b in zip(args, prior_args))
            )
            self._defer(implies(agreement, self._rewrite_eq(result, prior_var)))
        instances.append((args, result))
        return result

    def _rewrite_ite(self, term: Term) -> Term:
        cond = self._rewrite(term.args[0])
        if term.sort == BOOL:
            return ite(cond, self._rewrite(term.args[1]), self._rewrite(term.args[2]))
        if term.sort != INT:
            raise UnsupportedTermError(f"ite at sort {term.sort} is not supported")
        then = self._rewrite(term.args[1])
        els = self._rewrite(term.args[2])
        fresh = self._fresh("ite_", INT)
        self._defer(implies(cond, self._rewrite_eq(fresh, then)))
        self._defer(implies(not_(cond), self._rewrite_eq(fresh, els)))
        return fresh

    def _rewrite_eq(self, left: Term, right: Term) -> Term:
        if left.sort != right.sort:
            raise SortError(f"eq operands disagree: {left.sort} vs {right.sort}")
        if left.sort == BOOL:
            return iff(self._rewrite(left), self._rewrite(right))
        if left.sort == INT:
            a = self._rewrite(left)
            b = self._rewrite(right)
            return and_(le(a, b), le(b, a))
        if left.sort.is_array:
            raise UnsupportedTermError("array equality is not supported")
        raise UnsupportedTermError(f"equality at sort {left.sort} is not supported")
