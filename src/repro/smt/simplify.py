"""Term simplification: constant folding, boolean identities, and
read-over-write array rewriting.

Simplification is semantics-preserving and idempotent on its output.  The
array rewrite

    select(store(a, i, v), j)  -->  ite(i = j, v, select(a, j))

is load-bearing for the solver: after it runs, all remaining ``select``
terms read from *base* array variables, so they can be treated as
uninterpreted applications (Ackermann expansion in
:mod:`repro.smt.preprocess`).  The McCarthy memory logs built by the
symbolic executor (Figure 3 of the paper) are exactly chains of stores
over an arbitrary base memory, so this rewrite fully eliminates stores.
"""

from __future__ import annotations

from repro.smt.terms import (
    Kind,
    Term,
    add,
    and_,
    bool_const,
    distinct,
    eq,
    iff,
    implies,
    int_const,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    select,
    store,
)


#: Process-wide memo: terms are hash-consed, immutable and never freed, so
#: ``simplify`` is a pure function of the term's identity.  Concurrent
#: threads can at worst both compute an entry; they store the same term.
_MEMO: dict[Term, Term] = {}


def simplify(term: Term) -> Term:
    """Return a simplified term equivalent to ``term``."""
    # Recursion goes through ``_simplify``, so a wrapper rebound to this
    # name (perfbench's tracer) sees one call per top-level request.
    return _simplify(term)


def _simplify(term: Term) -> Term:
    cached = _MEMO.get(term)
    if cached is not None:
        return cached
    args = tuple(_simplify(a) for a in term.args)
    handler = _HANDLERS.get(term.kind)
    if handler is not None:
        result = handler(term, args)
    elif args == term.args:
        result = term
    else:
        # Kinds without special handling (VAR, constants, APPLY, STORE).
        result = _reapply(term, args)
    _MEMO[term] = result
    return result


def _reapply(term: Term, args: tuple[Term, ...]) -> Term:
    """Rebuild ``term`` with new arguments, preserving kind and payload."""
    kind = term.kind
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
    if kind is Kind.ITE:
        return ite(args[0], args[1], args[2])
    if kind is Kind.EQ:
        return eq(args[0], args[1])
    if kind is Kind.DISTINCT:
        return distinct(*args)
    if kind is Kind.LE:
        return le(args[0], args[1])
    if kind is Kind.LT:
        return lt(args[0], args[1])
    if kind is Kind.ADD:
        return add(*args)
    if kind is Kind.MUL:
        return mul(args[0], args[1])
    if kind is Kind.NEG:
        return neg(args[0])
    if kind is Kind.SELECT:
        return select(args[0], args[1])
    if kind is Kind.STORE:
        return store(args[0], args[1], args[2])
    if kind is Kind.APPLY:
        return term.payload(*args)  # type: ignore[operator]
    return term


def _simp_not(term: Term, args: tuple[Term, ...]) -> Term:
    (arg,) = args
    if arg.is_true:
        return bool_const(False)
    if arg.is_false:
        return bool_const(True)
    if arg.kind is Kind.NOT:
        return arg.args[0]
    return not_(arg)


def _simp_and(term: Term, args: tuple[Term, ...]) -> Term:
    flat: list[Term] = []
    for a in args:
        if a.is_false:
            return bool_const(False)
        if a.is_true:
            continue
        if a.kind is Kind.AND:
            flat.extend(a.args)
        else:
            flat.append(a)
    deduped = _dedupe(flat)
    if _has_complementary(deduped):
        return bool_const(False)
    return and_(*deduped)


def _simp_or(term: Term, args: tuple[Term, ...]) -> Term:
    flat: list[Term] = []
    for a in args:
        if a.is_true:
            return bool_const(True)
        if a.is_false:
            continue
        if a.kind is Kind.OR:
            flat.extend(a.args)
        else:
            flat.append(a)
    deduped = _dedupe(flat)
    if _has_complementary(deduped):
        return bool_const(True)
    return or_(*deduped)


def _dedupe(items: list[Term]) -> list[Term]:
    seen: set[Term] = set()
    out: list[Term] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _has_complementary(items: list[Term]) -> bool:
    present = set(items)
    for item in items:
        if item.kind is Kind.NOT and item.args[0] in present:
            return True
    return False


def _simp_implies(term: Term, args: tuple[Term, ...]) -> Term:
    antecedent, consequent = args
    if antecedent.is_false or consequent.is_true:
        return bool_const(True)
    if antecedent.is_true:
        return consequent
    if consequent.is_false:
        return _simp_not(term, (antecedent,))
    return implies(antecedent, consequent)


def _simp_iff(term: Term, args: tuple[Term, ...]) -> Term:
    left, right = args
    if left is right:
        return bool_const(True)
    if left.is_true:
        return right
    if right.is_true:
        return left
    if left.is_false:
        return _simp_not(term, (right,))
    if right.is_false:
        return _simp_not(term, (left,))
    return iff(left, right)


def _simp_ite(term: Term, args: tuple[Term, ...]) -> Term:
    cond, then, els = args
    if cond.is_true:
        return then
    if cond.is_false:
        return els
    if then is els:
        return then
    if then.is_true and els.is_false:
        return cond
    if then.is_false and els.is_true:
        return _simp_not(term, (cond,))
    return ite(cond, then, els)


def _simp_eq(term: Term, args: tuple[Term, ...]) -> Term:
    left, right = args
    if left is right:
        return bool_const(True)
    if left.is_const and right.is_const:
        return bool_const(left.payload == right.payload)
    # (ite c k1 k2) = k  collapses to c / ¬c / false when the arms are
    # constants — the C frontend's int-encoded truth values (`ite c 1 0`
    # compared against 0) otherwise reach the solver as opaque ite atoms
    # it can only case-split on.
    for ite_side, const_side in ((left, right), (right, left)):
        if (
            ite_side.kind is Kind.ITE
            and const_side.is_const
            and ite_side.args[1].is_const
            and ite_side.args[2].is_const
        ):
            cond = ite_side.args[0]
            then_hit = ite_side.args[1].payload == const_side.payload
            else_hit = ite_side.args[2].payload == const_side.payload
            if then_hit and else_hit:
                return bool_const(True)
            if then_hit:
                return cond
            if else_hit:
                return _simp_not(term, (cond,))
            return bool_const(False)
    return eq(left, right)


def _simp_distinct(term: Term, args: tuple[Term, ...]) -> Term:
    consts = [a for a in args if a.is_const]
    if len(set(a.payload for a in consts)) != len(consts):
        return bool_const(False)
    if len(set(args)) != len(args):
        return bool_const(False)
    if len(consts) == len(args):
        return bool_const(True)
    return distinct(*args)


def _simp_le(term: Term, args: tuple[Term, ...]) -> Term:
    left, right = args
    if left is right:
        return bool_const(True)
    if left.is_const and right.is_const:
        return bool_const(left.payload <= right.payload)  # type: ignore[operator]
    return le(left, right)


def _simp_lt(term: Term, args: tuple[Term, ...]) -> Term:
    left, right = args
    if left is right:
        return bool_const(False)
    if left.is_const and right.is_const:
        return bool_const(left.payload < right.payload)  # type: ignore[operator]
    return lt(left, right)


def _simp_add(term: Term, args: tuple[Term, ...]) -> Term:
    constant = 0
    rest: list[Term] = []
    for a in args:
        if a.kind is Kind.ADD:
            inner_args = a.args
        else:
            inner_args = (a,)
        for inner in inner_args:
            if inner.is_const:
                constant += inner.payload  # type: ignore[operator]
            else:
                rest.append(inner)
    if not rest:
        return int_const(constant)
    if constant:
        rest.append(int_const(constant))
    return add(*rest)


def _simp_mul(term: Term, args: tuple[Term, ...]) -> Term:
    left, right = args
    if left.is_const and right.is_const:
        return int_const(left.payload * right.payload)  # type: ignore[operator]
    for const, other in ((left, right), (right, left)):
        if const.is_const:
            if const.payload == 0:
                return int_const(0)
            if const.payload == 1:
                return other
    return mul(left, right)


def _simp_neg(term: Term, args: tuple[Term, ...]) -> Term:
    (arg,) = args
    if arg.is_const:
        return int_const(-arg.payload)  # type: ignore[operator]
    if arg.kind is Kind.NEG:
        return arg.args[0]
    return neg(arg)


def _simp_select(term: Term, args: tuple[Term, ...]) -> Term:
    array, index = args
    # Read-over-write: unroll the store chain, turning positional matches
    # into ITEs so only base-array selects remain.
    while array.kind is Kind.STORE:
        base, written_index, written_value = array.args
        if written_index is index:
            return written_value
        if written_index.is_const and index.is_const:
            # Distinct constants cannot alias; skip this write.
            array = base
            continue
        inner = _simp_select(term, (base, index))
        return _simp_ite(
            term, (_simp_eq(term, (written_index, index)), written_value, inner)
        )
    return select(array, index)


_HANDLERS = {
    Kind.NOT: _simp_not,
    Kind.AND: _simp_and,
    Kind.OR: _simp_or,
    Kind.IMPLIES: _simp_implies,
    Kind.IFF: _simp_iff,
    Kind.ITE: _simp_ite,
    Kind.EQ: _simp_eq,
    Kind.DISTINCT: _simp_distinct,
    Kind.LE: _simp_le,
    Kind.LT: _simp_lt,
    Kind.ADD: _simp_add,
    Kind.MUL: _simp_mul,
    Kind.NEG: _simp_neg,
    Kind.SELECT: _simp_select,
}
