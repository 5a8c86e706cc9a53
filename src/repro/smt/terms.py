"""Sorts and hash-consed terms for the SMT substrate.

Terms form an immutable DAG.  Structurally identical terms are shared
(hash-consed), so equality and hashing are identity-based and cheap, and
memoized traversals over the DAG are linear in its size rather than in the
size of the unfolded tree.

The term language is many-sorted and quantifier-free:

- sorts: ``Bool``, ``Int``, ``Array(index, elem)``, and free sorts;
- boolean structure: ``not``, ``and``, ``or``, ``implies``, ``iff``, ``ite``;
- integer arithmetic: ``+``, ``-``, ``*`` (by any term; the solver requires
  linearity, the term language does not), comparisons;
- equality at any sort, ``distinct``;
- McCarthy arrays: ``select`` / ``store``;
- uninterpreted functions via :class:`FuncDecl` and :func:`apply_func`.

Constructors perform full sort checking and raise :class:`SortError` on
ill-sorted applications, mirroring the paper's observation that the syntax
of symbolic expressions "forbids the formation of certain ill-typed
symbolic expressions".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Iterator


class SortError(TypeError):
    """Raised when a term constructor is applied at the wrong sorts."""


@dataclass(frozen=True)
class Sort:
    """A sort (SMT type).  ``params`` holds element sorts for arrays."""

    name: str
    params: tuple["Sort", ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(str(p) for p in self.params)
        return f"{self.name}({inner})"

    @property
    def is_array(self) -> bool:
        return self.name == "Array"

    @property
    def index_sort(self) -> "Sort":
        if not self.is_array:
            raise SortError(f"{self} is not an array sort")
        return self.params[0]

    @property
    def elem_sort(self) -> "Sort":
        if not self.is_array:
            raise SortError(f"{self} is not an array sort")
        return self.params[1]


BOOL = Sort("Bool")
INT = Sort("Int")


def array_sort(index: Sort, elem: Sort) -> Sort:
    """The sort of arrays (symbolic memories) from ``index`` to ``elem``."""
    return Sort("Array", (index, elem))


@unique
class Kind(Enum):
    """Node kinds of the term DAG."""

    CONST_BOOL = "const_bool"
    CONST_INT = "const_int"
    VAR = "var"
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    IFF = "iff"
    ITE = "ite"
    EQ = "eq"
    DISTINCT = "distinct"
    LE = "le"
    LT = "lt"
    ADD = "add"
    MUL = "mul"
    NEG = "neg"
    SELECT = "select"
    STORE = "store"
    APPLY = "apply"


@dataclass(frozen=True)
class FuncDecl:
    """An uninterpreted function symbol."""

    name: str
    arg_sorts: tuple[Sort, ...]
    ret_sort: Sort

    def __str__(self) -> str:
        args = ", ".join(str(s) for s in self.arg_sorts)
        return f"{self.name}: ({args}) -> {self.ret_sort}"

    def __call__(self, *args: "Term") -> "Term":
        return apply_func(self, *args)


class Term:
    """A hash-consed term.  Do not instantiate directly; use constructors."""

    __slots__ = ("kind", "sort", "args", "payload", "_id", "__weakref__")

    kind: Kind
    sort: Sort
    args: tuple["Term", ...]
    payload: object  # int/bool constant value, var name, or FuncDecl

    def __init__(
        self, kind: Kind, sort: Sort, args: tuple["Term", ...], payload: object
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Term objects are immutable")

    # Hash-consing makes ``object``'s identity equality and hashing sound.

    def __repr__(self) -> str:
        return f"<Term {self}>"

    def __str__(self) -> str:
        return _pretty(self)

    # Convenience predicates -------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.kind in (Kind.CONST_BOOL, Kind.CONST_INT)

    @property
    def is_true(self) -> bool:
        return self.kind is Kind.CONST_BOOL and self.payload is True

    @property
    def is_false(self) -> bool:
        return self.kind is Kind.CONST_BOOL and self.payload is False

    @property
    def is_var(self) -> bool:
        return self.kind is Kind.VAR

    @property
    def name(self) -> str:
        if self.kind is not Kind.VAR:
            raise SortError(f"{self} is not a variable")
        return self.payload  # type: ignore[return-value]

    @property
    def value(self) -> object:
        if not self.is_const:
            raise SortError(f"{self} is not a constant")
        return self.payload

    def subterms(self) -> Iterator["Term"]:
        """All subterms (including self), each visited once."""
        seen: set[Term] = set()
        stack = [self]
        while stack:
            term = stack.pop()
            if term in seen:
                continue
            seen.add(term)
            yield term
            stack.extend(term.args)


class _TermTable:
    """The hash-consing table; one per process, guarded by a lock."""

    def __init__(self) -> None:
        self._table: dict[tuple, Term] = {}
        self._lock = threading.Lock()

    def make(
        self, kind: Kind, sort: Sort, args: tuple[Term, ...], payload: object
    ) -> Term:
        key = (kind, sort, tuple(id(a) for a in args), payload)
        with self._lock:
            term = self._table.get(key)
            if term is None:
                term = Term(kind, sort, args, payload)
                self._table[key] = term
            return term

    def size(self) -> int:
        return len(self._table)


_TABLE = _TermTable()


def term_table_size() -> int:
    """Number of distinct terms ever built (diagnostic)."""
    return _TABLE.size()


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

_TRUE = _TABLE.make(Kind.CONST_BOOL, BOOL, (), True)
_FALSE = _TABLE.make(Kind.CONST_BOOL, BOOL, (), False)


def true() -> Term:
    return _TRUE


def false() -> Term:
    return _FALSE


def bool_const(value: bool) -> Term:
    return _TRUE if value else _FALSE


def int_const(value: int) -> Term:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SortError(f"int_const expects an int, got {value!r}")
    return _TABLE.make(Kind.CONST_INT, INT, (), value)


def var(name: str, sort: Sort) -> Term:
    """A free variable.  Two calls with the same name/sort share a node."""
    if not isinstance(name, str) or not name:
        raise SortError("variable names must be non-empty strings")
    return _TABLE.make(Kind.VAR, sort, (), name)


def _require(term: Term, sort: Sort, context: str) -> None:
    if term.sort != sort:
        raise SortError(f"{context}: expected sort {sort}, got {term.sort} ({term})")


def not_(arg: Term) -> Term:
    _require(arg, BOOL, "not")
    return _TABLE.make(Kind.NOT, BOOL, (arg,), None)


def _bool_nary(kind: Kind, args: Iterable[Term], context: str) -> Term:
    flat = tuple(args)
    for a in flat:
        _require(a, BOOL, context)
    if len(flat) == 1:
        return flat[0]
    return _TABLE.make(kind, BOOL, flat, None)


def and_(*args: Term) -> Term:
    if not args:
        return _TRUE
    return _bool_nary(Kind.AND, args, "and")


def or_(*args: Term) -> Term:
    if not args:
        return _FALSE
    return _bool_nary(Kind.OR, args, "or")


def implies(antecedent: Term, consequent: Term) -> Term:
    _require(antecedent, BOOL, "implies")
    _require(consequent, BOOL, "implies")
    return _TABLE.make(Kind.IMPLIES, BOOL, (antecedent, consequent), None)


def iff(left: Term, right: Term) -> Term:
    _require(left, BOOL, "iff")
    _require(right, BOOL, "iff")
    return _TABLE.make(Kind.IFF, BOOL, (left, right), None)


def ite(cond: Term, then: Term, els: Term) -> Term:
    """If-then-else at any sort (the paper's ``g ? s1 : s2``)."""
    _require(cond, BOOL, "ite condition")
    if then.sort != els.sort:
        raise SortError(f"ite branches disagree: {then.sort} vs {els.sort}")
    return _TABLE.make(Kind.ITE, then.sort, (cond, then, els), None)


def eq(left: Term, right: Term) -> Term:
    if left.sort != right.sort:
        raise SortError(f"eq operands disagree: {left.sort} vs {right.sort}")
    return _TABLE.make(Kind.EQ, BOOL, (left, right), None)


def distinct(*args: Term) -> Term:
    """Pairwise disequality; used for allocation freshness."""
    if len(args) < 2:
        return _TRUE
    first = args[0].sort
    for a in args:
        if a.sort != first:
            raise SortError("distinct operands must share a sort")
    return _TABLE.make(Kind.DISTINCT, BOOL, tuple(args), None)


def le(left: Term, right: Term) -> Term:
    _require(left, INT, "le")
    _require(right, INT, "le")
    return _TABLE.make(Kind.LE, BOOL, (left, right), None)


def lt(left: Term, right: Term) -> Term:
    _require(left, INT, "lt")
    _require(right, INT, "lt")
    return _TABLE.make(Kind.LT, BOOL, (left, right), None)


def ge(left: Term, right: Term) -> Term:
    return le(right, left)


def gt(left: Term, right: Term) -> Term:
    return lt(right, left)


def add(*args: Term) -> Term:
    if not args:
        return int_const(0)
    for a in args:
        _require(a, INT, "add")
    if len(args) == 1:
        return args[0]
    return _TABLE.make(Kind.ADD, INT, tuple(args), None)


def sub(left: Term, right: Term) -> Term:
    return add(left, neg(right))


def neg(arg: Term) -> Term:
    _require(arg, INT, "neg")
    return _TABLE.make(Kind.NEG, INT, (arg,), None)


def mul(left: Term, right: Term) -> Term:
    _require(left, INT, "mul")
    _require(right, INT, "mul")
    return _TABLE.make(Kind.MUL, INT, (left, right), None)


def select(array: Term, index: Term) -> Term:
    if not array.sort.is_array:
        raise SortError(f"select expects an array, got {array.sort}")
    _require_index = array.sort.index_sort
    if index.sort != _require_index:
        raise SortError(
            f"select index sort mismatch: expected {_require_index}, got {index.sort}"
        )
    return _TABLE.make(Kind.SELECT, array.sort.elem_sort, (array, index), None)


def store(array: Term, index: Term, value: Term) -> Term:
    if not array.sort.is_array:
        raise SortError(f"store expects an array, got {array.sort}")
    if index.sort != array.sort.index_sort:
        raise SortError("store index sort mismatch")
    if value.sort != array.sort.elem_sort:
        raise SortError("store value sort mismatch")
    return _TABLE.make(Kind.STORE, array.sort, (array, index, value), None)


def apply_func(decl: FuncDecl, *args: Term) -> Term:
    if len(args) != len(decl.arg_sorts):
        raise SortError(
            f"{decl.name} expects {len(decl.arg_sorts)} arguments, got {len(args)}"
        )
    for actual, expected in zip(args, decl.arg_sorts):
        if actual.sort != expected:
            raise SortError(
                f"{decl.name}: argument sort mismatch "
                f"(expected {expected}, got {actual.sort})"
            )
    return _TABLE.make(Kind.APPLY, decl.ret_sort, tuple(args), decl)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------
#
# Terms hash (and pickle-compare) by identity, so they cannot cross a
# process boundary naively: two processes interning the same structure
# hold *different* objects.  The wire form is therefore purely
# structural — a post-order node list with structure sharing — and
# ``from_wire`` rebuilds through ``_TABLE.make``, re-interning every
# node.  Within one process this makes the round trip the identity:
# ``from_wire(to_wire(t)) is t``.  ``Sort`` and ``FuncDecl`` are plain
# frozen dataclasses and ship by value inside node payloads.

#: wire node: (kind value, sort, argument node indices, payload)
WireNode = tuple[str, Sort, tuple[int, ...], object]
#: wire form of a term list: (shared node table, root indices)
Wire = tuple[list[WireNode], list[int]]


def to_wire_many(terms: Iterable[Term]) -> Wire:
    """Encode ``terms`` into one shared-structure node table."""
    index: dict[Term, int] = {}
    nodes: list[WireNode] = []

    def visit(root: Term) -> int:
        stack: list[tuple[Term, bool]] = [(root, False)]
        while stack:
            term, ready = stack.pop()
            if term in index:
                continue
            if ready:
                index[term] = len(nodes)
                nodes.append(
                    (
                        term.kind.value,
                        term.sort,
                        tuple(index[a] for a in term.args),
                        term.payload,
                    )
                )
            else:
                stack.append((term, True))
                for arg in term.args:
                    if arg not in index:
                        stack.append((arg, False))
        return index[root]

    roots = [visit(t) for t in terms]
    return nodes, roots


def from_wire_many(wire: Wire) -> list[Term]:
    """Decode a :func:`to_wire_many` result, re-interning every node."""
    nodes, roots = wire
    built: list[Term] = []
    for kind_value, sort, arg_indices, payload in nodes:
        args = tuple(built[i] for i in arg_indices)
        built.append(_TABLE.make(Kind(kind_value), sort, args, payload))
    return [built[i] for i in roots]


def to_wire(term: Term) -> Wire:
    """Encode one term (see :func:`to_wire_many`)."""
    return to_wire_many((term,))


def from_wire(wire: Wire) -> Term:
    """Decode one term; interned, so within a process this is identity."""
    roots = from_wire_many(wire)
    if len(roots) != 1:
        raise SortError(f"expected a single wire root, got {len(roots)}")
    return roots[0]


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

_INFIX = {
    Kind.AND: "and",
    Kind.OR: "or",
    Kind.IMPLIES: "=>",
    Kind.IFF: "<=>",
    Kind.EQ: "=",
    Kind.LE: "<=",
    Kind.LT: "<",
    Kind.ADD: "+",
    Kind.MUL: "*",
}


def _pretty(term: Term) -> str:
    kind = term.kind
    if kind in (Kind.CONST_BOOL, Kind.CONST_INT):
        return str(term.payload).lower() if kind is Kind.CONST_BOOL else str(term.payload)
    if kind is Kind.VAR:
        return str(term.payload)
    if kind is Kind.NOT:
        return f"(not {_pretty(term.args[0])})"
    if kind is Kind.NEG:
        return f"(- {_pretty(term.args[0])})"
    if kind is Kind.ITE:
        cond, then, els = term.args
        return f"(ite {_pretty(cond)} {_pretty(then)} {_pretty(els)})"
    if kind is Kind.SELECT:
        return f"{_pretty(term.args[0])}[{_pretty(term.args[1])}]"
    if kind is Kind.STORE:
        arr, idx, val = term.args
        return f"{_pretty(arr)}[{_pretty(idx)} := {_pretty(val)}]"
    if kind is Kind.APPLY:
        decl: FuncDecl = term.payload  # type: ignore[assignment]
        inner = " ".join(_pretty(a) for a in term.args)
        return f"({decl.name} {inner})" if inner else decl.name
    if kind is Kind.DISTINCT:
        inner = " ".join(_pretty(a) for a in term.args)
        return f"(distinct {inner})"
    op = _INFIX[kind]
    inner = f" {op} ".join(_pretty(a) for a in term.args)
    return f"({inner})"
