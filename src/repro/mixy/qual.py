"""Null/nonnull type qualifier inference (paper Section 4, "Type
Qualifiers and Null Pointer Errors").

A reimplementation of the flow-insensitive, monomorphic qualifier
inference of Foster et al. [2006] — the paper's CilQual.  Every pointer
level of every *slot* (local, global, parameter, return, struct field,
allocation site) carries a qualifier variable; program constructs
generate subtyping constraints ``q1 <= q2`` ("a value qualified q1 flows
into a position qualified q2") between them; ``NULL`` literals seed the
constant ``null`` and ``nonnull`` annotations are sinks.  A warning is a
constraint path from ``null`` to ``nonnull``.

Hallmarks of the paper's analysis that this module reproduces:

- *flow-insensitivity*: the order of statements is ignored, so
  ``free(p); p = NULL;`` warns (Case 1);
- *path-insensitivity*: ``if (p != NULL)`` guards are ignored (Cases 1,2);
- *context-insensitivity*: one qualifier per parameter slot conflates all
  call sites (Case 2);
- deep levels of pointer types are *unified* at assignments (standard
  invariance of mutable positions).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.mixy.c.ast import (
    AddrOf,
    Assign,
    Assume,
    Binary,
    Block,
    Call,
    Cast,
    CExpr,
    Check,
    CFunction,
    CProgram,
    CStmt,
    CType,
    Deref,
    ExprStmt,
    Field,
    FunType,
    If,
    IntLit,
    Malloc,
    NullLit,
    PtrType,
    Return,
    StrLit,
    StructType,
    Symbolic,
    Unary,
    VarDecl,
    VarRef,
    While,
    pointer_depth,
)
from repro.mixy.c.typeinfo import CTypeError, TypeInfo


# ---------------------------------------------------------------------------
# Qualifier lattice nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QConst:
    name: str

    def __str__(self) -> str:
        return self.name


NULL = QConst("null")
NONNULL = QConst("nonnull")


class QVar:
    """A qualifier variable; identity-based.

    Rendered ids are per-inference ordinals handed out by
    :meth:`QualInference.fresh_qvar` in deterministic creation order, so
    the printed form of an analysis is a pure function of the program —
    independent of the process hash seed.  The class-level fallback
    counter only serves variables constructed outside an inference
    (tests, ad-hoc graphs)."""

    _ids = itertools.count(1)

    def __init__(self, hint: str, id: Optional[int] = None) -> None:
        self.id = next(self._ids) if id is None else id
        self.hint = hint

    def __str__(self) -> str:
        return f"'{self.hint}#{self.id}"

    def __repr__(self) -> str:
        return str(self)


QNode = Union[QConst, QVar]


@dataclass(frozen=True)
class QualType:
    """A C type with one qualifier variable per pointer level
    (outermost first)."""

    ctype: CType
    quals: tuple[QVar, ...]

    @property
    def top(self) -> Optional[QVar]:
        return self.quals[0] if self.quals else None

    def deref(self) -> "QualType":
        assert isinstance(self.ctype, PtrType)
        return QualType(self.ctype.elem, self.quals[1:])

    def __str__(self) -> str:
        if not self.quals:
            return str(self.ctype)
        return f"{self.ctype} [{', '.join(map(str, self.quals))}]"


# ---------------------------------------------------------------------------
# The constraint graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QEdge:
    src: QNode
    dst: QNode
    reason: str


@dataclass
class QualWarning:
    """A source-to-sink flow, with the constraint path as a witness."""

    sink_reason: str
    path: tuple[QEdge, ...]
    source_reason: str = ""
    source_name: str = "NULL"
    sink_name: str = "nonnull"

    def __str__(self) -> str:
        chain = " -> ".join(str(e.src) for e in self.path) or self.source_name
        return (
            f"possible {self.source_name} ({self.source_reason}) flows to "
            f"{self.sink_name} position ({self.sink_reason}); via {chain}"
        )

    @property
    def key(self) -> tuple[str, str]:
        return (self.source_reason, self.sink_reason)


class QualGraph:
    """Subtyping constraints between qualifier nodes, with solving.

    The graph is generic over the two lattice poles: by default the
    nullness pair (``null`` source, ``nonnull`` sink), but any
    source/sink constants work — the taint instance uses
    ``tainted``/``untainted``.
    """

    def __init__(self, source: QConst = NULL, sink: QConst = NONNULL) -> None:
        self._succ: dict[QNode, list[QEdge]] = {}
        self.num_edges = 0
        self.source = source
        self.sink = sink

    def add_flow(self, src: QNode, dst: QNode, reason: str) -> None:
        if src is dst:
            return
        edges = self._succ.setdefault(src, [])
        for e in edges:
            if e.dst is dst:
                return
        edges.append(QEdge(src, dst, reason))
        self.num_edges += 1

    def unify(self, a: QNode, b: QNode, reason: str) -> None:
        self.add_flow(a, b, reason)
        self.add_flow(b, a, reason)

    def may_null(self, node: QNode) -> bool:
        """Is ``node`` reachable from the NULL constant?"""
        return node in self._reachable_from_null()

    def _reachable_from_null(self) -> dict[QNode, Optional[QEdge]]:
        parents: dict[QNode, Optional[QEdge]] = {self.source: None}
        queue: deque[QNode] = deque([self.source])
        while queue:
            node = queue.popleft()
            if isinstance(node, QConst) and node is not self.source:
                # Constants are poles of the lattice, not flow-through
                # nodes: an edge into `nonnull` is a *requirement* on its
                # source, and edges out of `nonnull` seed other variables.
                # Null-ness must not propagate through them.
                continue
            for edge in self._succ.get(node, ()):  # BFS: shortest witnesses
                if edge.dst not in parents:
                    parents[edge.dst] = edge
                    queue.append(edge.dst)
        return parents

    def warnings(self) -> list[QualWarning]:
        """All distinct null-to-nonnull flows.

        One warning per (null source edge, nonnull sink edge) pair, so two
        independent NULL literals reaching the same annotation count as two
        imprecise flows — the unit the paper's evaluation talks about.
        """
        found: list[QualWarning] = []
        seen: set[tuple[str, str]] = set()
        for source_edge in self._succ.get(self.source, ()):
            parents: dict[QNode, Optional[QEdge]] = {source_edge.dst: None}
            queue: deque[QNode] = deque([source_edge.dst])
            while queue:
                node = queue.popleft()
                if isinstance(node, QConst):
                    continue
                for edge in self._succ.get(node, ()):
                    if edge.dst not in parents:
                        parents[edge.dst] = edge
                        queue.append(edge.dst)
            for node in parents:
                for edge in self._succ.get(node, ()):
                    key = (source_edge.reason, edge.reason)
                    if edge.dst is not self.sink or key in seen:
                        continue
                    seen.add(key)
                    path = (source_edge,) + self._witness(parents, node) + (edge,)
                    found.append(
                        QualWarning(
                            edge.reason,
                            path,
                            source_edge.reason,
                            str(self.source).upper(),
                            str(self.sink),
                        )
                    )
        return sorted(found, key=lambda w: (w.sink_reason, w.source_reason))

    @staticmethod
    def _witness(
        parents: dict[QNode, Optional[QEdge]], node: QNode
    ) -> tuple[QEdge, ...]:
        path: list[QEdge] = []
        current: QNode = node
        while True:
            edge = parents[current]
            if edge is None:
                break
            path.append(edge)
            current = edge.src
        return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

SlotKey = tuple  # ("local", fn, name) | ("global", name) | ("ret", fn) | ...


@dataclass
class QualConfig:
    #: generate ``q <= nonnull`` at every dereference (stricter than the
    #: paper's experiment, which annotated only sysutil_free)
    deref_requires_nonnull: bool = False


class QualInference:
    """Constraint generation and slot management for one program."""

    def __init__(
        self,
        program: CProgram,
        config: Optional[QualConfig] = None,
        callees_of: Optional[Callable[[Call, str], list[str]]] = None,
        graph: Optional[QualGraph] = None,
    ) -> None:
        self.program = program
        self.config = config or QualConfig()
        self.graph = graph if graph is not None else QualGraph()
        self._slots: dict[SlotKey, QualType] = {}
        #: every slot variable's ``(slot key, level)``: a name for it that
        #: another run over the same program resolves with :meth:`slot_var`
        self.slot_refs: dict[QVar, tuple[SlotKey, int]] = {}
        self._callees_of = callees_of
        self._malloc_counter = itertools.count(1)
        self._qvar_ids = itertools.count(1)
        self.constrained_functions: set[str] = set()

    # -- slots -------------------------------------------------------------------

    def fresh_qvar(self, hint: str) -> QVar:
        """A qualifier variable with this inference's next ordinal id."""
        return QVar(hint, next(self._qvar_ids))

    def fresh_qualtype(self, ctype: CType, hint: str) -> QualType:
        quals = tuple(
            self.fresh_qvar(f"{hint}*{i}" if i else hint)
            for i in range(pointer_depth(ctype))
        )
        return QualType(ctype, quals)

    def slot(self, key: SlotKey, ctype: CType, hint: str) -> QualType:
        existing = self._slots.get(key)
        if existing is None:
            existing = self.fresh_qualtype(ctype, hint)
            self._slots[key] = existing
            for level, var in enumerate(existing.quals):
                self.slot_refs[var] = (key, level)
        return existing

    def existing_slot(self, key: SlotKey) -> Optional[QualType]:
        """The slot ``key`` names, or None if none was made yet."""
        return self._slots.get(key)

    def slot_var(self, ref: tuple[SlotKey, int]) -> QVar:
        """The variable a :attr:`slot_refs` value names.  Only a field
        slot can be missing here (block materialization makes them);
        it is made as :meth:`field_slot` makes it."""
        key, level = ref
        qt = self._slots.get(key)
        if qt is None:
            _, struct, fname = key
            ftype = dict(self.program.structs[struct].fields)[fname]
            qt = self.field_slot(struct, fname, ftype)
        return qt.quals[level]

    def local_slot(self, fn: str, name: str, ctype: CType) -> QualType:
        return self.slot(("local", fn, name), ctype, f"{fn}.{name}")

    def global_slot(self, name: str, ctype: CType) -> QualType:
        return self.slot(("global", name), ctype, name)

    def return_slot(self, fn: CFunction) -> QualType:
        qt = self.slot(("ret", fn.name), fn.ret, f"{fn.name}()")
        if fn.nonnull_return and qt.top is not None:
            self.graph.add_flow(NONNULL, qt.top, f"nonnull return of {fn.name}")
        return qt

    def param_slot(self, fn: CFunction, index: int) -> QualType:
        param = fn.params[index]
        qt = self.slot(
            ("local", fn.name, param.name), param.typ, f"{fn.name}.{param.name}"
        )
        if param.nonnull and qt.top is not None:
            self.graph.add_flow(
                qt.top,
                NONNULL,
                f"nonnull parameter {param.name} of {fn.name}",
            )
        return qt

    def field_slot(self, struct: str, fname: str, ctype: CType) -> QualType:
        return self.slot(("field", struct, fname), ctype, f"{struct}.{fname}")

    # -- solving -----------------------------------------------------------------

    def solution(self, qt: QualType) -> Optional[QConst]:
        """The inferred top-level qualifier: NULL if a null value may flow
        here; otherwise the optimistic NONNULL (paper §4.1)."""
        if qt.top is None:
            return None
        return NULL if self.graph.may_null(qt.top) else NONNULL

    def warnings(self) -> list[QualWarning]:
        return self.graph.warnings()

    # -- constraint generation ------------------------------------------------------

    def constrain_function(self, name: str) -> None:
        """Generate constraints for one function body (idempotent)."""
        if name in self.constrained_functions:
            return
        self.constrained_functions.add(name)
        fn = self.program.functions[name]
        for i in range(len(fn.params)):
            self.param_slot(fn, i)
        self.return_slot(fn)
        if fn.body is None:
            return
        typeinfo = TypeInfo(self.program, self._local_types(fn))
        _FunctionConstrainer(self, fn, typeinfo).stmt(fn.body)

    def constrain_globals(self) -> None:
        """Constraints for global initializers."""
        for g in self.program.globals.values():
            if g.init is None:
                continue
            fn = CFunction("<global-init>", (), g.typ, None)
            typeinfo = TypeInfo(self.program, {})
            constrainer = _FunctionConstrainer(self, fn, typeinfo)
            init_qt = constrainer.expr(g.init)
            constrainer.flow(init_qt, self.global_slot(g.name, g.typ), f"initializer of {g.name}")

    def _local_types(self, fn: CFunction) -> dict[str, CType]:
        env = {p.name: p.typ for p in fn.params}
        if fn.body is not None:
            _collect_locals(fn.body, env)
        return env

    def callees(self, call: Call, fn: str) -> list[str]:
        if isinstance(call.fn, VarRef) and call.fn.name in self.program.functions:
            return [call.fn.name]
        if self._callees_of is not None:
            return self._callees_of(call, fn)
        return []


def _collect_locals(stmt: CStmt, env: dict[str, CType]) -> None:
    if isinstance(stmt, VarDecl):
        env[stmt.name] = stmt.typ
    elif isinstance(stmt, Block):
        for s in stmt.stmts:
            _collect_locals(s, env)
    elif isinstance(stmt, If):
        _collect_locals(stmt.then, env)
        if stmt.els is not None:
            _collect_locals(stmt.els, env)
    elif isinstance(stmt, While):
        _collect_locals(stmt.body, env)


class _FunctionConstrainer:
    """Walks one function body, generating constraints (flow-insensitive:
    statement order is irrelevant to the produced graph)."""

    def __init__(self, inference: QualInference, fn: CFunction, typeinfo: TypeInfo):
        self.inf = inference
        self.fn = fn
        self.types = typeinfo

    # -- plumbing ----------------------------------------------------------------

    def flow(self, src: QualType, dst: QualType, reason: str) -> None:
        """src flows into dst: top-level subtyping, deep unification."""
        if src.top is not None and dst.top is not None:
            self.inf.graph.add_flow(src.top, dst.top, reason)
        for s, d in zip(src.quals[1:], dst.quals[1:]):
            self.inf.graph.unify(s, d, f"{reason} (deep)")

    # -- statements --------------------------------------------------------------

    def stmt(self, node: CStmt) -> None:
        if isinstance(node, Block):
            for s in node.stmts:
                self.stmt(s)
        elif isinstance(node, VarDecl):
            slot = self.inf.local_slot(self.fn.name, node.name, node.typ)
            if node.init is not None:
                self.flow(
                    self.expr(node.init),
                    slot,
                    f"initialization of {node.name} in {self.fn.name}",
                )
        elif isinstance(node, ExprStmt):
            self.expr(node.expr)
        elif isinstance(node, If):
            self.expr(node.cond)  # condition qualifiers ignored: path-insensitive
            self.stmt(node.then)
            if node.els is not None:
                self.stmt(node.els)
        elif isinstance(node, While):
            self.expr(node.cond)
            self.stmt(node.body)
        elif isinstance(node, Return):
            if node.value is not None:
                self.flow(
                    self.expr(node.value),
                    self.inf.return_slot(self.fn),
                    f"return in {self.fn.name}",
                )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {node!r}")

    # -- expressions -------------------------------------------------------------

    def expr(self, node: CExpr) -> QualType:
        if isinstance(node, IntLit):
            return QualType(self.types.type_of(node), ())
        if isinstance(node, StrLit):
            qt = self.inf.fresh_qualtype(self.types.type_of(node), "strlit")
            assert qt.top is not None
            self.inf.graph.add_flow(NONNULL, qt.top, "string literal")
            return qt
        if isinstance(node, NullLit):
            qt = self.inf.fresh_qualtype(PtrType(self.types.type_of(node).elem), "null")  # type: ignore[union-attr]
            assert qt.top is not None
            self.inf.graph.add_flow(NULL, qt.top, f"NULL literal in {self.fn.name}")
            return qt
        if isinstance(node, VarRef):
            return self._var_slot(node.name)
        if isinstance(node, Deref):
            inner = self.expr(node.ptr)
            self._check_deref(inner, f"*{_describe(node.ptr)} in {self.fn.name}")
            return inner.deref()
        if isinstance(node, AddrOf):
            target = self.expr(node.target)
            qt = QualType(
                PtrType(target.ctype),
                (self.inf.fresh_qvar(f"&{_describe(node.target)}"),) + target.quals,
            )
            assert qt.top is not None
            self.inf.graph.add_flow(NONNULL, qt.top, "address-of")
            return qt
        if isinstance(node, Field):
            obj = self.expr(node.obj)
            struct_type = obj.ctype
            if node.arrow:
                self._check_deref(obj, f"{_describe(node.obj)}->{node.name} in {self.fn.name}")
                struct_type = obj.deref().ctype
            struct = self.inf.program.struct_def(struct_type)
            return self.inf.field_slot(
                struct.name, node.name, struct.field_type(node.name)
            )
        if isinstance(node, Unary):
            self.expr(node.operand)
            return QualType(self.types.type_of(node), ())
        if isinstance(node, Binary):
            left = self.expr(node.left)
            self.expr(node.right)
            if isinstance(left.ctype, PtrType) and node.op in ("+", "-"):
                return left  # pointer arithmetic preserves the qualifier
            return QualType(self.types.type_of(node), ())
        if isinstance(node, Assign):
            rhs = self.expr(node.rhs)
            lhs = self.expr(node.lhs)
            self.flow(rhs, lhs, f"assignment to {_describe(node.lhs)} in {self.fn.name}")
            return lhs
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Malloc):
            site = next(self.inf._malloc_counter)
            qt = self.inf.slot(
                ("malloc", site), PtrType(node.typ), f"malloc#{site}"
            )
            assert qt.top is not None
            self.inf.graph.add_flow(NONNULL, qt.top, "malloc result")
            return qt
        if isinstance(node, Cast):
            inner = self.expr(node.operand)
            depth = pointer_depth(node.typ)
            if depth == len(inner.quals):
                return QualType(node.typ, inner.quals)
            return self.inf.fresh_qualtype(node.typ, "cast")
        if isinstance(node, Symbolic):
            return QualType(self.types.type_of(node), ())
        if isinstance(node, (Assume, Check)):
            self.expr(node.cond)
            return QualType(self.types.type_of(node), ())
        raise CTypeError(f"cannot constrain expression {node!r}")

    def _var_slot(self, name: str) -> QualType:
        if name in self.types.locals:
            return self.inf.local_slot(self.fn.name, name, self.types.locals[name])
        if name in self.inf.program.globals:
            return self.inf.global_slot(name, self.inf.program.globals[name].typ)
        if name in self.inf.program.functions:
            # A function name used as a value: a non-null function pointer.
            fn = self.inf.program.functions[name]
            ftype = PtrType(FunType(tuple(p.typ for p in fn.params), fn.ret))
            qt = self.inf.slot(("fnaddr", name), ftype, f"&{name}")
            assert qt.top is not None
            self.inf.graph.add_flow(NONNULL, qt.top, f"function address {name}")
            return qt
        raise CTypeError(f"unknown identifier {name}")

    def _check_deref(self, qt: QualType, description: str) -> None:
        if self.inf.config.deref_requires_nonnull and qt.top is not None:
            self.inf.graph.add_flow(qt.top, NONNULL, f"dereference {description}")

    def _call(self, node: Call) -> QualType:
        arg_qts = [self.expr(a) for a in node.args]
        if not isinstance(node.fn, VarRef):
            self.expr(node.fn)
        targets = self.inf.callees(node, self.fn.name)
        result: Optional[QualType] = None
        for target in targets:
            callee = self.inf.program.functions[target]
            for i, arg_qt in enumerate(arg_qts):
                if i >= len(callee.params):
                    break
                self.flow(
                    arg_qt,
                    self.inf.param_slot(callee, i),
                    f"argument {i + 1} of call to {target} in {self.fn.name}",
                )
            ret = self.inf.return_slot(callee)
            if result is None:
                result = ret
            else:
                # Conflate multiple possible callees' returns.
                merged = self.inf.fresh_qualtype(ret.ctype, f"call-{target}")
                self.flow(ret, merged, f"return of {target}")
                self.flow(result, merged, "merged call targets")
                result = merged
        if result is None:
            try:
                ret_type = self.types.callee_type(node).ret
            except CTypeError:
                ret_type = self.types.type_of(node)
            result = self.inf.fresh_qualtype(ret_type, "extern-call")
        return result


def _describe(expr: CExpr) -> str:
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, Deref):
        return f"*{_describe(expr.ptr)}"
    if isinstance(expr, Field):
        sep = "->" if expr.arrow else "."
        return f"{_describe(expr.obj)}{sep}{expr.name}"
    if isinstance(expr, AddrOf):
        return f"&{_describe(expr.target)}"
    return type(expr).__name__.lower()
