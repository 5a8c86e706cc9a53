"""A symbolic executor for mini-C — MIXY's substitute for Otter.

Like Otter/KLEE, the executor tracks values at the machine level: every
value is an SMT integer term; pointers are integer addresses with ``0``
for NULL; memory is a map from concrete cell addresses to terms, with
struct fields laid out at ``base + field_index``.  Execution forks at
branches (feasibility-checked with the solver), inlines calls to
functions whose bodies are available, and *reports an error whenever 0
may be dereferenced* on a feasible path — the null-pointer check of
paper Section 4.

Pointers of unknown provenance are **lazily materialized** (§4.2): the
first time an unconstrained symbolic pointer is dereferenced, a fresh
object of the pointee type is created and the pointer is constrained to
it, "so that we can sidestep the issue of initializing an arbitrarily
recursive data structure; MIXY only initializes as much as is required
by the symbolic block".

Calls to ``MIX(typed)`` functions and to externs are delegated to the
driver through ``call_hook`` (rule SETypBlock's role in MIXY).  Calls
through *symbolic* function pointers are unsupported — exactly the
limitation behind the paper's Case 4.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from typing import Callable, Iterator, Optional

from repro import smt
from repro.budget import Budget
from repro.mixy.c.ast import (
    AddrOf,
    Assign,
    Assume,
    Binary,
    Block,
    Call,
    Cast,
    Check,
    CExpr,
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
    Scalar,
    StrLit,
    StructType,
    Symbolic,
    Unary,
    VarDecl,
    VarRef,
    VOID_T,
    While,
)
from repro.mixy.c.typeinfo import CTypeError, TypeInfo
from repro.smt.simplify import simplify
from repro.trace import TRACER, conjunct_count


@unique
class CErrKind(Enum):
    NULL_DEREF = "possible NULL dereference"
    UNSUPPORTED = "unsupported operation"
    LOOP_BOUND = "loop unroll budget exceeded"
    RECURSION = "recursion depth exceeded"
    #: the resource governor cut exploration short (deadline or path cap);
    #: the driver falls back to pure qualifier inference for the function
    BUDGET = "resource budget exceeded"
    #: trust ring 3: the block's analysis raised an unexpected exception
    #: and was contained — degraded to pure qualifier inference, with a
    #: shrunken crash repro written to the crash directory
    CRASH = "analysis crash contained"
    #: a ``check(e)`` property obligation whose failing branch is
    #: feasible — the property-proving analog of NULL_DEREF
    CHECK_FAIL = "checked property may fail"


@dataclass(frozen=True)
class CWarning:
    kind: CErrKind
    message: str
    function: str

    def __str__(self) -> str:
        return f"{self.kind.value} in {self.function}: {self.message}"

    @property
    def key(self) -> tuple:
        return (self.kind, self.message, self.function)


@dataclass(frozen=True)
class CObj:
    """An allocated object: a run of ``size`` cells starting at ``base``."""

    base: int
    size: int
    ctype: CType
    label: str


@dataclass(frozen=True)
class CState:
    """One path's state: path condition, definitions, memory, objects."""

    guard: smt.Term
    defs: tuple[smt.Term, ...]
    cells: dict[int, smt.Term]
    objects: dict[int, CObj]
    #: names of the α variables ``symbolic()`` minted along this path,
    #: in program order — witness replay concretizes them from the model
    symbolics: tuple[str, ...] = ()

    def condition(self) -> smt.Term:
        return smt.and_(self.guard, *self.defs)

    def add_symbolic(self, name: str) -> "CState":
        return replace(self, symbolics=self.symbolics + (name,))

    def and_guard(self, conjunct: smt.Term) -> "CState":
        return replace(self, guard=simplify(smt.and_(self.guard, conjunct)))

    def add_defs(self, *terms: smt.Term) -> "CState":
        return replace(self, defs=self.defs + terms)

    def write(self, address: int, value: smt.Term) -> "CState":
        cells = dict(self.cells)
        cells[address] = value
        return replace(self, cells=cells)

    def with_object(self, obj: CObj, init: smt.Term) -> "CState":
        cells = dict(self.cells)
        for i in range(obj.size):
            cells[obj.base + i] = init
        objects = dict(self.objects)
        objects[obj.base] = obj
        return replace(self, cells=cells, objects=objects)


# Control flow of statement execution.
_NORMAL = "normal"
_RETURN = "return"


@dataclass(frozen=True)
class StmtOutcome:
    state: CState
    flow: str = _NORMAL
    ret: Optional[smt.Term] = None


@dataclass(frozen=True)
class PathResult:
    """One completed execution path of a function."""

    state: CState
    ret: Optional[smt.Term]


@dataclass
class CSymConfig:
    max_loop_unroll: int = 32
    max_call_depth: int = 16
    max_lazy_objects_per_path: int = 16


# Driver hook for MIX(typed)/extern calls:
# (function name, arg terms, state) -> iterator of (state, return term or None)
CallHook = Callable[[str, list[smt.Term], CState], Iterator[tuple[CState, Optional[smt.Term]]]]


class CSymExecutor:
    """Executes mini-C functions symbolically, collecting warnings."""

    def __init__(
        self,
        program: CProgram,
        config: Optional[CSymConfig] = None,
        call_hook: Optional[CallHook] = None,
        budget: Optional[Budget] = None,
    ) -> None:
        self.program = program
        self.config = config or CSymConfig()
        self.call_hook = call_hook
        self.budget = budget
        self.warnings: list[CWarning] = []
        self._warned: set[tuple] = set()
        #: while the driver records a block: every warning :meth:`warn`
        #: is asked for, duplicates of earlier blocks' included, once each
        self.warn_log: Optional[list[CWarning]] = None
        #: trust ring 1 (MIXY half): the driver installs a callback that
        #: replays a fresh NULL_DEREF warning through the concrete mini-C
        #: interpreter; its verdict lands in ``witnesses`` keyed by the
        #: warning's :attr:`CWarning.key`.
        self.witness_checker: Optional[
            Callable[[CState, smt.Term, CWarning], Optional[object]]
        ] = None
        self.witnesses: dict[tuple, object] = {}
        #: per-hint fresh-symbol counters; :meth:`block_scope` swaps in a
        #: fresh set for each symbolic block
        self._hint_alpha = _hint_counters()
        self._next_address = 1
        self.fn_addresses: dict[str, int] = {}
        self.stats = {
            "forks": 0,
            "solver_calls": 0,
            "lazy_objects": 0,
            "paths": 0,
            "budget_breaches": 0,
        }
        #: name -> cell address of each global; installed by the driver
        #: (globals live at fixed addresses shared across paths).
        self.global_env: dict[str, int] = {}
        for name in program.functions:
            self.fn_addresses[name] = self._alloc_address(1)
        self._fn_by_address = {v: k for k, v in self.fn_addresses.items()}
        #: first address past the (stable) function addresses; every
        #: block scope starts allocating here
        self._address_base = self._next_address

    # -- allocation ----------------------------------------------------------------

    def _alloc_address(self, size: int) -> int:
        base = self._next_address
        self._next_address += max(size, 1)
        return base

    @contextmanager
    def block_scope(self) -> Iterator[None]:
        """Name fresh symbols and addresses per hint, per block.

        The driver enters one scope per symbolic block run, nested blocks
        and store replays included: the per-hint counters restart,
        allocation rewinds to just past the function addresses, and both
        are restored on exit.  A block's terms are then a function of
        (program, calling context), so its re-run in a later fixpoint
        round or in a speculative worker builds formulas the query cache
        already answered, and skipping a block shifts no other block's
        names.  Counters are per hint, not one sequence, so a context
        change that adds one symbol does not rename every later one.

        Invariant: reused names never meet.  Every block starts from a
        fresh :meth:`initial_state` and only qualifier-variable
        conclusions flow back to its caller (a typed call's effect on the
        caller's state is a havoc drawn from the caller's restored
        scope), so a nested block's names never share a path condition
        with the enclosing block's."""
        saved = self._hint_alpha, self._next_address
        self._hint_alpha = _hint_counters()
        self._next_address = self._address_base
        try:
            yield
        finally:
            self._hint_alpha, self._next_address = saved

    def fresh_symbol(self, hint: str = "c") -> smt.Term:
        """A fresh integer symbol ``hint!N``: N counts this hint's
        symbols within the current :meth:`block_scope`."""
        return smt.var(f"{hint}!{next(self._hint_alpha[hint])}", smt.INT)

    def object_size(self, ctype: CType) -> int:
        if isinstance(ctype, StructType):
            return max(len(self.program.struct_def(ctype).fields), 1)
        return 1

    def allocate_object(
        self, state: CState, ctype: CType, label: str, init: Optional[smt.Term] = None
    ) -> tuple[CState, CObj]:
        size = self.object_size(ctype)
        obj = CObj(self._alloc_address(size), size, ctype, label)
        return state.with_object(obj, init if init is not None else smt.int_const(0)), obj

    def initial_state(self) -> CState:
        return CState(smt.true(), (), {}, {})

    # -- warnings / feasibility ----------------------------------------------------

    def warn(self, kind: CErrKind, message: str, function: str) -> Optional[CWarning]:
        """Record a warning; returns it when fresh, ``None`` on a dup."""
        warning = CWarning(kind, message, function)
        log = self.warn_log
        if log is not None and warning not in log:
            log.append(warning)
        if warning.key in self._warned:
            return None
        self._warned.add(warning.key)
        self.warnings.append(warning)
        return warning

    def _relay_witness(
        self, warning: Optional[CWarning], state: CState, ptr: smt.Term
    ) -> None:
        """Ask the driver's witness checker to replay a fresh warning."""
        if warning is None or self.witness_checker is None:
            return
        witness = self.witness_checker(state, ptr, warning)
        if witness is not None:
            self.witnesses[warning.key] = witness

    @property
    def solver_stats(self) -> "smt.SolverStats":
        """Counters of the shared solver service (queries, cache tiers)."""
        return smt.get_service().stats

    def _deadline_hit(self) -> bool:
        return self.budget is not None and self.budget.expired()

    def _budget_breach(self, counter: str, message: str, function: str) -> None:
        """Record a governor breach: a CWarning (so ``Mixy.warnings`` shows
        it), an executor stat, and the shared service's breach counter."""
        self.stats["budget_breaches"] += 1
        stats = smt.get_service().stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        if TRACER.enabled:
            TRACER.event("budget.breach", counter=counter, function=function)
        self.warn(CErrKind.BUDGET, message, function)

    def feasible(self, state: CState, extra: Optional[smt.Term] = None) -> bool:
        self.stats["solver_calls"] += 1
        formula = state.condition() if extra is None else smt.and_(state.condition(), extra)
        try:
            return smt.is_satisfiable(formula)
        except smt.SolverError:
            return True

    # -- function execution -----------------------------------------------------------

    def execute_function(
        self,
        fn: CFunction,
        args: list[smt.Term],
        state: CState,
        depth: int = 0,
    ) -> Iterator[PathResult]:
        """All paths through ``fn`` with the given argument values."""
        assert fn.body is not None, f"{fn.name} has no body"
        if depth > self.config.max_call_depth:
            self.warn(
                CErrKind.RECURSION,
                f"call depth exceeded at {fn.name}",
                fn.name,
            )
            yield PathResult(state, self._havoc_return(fn.ret))
            return
        env: dict[str, int] = {}
        local_types = {p.name: p.typ for p in fn.params}
        _collect_locals(fn.body, local_types)
        # Parameters and locals are addressable cells (C takes &local).
        for param, value in zip(fn.params, args):
            state, obj = self.allocate_object(state, param.typ, f"{fn.name}.{param.name}")
            state = state.write(obj.base, value)
            env[param.name] = obj.base
        for name, typ in local_types.items():
            if name in env:
                continue
            state, obj = self.allocate_object(state, typ, f"{fn.name}.{name}")
            env[name] = obj.base
        frame = _Frame(fn, env, TypeInfo(self.program, local_types), depth, lazy_budget=self.config.max_lazy_objects_per_path)
        for out in self._exec_stmt(fn.body, frame, state):
            # Paths are charged against the run budget only at the top of
            # the call stack: a path through a callee is part of exactly
            # one caller path, so charging at depth > 0 would double-count.
            if (
                depth == 0
                and self.budget is not None
                and not self.budget.charge_path()
            ):
                self._budget_breach(
                    "path_budget_breaches",
                    f"path budget exhausted ({self.budget.max_paths} paths) "
                    f"in {fn.name}: remaining frontier abandoned",
                    fn.name,
                )
                return
            self.stats["paths"] += 1
            if depth == 0 and TRACER.enabled:
                TRACER.event("path.complete", function=fn.name)
            yield PathResult(out.state, out.ret)

    def _havoc_return(self, ret_type: CType) -> Optional[smt.Term]:
        if ret_type == VOID_T:
            return None
        return self.fresh_symbol("ret")

    # -- statements ---------------------------------------------------------------

    def _exec_stmt(self, stmt: CStmt, frame: "_Frame", state: CState) -> Iterator[StmtOutcome]:
        if isinstance(stmt, Block):
            yield from self._exec_block(stmt.stmts, 0, frame, state)
        elif isinstance(stmt, VarDecl):
            if stmt.init is None:
                yield StmtOutcome(state)
                return
            for s1, value in self._eval(stmt.init, frame, state):
                yield StmtOutcome(s1.write(frame.env[stmt.name], value))
        elif isinstance(stmt, ExprStmt):
            for s1, _value in self._eval(stmt.expr, frame, state):
                yield StmtOutcome(s1)
        elif isinstance(stmt, If):
            yield from self._exec_if(stmt, frame, state)
        elif isinstance(stmt, While):
            yield from self._exec_while(stmt, frame, state, self.config.max_loop_unroll)
        elif isinstance(stmt, Return):
            if stmt.value is None:
                yield StmtOutcome(state, _RETURN, None)
                return
            for s1, value in self._eval(stmt.value, frame, state):
                yield StmtOutcome(s1, _RETURN, value)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {stmt!r}")

    def _exec_block(
        self, stmts: tuple[CStmt, ...], index: int, frame: "_Frame", state: CState
    ) -> Iterator[StmtOutcome]:
        if index >= len(stmts):
            yield StmtOutcome(state)
            return
        for out in self._exec_stmt(stmts[index], frame, state):
            if out.flow is _RETURN:
                yield out
            else:
                yield from self._exec_block(stmts, index + 1, frame, out.state)

    def _exec_if(self, stmt: If, frame: "_Frame", state: CState) -> Iterator[StmtOutcome]:
        if self._deadline_hit():
            self._budget_breach(
                "deadline_breaches",
                f"run deadline reached at a branch in {frame.fn.name}: "
                "paths abandoned",
                frame.fn.name,
            )
            return
        for s1, cond in self._eval(stmt.cond, frame, state):
            guard = simplify(smt.not_(smt.eq(cond, smt.int_const(0))))
            branches = []
            if not guard.is_false:
                branches.append((stmt.then, guard))
            else_block = stmt.els if stmt.els is not None else Block(())
            if not guard.is_true:
                branches.append((else_block, simplify(smt.not_(guard))))
            if len(branches) > 1:
                self.stats["forks"] += 1
                if TRACER.enabled:
                    TRACER.event(
                        "path.fork", pc_size=conjunct_count(s1.condition())
                    )
            for block, extension in branches:
                branch_state = s1.and_guard(extension)
                if len(branches) > 1 and not self.feasible(branch_state):
                    continue
                yield from self._exec_stmt(block, frame, branch_state)

    def _exec_while(
        self, stmt: While, frame: "_Frame", state: CState, remaining: int
    ) -> Iterator[StmtOutcome]:
        if self._deadline_hit():
            self._budget_breach(
                "deadline_breaches",
                f"run deadline reached inside a loop in {frame.fn.name}: "
                "remaining iterations abandoned",
                frame.fn.name,
            )
            return
        for s1, cond in self._eval(stmt.cond, frame, state):
            guard = simplify(smt.not_(smt.eq(cond, smt.int_const(0))))
            # Exit path.
            if not guard.is_true:
                exit_state = s1.and_guard(smt.not_(guard))
                if guard.is_false or self.feasible(exit_state):
                    yield StmtOutcome(exit_state)
            # Iterate path.
            if not guard.is_false:
                enter = s1 if guard.is_true else s1.and_guard(guard)
                if not guard.is_true and not self.feasible(enter):
                    continue
                if remaining <= 0:
                    self.warn(
                        CErrKind.LOOP_BOUND,
                        f"while loop in {frame.fn.name} exceeded unroll budget",
                        frame.fn.name,
                    )
                    continue
                for out in self._exec_stmt(stmt.body, frame, enter):
                    if out.flow is _RETURN:
                        yield out
                    else:
                        yield from self._exec_while(stmt, frame, out.state, remaining - 1)

    # -- expressions -----------------------------------------------------------------

    def _eval(
        self, expr: CExpr, frame: "_Frame", state: CState
    ) -> Iterator[tuple[CState, smt.Term]]:
        if isinstance(expr, IntLit):
            yield state, smt.int_const(expr.value)
        elif isinstance(expr, NullLit):
            yield state, smt.int_const(0)
        elif isinstance(expr, StrLit):
            new_state, obj = self.allocate_object(
                state, Scalar("char"), f'"{expr.value[:12]}"'
            )
            yield new_state, smt.int_const(obj.base)
        elif isinstance(expr, VarRef):
            yield from self._eval_var(expr, frame, state)
        elif isinstance(expr, Deref):
            for s1, ptr in self._eval(expr.ptr, frame, state):
                pointee = self._pointee_type(expr.ptr, frame)
                yield from self._load(s1, ptr, pointee, 0, frame, f"*{_describe(expr.ptr)}")
        elif isinstance(expr, AddrOf):
            yield from self._eval_addrof(expr, frame, state)
        elif isinstance(expr, Field):
            yield from self._eval_field(expr, frame, state)
        elif isinstance(expr, Unary):
            for s1, operand in self._eval(expr.operand, frame, state):
                if expr.op == "-":
                    yield s1, simplify(smt.neg(operand))
                else:  # "!"
                    yield s1, simplify(
                        smt.ite(
                            smt.eq(operand, smt.int_const(0)),
                            smt.int_const(1),
                            smt.int_const(0),
                        )
                    )
        elif isinstance(expr, Binary):
            yield from self._eval_binary(expr, frame, state)
        elif isinstance(expr, Assign):
            yield from self._eval_assign(expr, frame, state)
        elif isinstance(expr, Call):
            yield from self._eval_call(expr, frame, state)
        elif isinstance(expr, Malloc):
            new_state, obj = self.allocate_object(state, expr.typ, f"malloc({expr.typ})")
            yield new_state, smt.int_const(obj.base)
        elif isinstance(expr, Cast):
            yield from self._eval(expr.operand, frame, state)
        elif isinstance(expr, Symbolic):
            alpha = self.fresh_symbol("symbolic")
            yield state.add_symbolic(str(alpha.payload)), alpha
        elif isinstance(expr, Assume):
            yield from self._eval_assume(expr, frame, state)
        elif isinstance(expr, Check):
            yield from self._eval_check(expr, frame, state)
        else:  # pragma: no cover - defensive
            raise CTypeError(f"cannot evaluate {expr!r}")

    def _eval_assume(
        self, expr: Assume, frame: "_Frame", state: CState
    ) -> Iterator[tuple[CState, smt.Term]]:
        """``assume(e)``: drop paths where ``e`` is false.  MIXY has no
        exhaustiveness obligation (it is a KLEE-style warning analysis),
        so the closed arm is simply not explored."""
        for s1, cond in self._eval(expr.cond, frame, state):
            guard = simplify(smt.not_(smt.eq(cond, smt.int_const(0))))
            if guard.is_false:
                continue
            s2 = s1 if guard.is_true else s1.and_guard(guard)
            if not guard.is_true and not self.feasible(s2):
                continue
            yield s2, smt.int_const(1)

    def _eval_check(
        self, expr: Check, frame: "_Frame", state: CState
    ) -> Iterator[tuple[CState, smt.Term]]:
        """``check(e)``: warn if the failing branch is feasible, then
        continue on the passing branch (the failure has been reported;
        re-deriving its consequences downstream adds no information)."""
        if self._deadline_hit():
            self._budget_breach(
                "deadline_breaches",
                f"run deadline reached at a check in {frame.fn.name}: "
                "paths abandoned",
                frame.fn.name,
            )
            return
        for s1, cond in self._eval(expr.cond, frame, state):
            guard = simplify(smt.not_(smt.eq(cond, smt.int_const(0))))
            fail_guard = simplify(smt.not_(guard))
            if not fail_guard.is_false:
                fail_state = s1.and_guard(fail_guard)
                if fail_guard.is_true or self.feasible(fail_state):
                    self.stats["forks"] += 1
                    if TRACER.enabled:
                        TRACER.event(
                            "path.fork", pc_size=conjunct_count(s1.condition())
                        )
                    from repro.mixy.c.pretty import expr_text

                    warning = self.warn(
                        CErrKind.CHECK_FAIL,
                        f"check({expr_text(expr.cond)}) can fail in {frame.fn.name}",
                        frame.fn.name,
                    )
                    self._relay_witness(warning, fail_state, cond)
            if guard.is_false:
                continue
            s2 = s1 if guard.is_true else s1.and_guard(guard)
            if not guard.is_true and not self.feasible(s2):
                continue
            yield s2, smt.int_const(1)

    def _eval_var(self, expr: VarRef, frame: "_Frame", state: CState) -> Iterator[tuple[CState, smt.Term]]:
        name = expr.name
        if name in frame.env:
            yield state, self._read_cell(state, frame.env[name])
        elif name in self.global_env:
            yield state, self._read_cell(state, self.global_env[name])
        elif name in self.fn_addresses:
            yield state, smt.int_const(self.fn_addresses[name])
        else:
            raise CTypeError(f"unknown identifier {name}")

    def _read_cell(self, state: CState, address: int) -> smt.Term:
        return state.cells.get(address, smt.int_const(0))

    def _eval_addrof(self, expr: AddrOf, frame: "_Frame", state: CState):
        target = expr.target
        if isinstance(target, VarRef):
            if target.name in frame.env:
                yield state, smt.int_const(frame.env[target.name])
                return
            if target.name in self.global_env:
                yield state, smt.int_const(self.global_env[target.name])
                return
            if target.name in self.fn_addresses:
                yield state, smt.int_const(self.fn_addresses[target.name])
                return
            raise CTypeError(f"&{target.name}: unknown identifier")
        if isinstance(target, Deref):  # &*e == e
            yield from self._eval(target.ptr, frame, state)
            return
        if isinstance(target, Field):
            yield from self._field_address(target, frame, state)
            return
        raise CTypeError(f"cannot take the address of {target!r}")

    def _field_address(self, expr: Field, frame: "_Frame", state: CState):
        """Address of a field lvalue, forking over pointer resolutions."""
        if expr.arrow:
            struct_type = self._pointee_type(expr.obj, frame)
            for s1, ptr in self._eval(expr.obj, frame, state):
                for s2, base in self._resolve_pointer(
                    s1, ptr, struct_type, frame, f"{_describe(expr.obj)}->{expr.name}"
                ):
                    offset = self._field_offset(struct_type, expr.name)
                    yield s2, smt.int_const(base + offset)
        else:
            # e.f where e is a local/global struct variable.
            obj = expr.obj
            if isinstance(obj, VarRef):
                base = frame.env.get(obj.name, self.global_env.get(obj.name))
                if base is None:
                    raise CTypeError(f"unknown identifier {obj.name}")
                struct_type = frame.types.type_of(obj)
                yield state, smt.int_const(base + self._field_offset(struct_type, expr.name))
            else:
                raise CTypeError(f"unsupported field base {obj!r}")

    def _field_offset(self, struct_type: CType, fname: str) -> int:
        struct = self.program.struct_def(struct_type)
        return struct.field_index(fname)

    def _eval_field(self, expr: Field, frame: "_Frame", state: CState):
        field_type = frame.types.type_of(expr)
        for s1, address in self._field_address(expr, frame, state):
            assert address.is_const
            yield s1, self._read_cell(s1, address.payload)  # type: ignore[arg-type]

    def _eval_binary(self, expr: Binary, frame: "_Frame", state: CState):
        op = expr.op
        if op in ("&&", "||"):
            # C short-circuits: the right operand's *effects* must only
            # happen on the paths where it is evaluated, so fork.
            yield from self._eval_short_circuit(expr, frame, state)
            return
        for s1, left in self._eval(expr.left, frame, state):
            for s2, right in self._eval(expr.right, frame, s1):
                if op == "/":
                    yield from self._eval_division(expr, frame, s2, left, right)
                else:
                    yield s2, self._binary_term(op, left, right)

    def _eval_division(
        self, expr: Binary, frame: "_Frame", state: CState, left: smt.Term, right: smt.Term
    ):
        from repro.smt.encodings import encode_trunc_div, trunc_div_constant

        left = simplify(left)
        right = simplify(right)
        if not right.is_const:
            self.warn(
                CErrKind.UNSUPPORTED,
                f"division by a symbolic value in {frame.fn.name}",
                frame.fn.name,
            )
            return
        divisor = right.payload
        assert isinstance(divisor, int)
        if divisor == 0:
            # Undefined behavior in C; the path dies with a warning.
            self.warn(
                CErrKind.UNSUPPORTED,
                f"division by zero in {frame.fn.name}",
                frame.fn.name,
            )
            return
        if left.is_const:
            assert isinstance(left.payload, int)
            yield state, smt.int_const(trunc_div_constant(left.payload, divisor))
            return
        quotient = self.fresh_symbol("q")
        yield state.add_defs(encode_trunc_div(left, divisor, quotient)), quotient

    def _eval_short_circuit(self, expr: Binary, frame: "_Frame", state: CState):
        decided = smt.int_const(0) if expr.op == "&&" else smt.int_const(1)
        for s1, left in self._eval(expr.left, frame, state):
            left_true = simplify(smt.not_(smt.eq(left, smt.int_const(0))))
            # Short-circuit side: && with false left / || with true left.
            skip_guard = smt.not_(left_true) if expr.op == "&&" else left_true
            eval_guard = left_true if expr.op == "&&" else smt.not_(left_true)
            if not simplify(skip_guard).is_false:
                skip_state = s1.and_guard(skip_guard)
                if simplify(skip_guard).is_true or self.feasible(skip_state):
                    yield skip_state, decided
            if not simplify(eval_guard).is_false:
                eval_state = s1.and_guard(eval_guard)
                if not simplify(eval_guard).is_true and not self.feasible(eval_state):
                    continue
                for s2, right in self._eval(expr.right, frame, eval_state):
                    yield s2, simplify(
                        smt.ite(
                            smt.eq(right, smt.int_const(0)),
                            smt.int_const(0),
                            smt.int_const(1),
                        )
                    )

    def _binary_term(self, op: str, left: smt.Term, right: smt.Term) -> smt.Term:
        def boolint(term: smt.Term) -> smt.Term:
            return simplify(smt.ite(term, smt.int_const(1), smt.int_const(0)))

        if op == "+":
            return simplify(smt.add(left, right))
        if op == "-":
            return simplify(smt.sub(left, right))
        if op == "*":
            return simplify(smt.mul(left, right))
        if op == "==":
            return boolint(smt.eq(left, right))
        if op == "!=":
            return boolint(smt.not_(smt.eq(left, right)))
        if op == "<":
            return boolint(smt.lt(left, right))
        if op == "<=":
            return boolint(smt.le(left, right))
        if op == ">":
            return boolint(smt.gt(left, right))
        if op == ">=":
            return boolint(smt.ge(left, right))
        if op == "&&":
            return boolint(
                smt.and_(
                    smt.not_(smt.eq(left, smt.int_const(0))),
                    smt.not_(smt.eq(right, smt.int_const(0))),
                )
            )
        if op == "||":
            return boolint(
                smt.or_(
                    smt.not_(smt.eq(left, smt.int_const(0))),
                    smt.not_(smt.eq(right, smt.int_const(0))),
                )
            )
        raise CTypeError(f"unknown operator {op}")

    def _eval_assign(self, expr: Assign, frame: "_Frame", state: CState):
        for s1, value in self._eval(expr.rhs, frame, state):
            yield from self._store_lvalue(expr.lhs, value, frame, s1)

    def _store_lvalue(self, lhs: CExpr, value: smt.Term, frame: "_Frame", state: CState):
        if isinstance(lhs, VarRef):
            address = frame.env.get(lhs.name, self.global_env.get(lhs.name))
            if address is None:
                raise CTypeError(f"unknown identifier {lhs.name}")
            yield state.write(address, value), value
            return
        if isinstance(lhs, Deref):
            pointee = self._pointee_type(lhs.ptr, frame)
            for s1, ptr in self._eval(lhs.ptr, frame, state):
                for s2, base in self._resolve_pointer(
                    s1, ptr, pointee, frame, f"*{_describe(lhs.ptr)}"
                ):
                    yield s2.write(base, value), value
            return
        if isinstance(lhs, Field):
            for s1, address in self._field_address(lhs, frame, state):
                assert address.is_const
                yield s1.write(address.payload, value), value  # type: ignore[arg-type]
            return
        raise CTypeError(f"cannot assign to {lhs!r}")

    # -- memory ------------------------------------------------------------------------

    def _pointee_type(self, ptr_expr: CExpr, frame: "_Frame") -> CType:
        typ = frame.types.type_of(ptr_expr)
        if isinstance(typ, PtrType):
            return typ.elem
        return Scalar("int")

    def _load(
        self,
        state: CState,
        ptr: smt.Term,
        pointee: CType,
        offset: int,
        frame: "_Frame",
        description: str,
    ) -> Iterator[tuple[CState, smt.Term]]:
        for s1, base in self._resolve_pointer(state, ptr, pointee, frame, description):
            yield s1, self._read_cell(s1, base + offset)

    def _resolve_pointer(
        self,
        state: CState,
        ptr: smt.Term,
        pointee: CType,
        frame: "_Frame",
        description: str,
    ) -> Iterator[tuple[CState, int]]:
        """All feasible targets of a dereference; reports NULL paths.

        This is the expensive operation the paper's §4.6 describes:
        "translating symbolic pointers ... becomes slow because we first
        need to check if each pointer target is valid in the current path
        condition by calling the SMT solver".
        """
        ptr = simplify(ptr)
        # Null-dereference check: is ptr = 0 feasible here?
        null_case = smt.eq(ptr, smt.int_const(0))
        if ptr.is_const:
            if ptr.payload == 0:
                warning = self.warn(
                    CErrKind.NULL_DEREF, f"{description} is NULL", frame.fn.name
                )
                self._relay_witness(warning, state, ptr)
                return
        elif self.feasible(state, null_case):
            warning = self.warn(
                CErrKind.NULL_DEREF, f"{description} may be NULL", frame.fn.name
            )
            self._relay_witness(warning, state, ptr)
        state = state.and_guard(smt.not_(null_case)) if not ptr.is_const else state
        candidates = sorted(
            address
            for address in _constant_leaves(ptr)
            if address in state.objects or address in self._base_objects(state)
        )
        found = False
        for address in candidates:
            eq_case = smt.eq(ptr, smt.int_const(address))
            if ptr.is_const:
                if ptr.payload == address:
                    found = True
                    yield state, address
                continue
            if self.feasible(state, eq_case):
                found = True
                yield state.and_guard(eq_case), address
        if found or ptr.is_const:
            return
        # Unconstrained pointer: lazily materialize a fresh object.
        if frame.lazy_budget <= 0:
            self.warn(
                CErrKind.UNSUPPORTED,
                f"{description}: lazy initialization budget exhausted",
                frame.fn.name,
            )
            return
        frame.lazy_budget -= 1
        self.stats["lazy_objects"] += 1
        init = self.fresh_symbol("mem")
        new_state, obj = self.allocate_object(
            state, pointee, f"lazy:{description}", init=init
        )
        constrained = new_state.and_guard(smt.eq(ptr, smt.int_const(obj.base)))
        yield constrained, obj.base

    def _base_objects(self, state: CState) -> dict[int, CObj]:
        return state.objects

    # -- calls -----------------------------------------------------------------------

    def _eval_call(self, expr: Call, frame: "_Frame", state: CState):
        # Evaluate arguments left to right.
        def eval_args(args, s, acc):
            if not args:
                yield s, list(acc)
                return
            for s1, value in self._eval(args[0], frame, s):
                yield from eval_args(args[1:], s1, acc + [value])

        for s1, arg_values in eval_args(list(expr.args), state, []):
            yield from self._dispatch_call(expr, arg_values, frame, s1)

    def _dispatch_call(self, expr: Call, args: list[smt.Term], frame: "_Frame", state: CState):
        target: Optional[str] = None
        if isinstance(expr.fn, VarRef) and expr.fn.name in self.program.functions:
            target = expr.fn.name
            yield from self._call_named(target, expr, args, frame, state)
            return
        # A call through a function pointer: resolve to function addresses.
        for s1, fn_value in self._eval(expr.fn, frame, state):
            fn_value = simplify(fn_value)
            resolved = False
            for address in sorted(_constant_leaves(fn_value)):
                name = self._fn_by_address.get(address)
                if name is None:
                    continue
                eq_case = smt.eq(fn_value, smt.int_const(address))
                if fn_value.is_const:
                    if fn_value.payload == address:
                        resolved = True
                        yield from self._call_named(name, expr, args, frame, s1)
                elif self.feasible(s1, eq_case):
                    resolved = True
                    yield from self._call_named(
                        name, expr, args, frame, s1.and_guard(eq_case)
                    )
            if not resolved:
                # A symbolic function pointer: beyond the executor (Case 4).
                self.warn(
                    CErrKind.UNSUPPORTED,
                    f"call through symbolic function pointer "
                    f"{_describe(expr.fn)} in {frame.fn.name}",
                    frame.fn.name,
                )
                yield s1, smt.int_const(0)

    def _call_named(self, name: str, expr: Call, args: list[smt.Term], frame: "_Frame", state: CState):
        callee = self.program.functions[name]
        use_hook = callee.body is None or callee.mix == "typed"
        if use_hook and self.call_hook is not None:
            for s1, ret in self.call_hook(name, args, state):
                yield s1, ret if ret is not None else smt.int_const(0)
            return
        if callee.body is None:
            # Extern with no driver attached: havoc the return value.
            yield state, self.fresh_symbol(f"ret_{name}")
            return
        for result in self.execute_function(callee, args, state, frame.depth + 1):
            ret = result.ret if result.ret is not None else smt.int_const(0)
            yield result.state, ret


@dataclass
class _Frame:
    fn: CFunction
    env: dict[str, int]
    types: TypeInfo
    depth: int
    # No default: the caller must pass config.max_lazy_objects_per_path,
    # otherwise a frame silently ignores the configured lazy-object cap.
    lazy_budget: int


def _hint_counters() -> defaultdict:
    """hint -> its own fresh-symbol ordinal sequence, starting at 1."""
    return defaultdict(lambda: itertools.count(1))


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


def _constant_leaves(term: smt.Term) -> set[int]:
    """Integer constants appearing in a term (candidate addresses)."""
    from repro.smt.terms import Kind

    out: set[int] = set()
    for sub in term.subterms():
        if sub.kind is Kind.CONST_INT:
            out.add(sub.payload)  # type: ignore[arg-type]
    return out


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
    if isinstance(expr, Call):
        return f"{_describe(expr.fn)}(...)"
    return type(expr).__name__.lower()
