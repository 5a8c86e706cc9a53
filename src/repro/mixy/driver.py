"""The MIXY driver: switching between qualifier inference and symbolic
execution at function boundaries (paper Sections 4.1-4.4).

In **typed entry** mode (how the paper's evaluation ran), qualifier
inference starts at the entry function and covers every function
reachable in the call graph "up to the frontier of any functions that are
marked with MIX(symbolic)"; each frontier function is then analyzed
symbolically:

- *types -> symbolic values* (§4.1): a parameter or global whose inferred
  qualifier is ``nonnull`` becomes a pointer to a fresh memory cell; one
  that may be ``null`` becomes ``ite(α, loc, 0)`` so the executor tries
  both; an unconstrained qualifier variable is optimistically assumed
  ``nonnull`` — which is what forces the **fixpoint iteration**: later
  discoveries re-run the symbolic block until nothing changes.
- *symbolic values -> types* (§4.1): for each translated cell with final
  value ``s``, if ``g ∧ (s = 0)`` is satisfiable the corresponding slot
  is constrained ``null``; "there are no nonnull constraints to be
  added".
- *aliasing* (§4.2): when returning to typed code, may-aliased
  expressions (per the Andersen analysis) are unified so the inference
  sees the aliasing the symbolic block exploited.
- *caching* (§4.3): symbolic block results are cached keyed on the
  calling context — "the types for all variables that will be translated
  into symbolic values"; compatible contexts reuse the translated types.
- *recursion* (§4.4): a block stack detects a block re-entered with a
  compatible context; the recursive entry returns the optimistic
  assumption and the whole analysis iterates to a fixpoint.

In **symbolic entry** mode the executor starts at the entry function
(globals zero-initialized, C-style); calls to ``MIX(typed)`` or extern
functions switch to the qualifier engine through the executor's call
hook and resume with a havocked return value and memory.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro import smt
from repro.budget import Budget
from repro.core.config import _env_flag, _env_int
from repro.mixy.c.ast import (
    Call,
    CFunction,
    CProgram,
    CType,
    FunType,
    PtrType,
    Scalar,
    StructType,
    VOID_T,
)
from repro.mixy.c.parser import parse_program
from repro.mixy.c.typeinfo import CTypeError
from repro.mixy.pointers import PointsTo, obj_global, obj_local
from repro.mixy.qual import (
    NONNULL,
    NULL,
    QConst,
    QualConfig,
    QualInference,
    QualType,
    QualWarning,
    QVar,
)
from repro.mixy.symexec import (
    CErrKind,
    CObj,
    CState,
    CSymConfig,
    CSymExecutor,
    CWarning,
    PathResult,
)
from repro.smt.simplify import simplify
from repro.trace import TRACER

if TYPE_CHECKING:
    from repro.parallel import ParallelEngine
    from repro.witness import Witness


@dataclass(frozen=True)
class Warning_:
    """A MIXY warning, from either engine."""

    origin: str  # "qual" | "symbolic"
    message: str
    #: trust ring 1: replay classification (CONFIRMED / UNCONFIRMED /
    #: REPLAY_DIVERGED); None unless MixyConfig.validate_witnesses is on.
    witness: Optional["Witness"] = None

    def __str__(self) -> str:
        rendered = f"[{self.origin}] {self.message}"
        if self.witness is not None:
            rendered += f" [witness: {self.witness}]"
        return rendered


@dataclass
class MixyConfig:
    qual: QualConfig = field(default_factory=QualConfig)
    csym: CSymConfig = field(default_factory=CSymConfig)
    #: cache symbolic-block results per calling context (§4.3)
    enable_cache: bool = True
    #: restore may-alias relationships when entering typed code (§4.2)
    restore_aliasing: bool = True
    #: havoc memory reachable from a typed call's arguments and globals
    #: (False approximates the paper's proposed effect-based refinement)
    havoc_on_typed_call: bool = True
    #: fixpoint iteration cap (§4.1)
    max_fixpoint_iters: int = 8
    #: resource governor for the run; ``None`` means ungoverned.  On a
    #: breach inside a symbolic block the driver keeps the (sound) partial
    #: null facts and falls back to pure qualifier inference for the
    #: function, so the analysis always terminates with a conservative
    #: answer (see docs/ARCHITECTURE.md §1.2).
    budget: Optional[Budget] = None
    #: trust ring 1: replay each NULL_DEREF warning's error path through
    #: the concrete mini-C interpreter and attach a CONFIRMED /
    #: UNCONFIRMED / REPLAY_DIVERGED verdict (docs/ARCHITECTURE.md §1.3).
    #: Defaults from the REPRO_VALIDATE_WITNESSES environment variable.
    validate_witnesses: bool = field(
        default_factory=lambda: _env_flag("REPRO_VALIDATE_WITNESSES")
    )
    #: trust ring 3: catch unexpected exceptions during a symbolic
    #: block's analysis, degrade the function to pure qualifier inference
    #: (the budget-breach fallback), and write a shrunken crash repro
    #: instead of taking the whole run down.
    contain_crashes: bool = True
    #: where contained crashes write their minimized repro reports
    crash_dir: str = ".repro-crashes"
    #: worker processes for the parallel engine (``--jobs``; see
    #: repro.parallel): each fixpoint round's symbolic frontier is
    #: speculatively fanned out and the warmed query cache merged back
    #: before the authoritative serial pass.  1 = no fan-out.  Defaults
    #: from the REPRO_JOBS environment variable.
    jobs: int = field(default_factory=lambda: _env_int("REPRO_JOBS", 1))
    #: cross-run analysis store (``--store DIR``; see repro.store): an
    #: opened :class:`repro.store.AnalysisStore`, or None.  Block-result
    #: memos are consulted/recorded only with no budget, witness
    #: validation, or fault injection — exactly the conditions under
    #: which a skipped block's observable effects can be replayed bit
    #: for bit (see Mixy._store_active).
    store: Optional[object] = None


@dataclass
class _CacheEntry:
    null_slots: list[QVar]
    warnings: list[CWarning]


@dataclass
class _BlockExecution:
    """One symbolic block execution's results plus the bookkeeping the
    cross-run store needs to replay it: null conclusions as indices into
    the (deterministic) watched list, and whether it made typed calls."""

    null_slots: list[QVar]
    warnings: list[CWarning]
    null_indices: tuple[int, ...]
    typed_calls_delta: int


@dataclass
class _ReplayContext:
    """Everything needed to replay a block's error path concretely:
    the entry function, its symbolic argument values, the materialized
    entry state, and baselines of the abstraction counters (typed-call
    havoc, lazy objects, truncation warnings) so a warning can tell
    whether its block run was exact."""

    fn: CFunction
    args: list[smt.Term]
    state: CState
    global_env: dict[str, int]
    typed_calls: int
    lazy_objects: int
    warnings_len: int


#: Warning kinds whose presence means the block run abstracted something
#: the concrete replay executes for real — never classify DIVERGED then.
_INEXACT_KINDS = (CErrKind.RECURSION, CErrKind.UNSUPPORTED, CErrKind.BUDGET)


class Mixy:
    """The MIXY analysis over one mini-C program."""

    def __init__(
        self, program: Union[CProgram, str], config: Optional[MixyConfig] = None
    ) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.config = config or MixyConfig()
        self.points_to = PointsTo(program)
        self.qual = QualInference(
            program, self.config.qual, callees_of=self.points_to.callees
        )
        self.executor = CSymExecutor(
            program,
            self.config.csym,
            call_hook=self._typed_call_hook,
            budget=self.config.budget,
        )
        if self.config.validate_witnesses:
            self.executor.witness_checker = self._check_witness
        self._replay_context: Optional[_ReplayContext] = None
        self._entry: tuple[str, str] = ("typed", "main")
        self._cache: dict[tuple, _CacheEntry] = {}
        self._block_stack: list[tuple] = []
        #: entry -> (qualifier-graph edge count, (typed, frontier)); the
        #: call-graph walk is invalidated only when the graph gained edges
        self._partition_cache: dict[str, tuple[int, tuple[frozenset[str], frozenset[str]]]] = {}
        #: store-key parts that are fixed for the run (the program and
        #: its points-to graph never change): per-function pretty text,
        #: callee cones, and the struct-layout texts
        self._function_texts: dict[str, str] = {}
        self._cones: dict[str, frozenset[str]] = {}
        self._struct_texts: Optional[tuple[str, ...]] = None
        self._parallel: Optional["ParallelEngine"] = None
        if self.config.jobs > 1:
            # Where fork fan-out is impossible (inside a pool worker, on
            # fork-less platforms) the engine's warm_mixy_round no-ops.
            from repro.parallel import ParallelEngine

            self._parallel = ParallelEngine(self.config.jobs)
        self.stats = {
            "fixpoint_iterations": 0,
            "symbolic_blocks_run": 0,
            "cache_hits": 0,
            "recursion_detected": 0,
            "typed_calls": 0,
            "budget_fallbacks": 0,
            "analysis_seconds": 0.0,
            # per-run deltas of the shared solver service (see run())
            "solver_queries": 0,
            "solver_cache_hits": 0,
            "solver_full_solves": 0,
        }

    @property
    def solver_stats(self) -> "smt.SolverStats":
        """Counters of the shared solver service (queries, cache tiers)."""
        return smt.get_service().stats

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, entry: str = "typed", entry_function: str = "main") -> list[Warning_]:
        """Analyze the program; returns all warnings."""
        started = time.perf_counter()
        if entry_function not in self.program.functions:
            raise KeyError(entry_function)
        svc = self.solver_stats
        queries0, hits0, solves0 = svc.queries, svc.cache_hits, svc.full_solves
        budget = self.config.budget
        if budget is not None:
            budget.start()  # idempotent: the run clock arms here
        self._entry = (entry, entry_function)  # crash probes re-run this
        with smt.get_service().governed(budget), TRACER.span(
            "run", f"mixy:{entry}:{entry_function}"
        ):
            if entry == "typed":
                self._run_typed(entry_function)
            elif entry == "symbolic":
                self._run_symbolic(entry_function)
            else:
                raise ValueError(
                    f"entry must be 'typed' or 'symbolic', got {entry!r}"
                )
        self.stats["analysis_seconds"] = time.perf_counter() - started
        self.stats["solver_queries"] += svc.queries - queries0
        self.stats["solver_cache_hits"] += svc.cache_hits - hits0
        self.stats["solver_full_solves"] += svc.full_solves - solves0
        return self.warnings()

    def warnings(self) -> list[Warning_]:
        out = [Warning_("qual", str(w)) for w in self.qual.warnings()]
        out.extend(
            Warning_(
                "symbolic", str(w), witness=self.executor.witnesses.get(w.key)
            )
            for w in self.executor.warnings
            if w.kind is not CErrKind.LOOP_BOUND
        )
        return out

    # ------------------------------------------------------------------
    # Typed entry: qualifier inference up to the symbolic frontier
    # ------------------------------------------------------------------

    def _run_typed(self, entry_function: str) -> None:
        self.qual.constrain_globals()
        for iteration in range(self.config.max_fixpoint_iters):
            self.stats["fixpoint_iterations"] += 1
            with TRACER.span("mixy.round", f"round{iteration + 1}") as round_span:
                edges_before = self.qual.graph.num_edges
                warnings_before = len(self.executor.warnings)
                typed, frontier = self._reachable_partition(entry_function)
                for name in sorted(typed):
                    self.qual.constrain_function(name)
                ordered = sorted(frontier)
                if round_span is not None:
                    round_span.fields["frontier"] = len(ordered)
                    round_span.fields["typed"] = len(typed)
                if self._parallel is not None:
                    # Speculative fan-out: workers fork off the current
                    # state, analyze the round's blocks, and send back query
                    # -cache deltas (merged in block-name order).  The serial
                    # loop below then recomputes everything authoritatively
                    # against the warmed cache, so its results are identical
                    # to --jobs 1 by construction (see repro.parallel).
                    self._parallel.warm_mixy_round(self, ordered)
                for name in ordered:
                    self._analyze_symbolic_function(name)
                unchanged = (
                    self.qual.graph.num_edges == edges_before
                    and len(self.executor.warnings) == warnings_before
                )
            if unchanged and iteration > 0:
                break

    def _reachable_partition(self, entry_function: str) -> tuple[set[str], set[str]]:
        """Functions reachable from the entry, split into (typed region,
        symbolic frontier).  Cached across fixpoint iterations: the walk
        depends on the call graph (via the points-to sets) and on nothing
        the iterations mutate except the qualifier graph, so a cached
        partition is reused until the graph has gained edges."""
        edges = self.qual.graph.num_edges
        cached = self._partition_cache.get(entry_function)
        if cached is not None and cached[0] == edges:
            typed, frontier = cached[1]
            return set(typed), set(frontier)
        typed, frontier = self._walk_reachable(entry_function)
        self._partition_cache[entry_function] = (
            edges,
            (frozenset(typed), frozenset(frontier)),
        )
        return typed, frontier

    def _walk_reachable(self, entry_function: str) -> tuple[set[str], set[str]]:
        typed: set[str] = set()
        frontier: set[str] = set()
        stack = [entry_function]
        while stack:
            name = stack.pop()
            fn = self.program.functions.get(name)
            if fn is None:
                continue
            if fn.mix == "symbolic":
                frontier.add(name)
                continue
            if name in typed:
                continue
            typed.add(name)
            if fn.body is not None:
                stack.extend(self._called_functions(fn))
        return typed, frontier

    def _called_functions(self, fn: CFunction) -> list[str]:
        out: list[str] = []
        for call, _ in _find_calls(fn):
            out.extend(self.points_to.callees(call, fn.name))
        return out

    # ------------------------------------------------------------------
    # Symbolic blocks from typed context (rule TSymBlock's MIXY analog)
    # ------------------------------------------------------------------

    def _analyze_symbolic_function(self, name: str) -> None:
        # Every block entry — top-level or nested, executed or replayed
        # from the store — names its symbols and addresses in its own
        # scope (see CSymExecutor.block_scope).
        with self.executor.block_scope():
            if not TRACER.enabled:
                return self._analyze_symbolic_inner(name, None)
            with TRACER.span("mixy.block", name) as span:
                return self._analyze_symbolic_inner(name, span)

    def _analyze_symbolic_inner(self, name: str, span) -> None:
        fn = self.program.functions[name]
        if fn.body is None:
            return
        context_key, context_slots = self._calling_context(fn)
        stack_key = (name, context_key)
        if stack_key in self._block_stack:
            # §4.4: recursion — return the optimistic assumption; the outer
            # fixpoint iterates until assumption and result agree.
            self.stats["recursion_detected"] += 1
            if span is not None:
                span.fields["recursion"] = True
            return
        if self.config.enable_cache:
            cached = self._cache.get(stack_key)
            if cached is not None:
                self.stats["cache_hits"] += 1
                if span is not None:
                    span.fields["cached"] = True
                self._apply_conclusions(cached.null_slots, name)
                return
        memo_key: Optional[str] = None
        if self._store_active():
            memo_key = self._store_key(fn, context_key)
            entry = self.config.store.mixy_get(memo_key)
            if entry is not None:
                # Cross-run store hit: replay the block's observable
                # effects — warnings and null conclusions — without
                # re-executing it.
                if span is not None:
                    span.fields["store_hit"] = True
                self._replay_block_entry(fn, context_slots, entry, name, stack_key)
                return
        self._block_stack.append(stack_key)
        breaches_before = self.executor.stats["budget_breaches"]
        try:
            execution = self._execute_symbolic_block(fn, context_slots)
            null_slots, warnings = execution.null_slots, execution.warnings
        except CTypeError:
            raise  # a frontend/program error, not an analysis crash
        except Exception as error:
            if not self.config.contain_crashes:
                raise
            self._contain_block_crash(error, fn)
            return
        finally:
            self._block_stack.pop()
        self._apply_conclusions(null_slots, name)
        if self.executor.stats["budget_breaches"] > breaches_before:
            # The governor cut this block short.  The null facts gathered so
            # far are sound (each came from a feasible path) and were
            # applied above, but coverage may be incomplete, so degrade:
            # analyze the function with pure qualifier inference as well —
            # the flow-insensitive over-approximation MIXY would have used
            # had the function not been marked symbolic — and do not cache
            # the truncated result (a later, better-funded run may redo it).
            self.stats["budget_fallbacks"] += 1
            if span is not None:
                span.fields["budget_fallback"] = True
            self.qual.constrain_function(name)
            return
        if self.config.enable_cache:
            self._cache[stack_key] = _CacheEntry(null_slots, warnings)
        if memo_key is not None and execution.typed_calls_delta == 0:
            # Record for future runs.  Only *pure* blocks — no typed
            # calls executed — are memoizable: a typed call's qualifier
            # constraints and nested analyses are side effects a skip
            # could not replay.  Warnings ship as plain strings; null
            # conclusions as indices into the deterministic watched
            # list, never as QVar objects (their identity is per-run).
            self.config.store.mixy_put(
                memo_key,
                {
                    "null_indices": execution.null_indices,
                    "warnings": tuple(
                        (w.kind.value, w.message, w.function)
                        for w in execution.warnings
                    ),
                },
            )
        if self.config.restore_aliasing:
            self._restore_aliasing(fn)

    # -- cross-run block memos (see repro.store) ------------------------

    def _store_active(self) -> bool:
        """Memoization is on only when a skip is provably transparent:
        no budget (a skip consumes no paths, so breach behavior would
        differ), no witness validation (replay needs the real
        execution), no fault injection (the fault schedule indexes live
        queries).  Naming needs no condition: block-scoped names mean a
        skipped block shifts no other block's terms."""
        return (
            self.config.store is not None
            and self.config.budget is None
            and not self.config.validate_witnesses
            and smt.get_service().fault_injector is None
        )

    def _store_key(self, fn: CFunction, context_key: tuple) -> str:
        """The block's cross-run identity: its content hash widened with
        its transitive callee cone, struct layouts, the typed calling
        context, and the analysis configuration.  Editing one function
        retires exactly the keys whose cone contains it."""
        from repro.mixy.c.pretty import struct_text
        from repro.store import block_content_hash

        cone = []
        for cname in sorted(self._callee_cone(fn.name) - {fn.name}):
            cfn = self.program.functions.get(cname)
            if cfn is not None and cfn.body is not None:
                cone.append(self._function_text(cfn))
            else:
                cone.append(f"extern {cname}")
        if self._struct_texts is None:
            self._struct_texts = tuple(
                struct_text(s) for _, s in sorted(self.program.structs.items())
            )
        config_fp = repr(
            (
                self.config.qual,
                self.config.csym,
                self.config.enable_cache,
                self.config.restore_aliasing,
                self.config.havoc_on_typed_call,
            )
        )
        return block_content_hash(
            self.program,
            fn.name,
            context=(tuple(cone), self._struct_texts, context_key, config_fp),
            text=self._function_text(fn),
        )

    def _function_text(self, fn: CFunction) -> str:
        text = self._function_texts.get(fn.name)
        if text is None:
            from repro.mixy.c.pretty import function_text

            text = self._function_texts[fn.name] = function_text(fn)
        return text

    def _callee_cone(self, name: str) -> frozenset[str]:
        """``name`` plus every function transitively callable from it
        (by text, not by what actually executed — an over-approximation
        is a safe invalidation key)."""
        cone = self._cones.get(name)
        if cone is not None:
            return cone
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = self.program.functions.get(current)
            if fn is not None and fn.body is not None:
                stack.extend(self._called_functions(fn))
        cone = self._cones[name] = frozenset(seen)
        return cone

    def _replay_block_entry(
        self,
        fn: CFunction,
        context_slots: list[tuple[str, QualType]],
        entry: dict,
        name: str,
        stack_key: tuple,
    ) -> None:
        """Apply a stored block result as if the block had just run: the
        context is materialized to rebuild the watched list a cold run
        saw, warnings are re-raised through the deduplicating path, and
        the stored watched-slot indices become this run's QVar
        conclusions."""
        state = self.executor.initial_state()
        watched: list[tuple[int, QVar]] = []
        saved_global_env = self.executor.global_env
        self.executor.global_env = {}
        try:
            self._materialize_context(fn, context_slots, state, watched)
        finally:
            self.executor.global_env = saved_global_env
        warnings = []
        for kind_value, message, function in entry["warnings"]:
            self.executor.warn(CErrKind(kind_value), message, function)
            warnings.append(CWarning(CErrKind(kind_value), message, function))
        null_slots = [watched[i][1] for i in entry["null_indices"]]
        self._apply_conclusions(null_slots, name)
        if self.config.enable_cache:
            self._cache[stack_key] = _CacheEntry(null_slots, warnings)
        if self.config.restore_aliasing:
            self._restore_aliasing(fn)

    def _calling_context(self, fn: CFunction):
        """§4.3: the calling context is the (solved) types of everything
        translated into symbolic values: parameters and globals."""
        slots: list[tuple[str, QualType]] = []
        for i, param in enumerate(fn.params):
            slots.append((f"param:{param.name}", self.qual.param_slot(fn, i)))
        for gname, g in sorted(self.program.globals.items()):
            slots.append((f"global:{gname}", self.qual.global_slot(gname, g.typ)))
        key = tuple(
            (label, self._context_type(qt)) for label, qt in slots
        )
        return key, slots

    def _context_type(self, qt: QualType) -> tuple:
        return (str(qt.ctype),) + tuple(
            "null" if self.qual.graph.may_null(q) else "nonnull" for q in qt.quals
        )

    def _materialize_context(
        self,
        fn: CFunction,
        context_slots: list[tuple[str, QualType]],
        state: CState,
        watched: list[tuple[int, QVar]],
    ) -> tuple[CState, list[smt.Term]]:
        """§4.1 types -> symbolic values for a whole calling context:
        globals first (shared addresses, installed in ``global_env``),
        then parameters.  Fully deterministic given (program, context),
        which is what lets a store hit rebuild the same ``watched`` list
        a cold run saw.  The caller owns the global_env save/restore."""
        for label, qt in context_slots:
            if not label.startswith("global:"):
                continue
            gname = label.split(":", 1)[1]
            state, cell = self._materialize_slot(state, qt, gname, watched)
            self.executor.global_env[gname] = cell
        args: list[smt.Term] = []
        for label, qt in context_slots:
            if not label.startswith("param:"):
                continue
            pname = label.split(":", 1)[1]
            state, value = self._translate_in(state, qt, f"{fn.name}.{pname}", watched)
            args.append(value)
        return state, args

    def _execute_symbolic_block(
        self, fn: CFunction, context_slots: list[tuple[str, QualType]]
    ) -> "_BlockExecution":
        """Translate types to symbolic values, run, translate back."""
        self.stats["symbolic_blocks_run"] += 1
        state = self.executor.initial_state()
        watched: list[tuple[int, QVar]] = []  # (cell, slot) to read back
        # Globals first (shared addresses for this block run).  The global
        # environment is saved and restored so that a nested symbolic block
        # (reached through a typed call made *during* another symbolic
        # execution) does not clobber the outer block's globals.
        saved_global_env = self.executor.global_env
        self.executor.global_env = {}
        state, args = self._materialize_context(fn, context_slots, state, watched)
        warnings_before = len(self.executor.warnings)
        typed_calls_before = self.stats["typed_calls"]
        saved_context = self._replay_context
        if self.config.validate_witnesses:
            self._replay_context = _ReplayContext(
                fn,
                list(args),
                state,
                dict(self.executor.global_env),
                self.stats["typed_calls"],
                self.executor.stats["lazy_objects"],
                warnings_before,
            )
        try:
            results = list(self.executor.execute_function(fn, args, state))
        finally:
            self.executor.global_env = saved_global_env
            self._replay_context = saved_context
        new_warnings = self.executor.warnings[warnings_before:]
        # §4.1 symbolic values -> types: a watched cell whose final value
        # may be 0 on some feasible path constrains its slot to null.
        # Cells last written by a typed call's havoc are skipped: the
        # typed callee's own qualifier constraints already describe that
        # write, and the havoc placeholder carries no information.
        null_slots: list[QVar] = []
        null_indices: list[int] = []
        for result in results:
            for index, (cell, slot) in enumerate(watched):
                final = result.state.cells.get(cell)
                if final is None or _is_havoc(final):
                    continue
                if self._may_be_null(result.state, final):
                    null_slots.append(slot)
                    null_indices.append(index)
        return _BlockExecution(
            null_slots=null_slots,
            warnings=new_warnings,
            null_indices=tuple(null_indices),
            typed_calls_delta=self.stats["typed_calls"] - typed_calls_before,
        )

    def _materialize_slot(
        self, state: CState, qt: QualType, label: str, watched: list[tuple[int, QVar]]
    ) -> tuple[CState, int]:
        """Allocate the cell behind a global/param slot and fill it."""
        state, value = self._translate_in(state, qt, label, watched)
        state, obj = self.executor.allocate_object(state, qt.ctype, label)
        state = state.write(obj.base, value)
        if qt.quals:
            # The global's own cell is observable from typed code: watch it
            # so e.g. `g = NULL;` inside the block constrains g's qualifier.
            watched.append((obj.base, qt.quals[0]))
        return state, obj.base

    def _translate_in(
        self,
        state: CState,
        qt: QualType,
        label: str,
        watched: list[tuple[int, QVar]],
    ) -> tuple[CState, smt.Term]:
        """§4.1 types -> symbolic values for one qualified type."""
        ctype = qt.ctype
        if isinstance(ctype, PtrType) and not isinstance(ctype.elem, FunType):
            assert qt.top is not None
            solution = self.qual.solution(qt)
            # One level of the pointed-to structure is materialized; the
            # pointee cell(s) are *watched* so their final values can be
            # read back when returning to the typed world.
            if isinstance(ctype.elem, StructType):
                state, obj = self._materialize_struct(
                    state, ctype.elem, f"*{label}", watched
                )
            else:
                inner = qt.deref()
                if inner.quals:
                    state, inner_value = self._translate_in(
                        state, inner, f"*{label}", watched
                    )
                else:
                    inner_value = self.executor.fresh_symbol(f"{label}_val")
                state, obj = self.executor.allocate_object(
                    state, ctype.elem, f"*{label}"
                )
                state = state.write(obj.base, inner_value)
                if inner.quals:
                    watched.append((obj.base, inner.quals[0]))
            address = smt.int_const(obj.base)
            if solution is NONNULL:
                # Optimistic (or proven) nonnull: points at the fresh cell.
                return state, address
            # May be null: ite(α, loc, 0) — "the symbolic executor will
            # try both possibilities".
            choice = self.executor.fresh_symbol(f"{label}_isnull")
            value = smt.ite(
                smt.eq(choice, smt.int_const(0)), smt.int_const(0), address
            )
            return state, simplify(value)
        if isinstance(ctype, StructType):
            return state, self.executor.fresh_symbol(label)
        # Scalars, void, function pointers: an unconstrained symbol.  A
        # symbolic function pointer stays opaque — calling it is the
        # unsupported operation of Case 4.
        return state, self.executor.fresh_symbol(label)

    def _materialize_struct(
        self,
        state: CState,
        struct_type,
        label: str,
        watched: list[tuple[int, QVar]],
    ):
        """Materialize one struct level: scalar fields become fresh
        symbols; pointer fields get values matching their (monomorphic)
        field qualifier solutions, with deeper structure left to lazy
        initialization — "MIXY only initializes as much as is required by
        the symbolic block" (§4.2), which also sidesteps recursive types.
        """
        struct = self.program.struct_def(struct_type)
        state, obj = self.executor.allocate_object(state, struct_type, label)
        for i, (fname, ftype) in enumerate(struct.fields):
            cell = obj.base + i
            value = self.executor.fresh_symbol(f"{label}.{fname}")
            if isinstance(ftype, PtrType) and not isinstance(ftype.elem, FunType):
                fq = self.qual.field_slot(struct.name, fname, ftype)
                if self.qual.solution(fq) is NONNULL:
                    # Optimistic/proven nonnull: constrain the symbol away
                    # from 0; the target object is materialized lazily.
                    state = state.add_defs(
                        smt.not_(smt.eq(value, smt.int_const(0)))
                    )
                if fq.quals:
                    watched.append((cell, fq.quals[0]))
            state = state.write(cell, value)
        return state, obj

    def _may_be_null(self, state: CState, value: smt.Term) -> bool:
        self.executor.stats["solver_calls"] += 1
        try:
            return smt.is_satisfiable(
                smt.and_(state.condition(), smt.eq(value, smt.int_const(0)))
            )
        except smt.SolverError:
            return True

    def _apply_conclusions(self, null_slots: list[QVar], block: str) -> None:
        for slot in null_slots:
            self.qual.graph.add_flow(
                NULL, slot, f"result of symbolic block {block}"
            )

    def _restore_aliasing(self, fn: CFunction) -> None:
        """§4.2: unify qualifiers of may-aliased parameter/global targets."""
        nodes: list[tuple[QualType, set]] = []
        for i, param in enumerate(fn.params):
            if isinstance(param.typ, PtrType):
                qt = self.qual.param_slot(fn, i)
                pts = self.points_to.pts(obj_local(fn.name, param.name))
                nodes.append((qt, pts))
        for gname, g in self.program.globals.items():
            if isinstance(g.typ, PtrType):
                qt = self.qual.global_slot(gname, g.typ)
                pts = self.points_to.pts(obj_global(gname))
                nodes.append((qt, pts))
        for (qt1, pts1), (qt2, pts2) in itertools.combinations(nodes, 2):
            if pts1 & pts2 and len(qt1.quals) > 1 and len(qt2.quals) > 1:
                self.qual.graph.unify(
                    qt1.quals[1],
                    qt2.quals[1],
                    f"may-alias restore after {fn.name}",
                )

    # ------------------------------------------------------------------
    # Trust ring 3: per-block crash containment
    # ------------------------------------------------------------------

    def _contain_block_crash(self, error: Exception, fn: CFunction) -> None:
        """An unexpected exception during a symbolic block's analysis is
        contained at the block boundary: counted, recorded with a
        delta-debugged repro, and the function degraded to pure qualifier
        inference — the same fallback a budget breach takes."""
        from repro.crash import record_crash, repro_name
        from repro.mixy.c.pretty import pretty_program
        from repro.shrink import shrink_c_program

        smt.get_service().stats.blocks_contained += 1
        shrunk = shrink_c_program(self.program, self._crash_probe(type(error)))
        path = record_crash(
            error,
            phase=f"mixy:symbolic-block:{fn.name}",
            source=pretty_program(self.program),
            shrunk_source=pretty_program(shrunk),
            crash_dir=self.config.crash_dir,
            injector=smt.get_service().fault_injector,
        )
        self.executor.warn(
            CErrKind.CRASH,
            f"analysis crashed ({type(error).__name__}: {error}); degraded "
            f"to qualifier inference — repro at {repro_name(path)}",
            fn.name,
        )
        self.qual.constrain_function(fn.name)

    def _crash_probe(self, error_type: type):
        """A shrink predicate: does re-analyzing this candidate program
        crash with the same exception type?  Probes run a fresh Mixy on a
        fresh solver service (with a clone of the fault schedule, if
        any), so they never disturb the shared service or re-enter
        containment."""
        base_injector = smt.get_service().fault_injector
        paranoid = smt.get_service().paranoid
        entry, entry_function = self._entry

        def crashes(candidate: CProgram) -> bool:
            from dataclasses import replace as dc_replace

            from repro.smt.service import SolverService

            service = SolverService(paranoid=paranoid)
            if base_injector is not None:
                service.fault_injector = base_injector.clone()
            saved = smt.get_service()
            smt.set_service(service)
            try:
                config = dc_replace(self.config, contain_crashes=False, budget=None)
                Mixy(candidate, config).run(entry, entry_function)
            except Exception as probe_error:
                return type(probe_error) is error_type
            finally:
                smt.set_service(saved)
            return False

        return crashes

    # ------------------------------------------------------------------
    # Trust ring 1: witness replay of NULL_DEREF warnings
    # ------------------------------------------------------------------

    def _check_witness(
        self, state: CState, ptr: smt.Term, warning: CWarning
    ) -> Optional["Witness"]:
        """Replay a fresh NULL_DEREF or CHECK_FAIL warning through the
        concrete mini-C interpreter (installed as the executor's
        ``witness_checker``).  For CHECK_FAIL the ``ptr`` slot carries
        the checked condition's term instead of a pointer."""
        ctx = self._replay_context
        if ctx is None:
            return None
        from repro.witness import validate_c_check, validate_c_null_deref

        exact = (
            self.stats["typed_calls"] == ctx.typed_calls
            and self.executor.stats["lazy_objects"] == ctx.lazy_objects
            and not any(
                w.kind in _INEXACT_KINDS
                for w in self.executor.warnings[ctx.warnings_len:]
            )
        )
        if warning.kind is CErrKind.CHECK_FAIL:
            return validate_c_check(
                self.program,
                ctx.fn,
                ctx.args,
                ctx.state,
                ctx.global_env,
                self.executor.fn_addresses,
                state,
                ptr,
                exact=exact,
            )
        return validate_c_null_deref(
            self.program,
            ctx.fn,
            ctx.args,
            ctx.state,
            ctx.global_env,
            self.executor.fn_addresses,
            state,
            ptr,
            exact=exact,
        )

    # ------------------------------------------------------------------
    # Typed calls from symbolic context (rule SETypBlock's MIXY analog)
    # ------------------------------------------------------------------

    def _typed_call_hook(
        self, name: str, args: list[smt.Term], state: CState
    ) -> Iterator[tuple[CState, Optional[smt.Term]]]:
        self.stats["typed_calls"] += 1
        fn = self.program.functions[name]
        # §4.3 "Caching Typed Blocks": "we first translate symbolic values
        # into types, then use the translated types as the calling
        # context".  The translation (may-be-null per pointer argument)
        # costs one solver query per argument, so compute it once and use
        # it both as the cache key and as the constraint seed.
        arg_nullness: list[Optional[bool]] = []
        for i, arg in enumerate(args):
            if i < len(fn.params) and isinstance(fn.params[i].typ, PtrType):
                arg_nullness.append(self._may_be_null(state, arg))
            else:
                arg_nullness.append(None)
        cache_key = ("typed-block", name, tuple(arg_nullness))
        if self.config.enable_cache and cache_key in self._cache:
            self.stats["cache_hits"] += 1
            # The constraints this context contributes were already added
            # (the graph grows monotonically), so only the state effects
            # (havoc + return shaping) are replayed below.
        else:
            # Run qualifier inference over the typed region rooted here.
            typed, frontier = self._reachable_partition(name)
            for t in sorted(typed):
                self.qual.constrain_function(t)
            for f in sorted(frontier):
                self._analyze_symbolic_function(f)
            # §4.1: translate argument symbolic values to type constraints.
            for i, maybe_null in enumerate(arg_nullness):
                if maybe_null:
                    slot = self.qual.param_slot(fn, i)
                    if slot.top is not None:
                        self.qual.graph.add_flow(
                            NULL,
                            slot.top,
                            f"symbolic argument {i + 1} of call to {name}",
                        )
            if self.config.enable_cache:
                self._cache[cache_key] = _CacheEntry([], [])
        # Havoc memory the typed callee may reach (§4.2-flavored SETypBlock).
        if self.config.havoc_on_typed_call:
            state = self._havoc_reachable(state, args)
        # Conservative return value from the callee's (inferred) type.
        state, ret = self._havoc_return_value(fn, state)
        yield state, ret

    def _havoc_reachable(self, state: CState, args: list[smt.Term]) -> CState:
        """Forget cells reachable from the arguments and globals — the
        typed block 'may make any number of writes not captured by the
        type system'."""
        from repro.mixy.symexec import _constant_leaves

        reachable: set[int] = set()
        queue: list[int] = []
        for arg in args:
            queue.extend(_constant_leaves(arg))
        queue.extend(self.executor.global_env.values())
        while queue:
            address = queue.pop()
            obj = self._object_containing(state, address)
            if obj is None or obj.base in reachable:
                continue
            reachable.add(obj.base)
            for i in range(obj.size):
                value = state.cells.get(obj.base + i)
                if value is not None:
                    queue.extend(_constant_leaves(value))
        for base in reachable:
            obj = state.objects[base]
            for i in range(obj.size):
                state = state.write(
                    obj.base + i, self.executor.fresh_symbol("havoc")
                )
        return state

    @staticmethod
    def _object_containing(state: CState, address: int) -> Optional[CObj]:
        for base, obj in state.objects.items():
            if base <= address < base + obj.size:
                return obj
        return None

    def _havoc_return_value(
        self, fn: CFunction, state: CState
    ) -> tuple[CState, Optional[smt.Term]]:
        if fn.ret == VOID_T:
            return state, None
        if isinstance(fn.ret, PtrType) and not isinstance(fn.ret.elem, FunType):
            ret_slot = self.qual.return_slot(fn)
            solution = self.qual.solution(ret_slot)
            state, obj = self.executor.allocate_object(
                state,
                fn.ret.elem,
                f"ret:{fn.name}",
                init=self.executor.fresh_symbol(f"ret_{fn.name}_mem"),
            )
            address = smt.int_const(obj.base)
            if solution is NONNULL or fn.nonnull_return:
                return state, address
            choice = self.executor.fresh_symbol(f"{fn.name}_retnull")
            value = simplify(
                smt.ite(smt.eq(choice, smt.int_const(0)), smt.int_const(0), address)
            )
            return state, value
        return state, self.executor.fresh_symbol(f"ret_{fn.name}")

    # ------------------------------------------------------------------
    # Symbolic entry
    # ------------------------------------------------------------------

    def _run_symbolic(self, entry_function: str) -> None:
        fn = self.program.functions[entry_function]
        assert fn.body is not None
        state = self.executor.initial_state()
        # C semantics: globals are zero-initialized (or take initializers).
        self.executor.global_env = {}
        init_frame_types = {}
        from repro.mixy.c.typeinfo import TypeInfo

        typeinfo = TypeInfo(self.program, init_frame_types)
        for gname, g in sorted(self.program.globals.items()):
            state, obj = self.executor.allocate_object(state, g.typ, gname)
            self.executor.global_env[gname] = obj.base
        for gname, g in sorted(self.program.globals.items()):
            if g.init is None:
                continue
            value = self._eval_global_init(g.init, state)
            if value is not None:
                state = state.write(self.executor.global_env[gname], value)
        args = [
            self.executor.fresh_symbol(f"arg_{p.name}") for p in fn.params
        ]
        saved_context = self._replay_context
        if self.config.validate_witnesses:
            self._replay_context = _ReplayContext(
                fn,
                list(args),
                state,
                dict(self.executor.global_env),
                self.stats["typed_calls"],
                self.executor.stats["lazy_objects"],
                len(self.executor.warnings),
            )
        try:
            for _result in self.executor.execute_function(fn, args, state):
                pass
        except CTypeError:
            raise  # a frontend/program error, not an analysis crash
        except Exception as error:
            if not self.config.contain_crashes:
                raise
            self._contain_block_crash(error, fn)
        finally:
            self._replay_context = saved_context

    def _eval_global_init(self, init, state: CState) -> Optional[smt.Term]:
        from repro.mixy.c.ast import IntLit, NullLit, VarRef

        if isinstance(init, IntLit):
            return smt.int_const(init.value)
        if isinstance(init, NullLit):
            return smt.int_const(0)
        if isinstance(init, VarRef) and init.name in self.executor.fn_addresses:
            return smt.int_const(self.executor.fn_addresses[init.name])
        return None


def _is_havoc(term: smt.Term) -> bool:
    from repro.smt.terms import Kind

    return term.kind is Kind.VAR and str(term.payload).startswith("havoc!")


def _find_calls(fn: CFunction) -> list[tuple[Call, str]]:
    """All call expressions in a function body."""
    from repro.mixy.c.ast import (
        AddrOf,
        Assign,
        Assume,
        Binary,
        Block,
        Cast,
        CExpr,
        Check,
        CStmt,
        Deref,
        ExprStmt,
        Field,
        If,
        Malloc,
        Return,
        Unary,
        VarDecl,
        While,
    )

    calls: list[tuple[Call, str]] = []

    def walk_expr(e: CExpr) -> None:
        if isinstance(e, Call):
            calls.append((e, fn.name))
            walk_expr(e.fn)
            for a in e.args:
                walk_expr(a)
        elif isinstance(e, (Deref, AddrOf)):
            walk_expr(e.ptr if isinstance(e, Deref) else e.target)
        elif isinstance(e, Field):
            walk_expr(e.obj)
        elif isinstance(e, Unary):
            walk_expr(e.operand)
        elif isinstance(e, Binary):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, Assign):
            walk_expr(e.lhs)
            walk_expr(e.rhs)
        elif isinstance(e, Cast):
            walk_expr(e.operand)
        elif isinstance(e, (Assume, Check)):
            walk_expr(e.cond)

    def walk_stmt(s: CStmt) -> None:
        if isinstance(s, Block):
            for inner in s.stmts:
                walk_stmt(inner)
        elif isinstance(s, VarDecl) and s.init is not None:
            walk_expr(s.init)
        elif isinstance(s, ExprStmt):
            walk_expr(s.expr)
        elif isinstance(s, If):
            walk_expr(s.cond)
            walk_stmt(s.then)
            if s.els is not None:
                walk_stmt(s.els)
        elif isinstance(s, While):
            walk_expr(s.cond)
            walk_stmt(s.body)
        elif isinstance(s, Return) and s.value is not None:
            walk_expr(s.value)

    if fn.body is not None:
        walk_stmt(fn.body)
    return calls
