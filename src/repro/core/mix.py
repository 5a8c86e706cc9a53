"""The two mix rules (paper Figure 4) wiring the analyses together.

The type checker and symbolic executor are instantiated *unmodified*;
each exposes a single hook for the foreign block form, and this module
installs the mix rules into those hooks.  All information exchanged at a
boundary flows through types (typed -> symbolic: ``Σ(x) = α_x : Γ(x)``;
symbolic -> typed: the block's result type and nothing else), exactly the
"thin interface" the paper advertises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.witness import Witness

from repro import smt
from repro.core.config import MixConfig, SoundnessMode
from repro.lang.ast import Pos, SymBlock, TypedBlock
from repro.symexec.executor import ErrKind, Outcome, State, SymExecutor
from repro.symexec.memory import fresh_memory, memory_ok
from repro.symexec.values import NameSupply, SymEnv, SymValue, fresh_of_type, fun_value, UnknownFun
from repro.trace import TRACER
from repro.typecheck.checker import TypeChecker, TypeError_
from repro.typecheck.types import FunType, Type, TypeEnv


class MixTypeError(TypeError_):
    """A diagnostic produced by the mixed analysis.

    ``origin`` says which engine detected the problem: ``"typed"`` for the
    type checker, ``"symbolic"`` for the symbolic executor, ``"mix"`` for
    the boundary rules themselves (exhaustiveness, memory consistency,
    path blowup).
    """

    def __init__(
        self,
        message: str,
        pos: Optional[Pos] = None,
        origin: str = "mix",
        kind: Optional[ErrKind] = None,
        witness: Optional["Witness"] = None,
    ) -> None:
        super().__init__(message, pos)
        self.origin = origin
        self.kind = kind
        #: trust ring 1: the replay classification of this diagnostic
        #: (present only when MixConfig.validate_witnesses is on)
        self.witness = witness


class Mix:
    """The mixed analysis: a type checker and a symbolic executor, each
    hooked to delegate the other's blocks."""

    def __init__(
        self, config: Optional[MixConfig] = None, names: Optional[NameSupply] = None
    ) -> None:
        self.config = config or MixConfig()
        self.names = names or NameSupply()
        self.checker = TypeChecker(symbolic_block_hook=self._type_symbolic_block)
        self.executor = SymExecutor(
            config=self.config.sym,
            names=self.names,
            typed_block_hook=self._exec_typed_block,
            budget=self.config.budget,
        )
        self.stats = {
            "symbolic_blocks": 0,
            "typed_blocks": 0,
            "paths_explored": 0,
            "exhaustiveness_checks": 0,
            "feasibility_checks": 0,
            "budget_breaches": 0,
        }
        #: Degradation notices (GOOD_ENOUGH mode only): budget breaches
        #: that truncated exploration instead of rejecting the program.
        self.warnings: list[str] = []

    @property
    def solver_stats(self) -> "smt.SolverStats":
        """Counters of the shared solver service (queries, cache tiers)."""
        return smt.get_service().stats

    # ------------------------------------------------------------------
    # Rule TSymBlock: type checking {s e s}
    # ------------------------------------------------------------------

    def _type_symbolic_block(self, gamma: TypeEnv, block: SymBlock) -> Type:
        # All solver traffic for the block — feasibility, exhaustiveness,
        # ⊢ m ok — runs under the governor, so every query inherits the
        # run deadline and per-query timeout.  ``governed`` is re-entrant;
        # nested blocks keep the enclosing budget.
        budget = self.config.budget
        if budget is not None:
            budget.start()  # idempotent: the clock arms at first use
        name = str(block.pos) if block.pos is not None else f"block{self.stats['symbolic_blocks'] + 1}"
        with smt.get_service().governed(budget), TRACER.span("mix.block", name) as span:
            try:
                memo_key = self._store_key(gamma, block) if self._store_active() else None
                if memo_key is not None:
                    entry = self.config.store.mix_get(memo_key)
                    if entry is not None:
                        # Cross-run store hit: the block type-checked
                        # cleanly under this exact (text, Γ, config)
                        # before.  Replay its observable effects — name
                        # consumption and stat deltas — and return the
                        # stored result type without re-exploring.
                        if span is not None:
                            span.fields["store_hit"] = True
                        return self._replay_block_entry(entry)
                names_mark = self.names.mark()
                stats_before = dict(self.stats)
                warnings_before = len(self.warnings)
                result = self._type_symbolic_block_governed(gamma, block)
                if memo_key is not None and len(self.warnings) == warnings_before:
                    self.config.store.mix_put(
                        memo_key,
                        {
                            "result_type": result,
                            "names": self.names.mark() - names_mark,
                            "stats": {
                                k: self.stats[k] - stats_before[k]
                                for k in self.stats
                            },
                        },
                    )
                return result
            except TypeError_:
                raise  # analysis findings (incl. MixTypeError), not crashes
            except Exception as error:
                if not self.config.contain_crashes:
                    raise
                return self._contain_crash(error, gamma, block)

    # -- cross-run block memos (see repro.store) ------------------------

    def _store_active(self) -> bool:
        """Memoization is on only when a skip is provably transparent:
        no budget (a skipped block consumes none of it), no witness
        validation, no fault injection (the fault schedule indexes live
        queries a skip would renumber)."""
        return (
            self.config.store is not None
            and self.config.budget is None
            and not self.config.validate_witnesses
            and smt.get_service().fault_injector is None
        )

    def _store_key(self, gamma: TypeEnv, block: SymBlock) -> str:
        """The block's cross-run identity: pretty-printed body (the
        normalized form — whitespace/comment edits cannot retire it),
        the typing environment it is checked under, and the analysis
        configuration."""
        import hashlib

        from repro.lang.pretty import pretty

        gamma_fp = tuple(sorted((n, str(t)) for n, t in gamma.items()))
        config_fp = repr(
            (
                self.config.sym,
                self.config.soundness,
                self.config.max_paths_per_block,
                self.config.effect_aware_havoc,
            )
        )
        payload = "\x00".join([pretty(block.body), repr(gamma_fp), config_fp])
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def _replay_block_entry(self, entry: dict) -> Type:
        """Apply a stored block result: fast-forward the name supply by
        what exploration consumed (later blocks' fresh names must match
        a cold run's) and replay the stat deltas, including any nested
        blocks' counts — a skip covers the whole subtree."""
        self.names.fast_forward(entry["names"])
        for key, delta in entry["stats"].items():
            if key in self.stats:
                self.stats[key] += delta
        return entry["result_type"]

    def _contain_crash(self, error: Exception, gamma: TypeEnv, block: SymBlock) -> Type:
        """Trust ring 3: an unexpected exception during a symbolic block's
        analysis — an executor bug, a solver crash, an injected fault —
        is contained at the block boundary: counted, recorded with a
        delta-debugged repro, and the block degraded to the plain type
        checker, mirroring the BUDGET-breach fallback."""
        from repro.crash import record_crash, repro_name
        from repro.lang.pretty import pretty
        from repro.shrink import shrink_expr

        smt.get_service().stats.blocks_contained += 1
        shrunk = shrink_expr(block.body, self._crash_probe(gamma, type(error)))
        path = record_crash(
            error,
            phase="mix:symbolic-block",
            source=pretty(block.body),
            shrunk_source=pretty(shrunk),
            crash_dir=self.config.crash_dir,
            injector=smt.get_service().fault_injector,
        )
        self.warnings.append(
            f"symbolic block analysis crashed ({type(error).__name__}: "
            f"{error}); degraded to the type checker — repro at {repro_name(path)}"
        )
        return self.checker.check(block.body, gamma)

    def _crash_probe(self, gamma: TypeEnv, error_type: type):
        """A shrink predicate: does analyzing this candidate body crash
        with the same exception type?  Probes run a fresh Mix on a fresh
        solver service (with a clone of the fault schedule, if any), so
        they can never disturb the shared service or re-enter containment."""
        base_injector = smt.get_service().fault_injector
        paranoid = smt.get_service().paranoid

        def crashes(candidate) -> bool:
            from dataclasses import replace as dc_replace

            from repro.smt.service import SolverService

            service = SolverService(paranoid=paranoid)
            if base_injector is not None:
                service.fault_injector = base_injector.clone()
            saved = smt.get_service()
            smt.set_service(service)
            try:
                config = dc_replace(self.config, contain_crashes=False, budget=None)
                Mix(config=config)._type_symbolic_block(gamma, SymBlock(candidate))
            except TypeError_:
                return False  # an ordinary rejection, not the crash
            except Exception as probe_error:
                return type(probe_error) is error_type
            finally:
                smt.set_service(saved)
            return False

        return crashes

    def _type_symbolic_block_governed(self, gamma: TypeEnv, block: SymBlock) -> Type:
        self.stats["symbolic_blocks"] += 1
        sigma, state = self.make_symbolic_context(gamma)
        outcomes = self._explore(block, sigma, state)
        result_type: Optional[Type] = None
        surviving: list[Outcome] = []
        assumed_closed: list[Outcome] = []
        breached = False
        for out in outcomes:
            if not out.ok:
                if out.kind is ErrKind.BUDGET:
                    breached = True
                    self._handle_budget_breach(out, block)
                    continue
                if out.kind is ErrKind.ASSUME:
                    # A path closed by assume(e): not an error — its guard
                    # still counts toward exhaustiveness below.
                    assumed_closed.append(out)
                    continue
                self._raise_if_feasible(out, block, gamma, sigma)
                continue  # infeasible failing path: discarded
            surviving.append(out)
        if not surviving:
            if breached:
                # Even good-enough mode cannot shrug this off: with no
                # completed path there is no result type to give the block.
                raise MixTypeError(
                    "the resource budget expired before any path of the "
                    "symbolic block completed; no result type is available",
                    block.pos,
                    kind=ErrKind.BUDGET,
                )
            if assumed_closed:
                # Vacuous: every path dies on an assumption, so there is
                # nothing to check — but also no result type to give the
                # block.  The kind lets `repro prove` classify this as a
                # (vacuous) proof rather than an analysis error.
                raise MixTypeError(
                    "every path of the symbolic block is closed by an "
                    "assumption; the block is vacuous and has no result type",
                    block.pos,
                    kind=ErrKind.ASSUME,
                )
            raise MixTypeError(
                "symbolic block has no feasible execution path", block.pos
            )
        for out in surviving:
            assert out.value is not None
            result_type = self._join_result_type(result_type, out.value, block)
            # Premise ⊢ m(S_i) ok: all paths leave memory consistent.
            if not memory_ok(
                out.state.memory,
                out.state.condition(),
                self.config.sym.semantic_overwrite,
            ):
                raise MixTypeError(
                    "symbolic block leaves memory inconsistently typed "
                    "(⊢ m ok fails on a final state)",
                    block.pos,
                )
        if self.config.soundness is SoundnessMode.SOUND:
            self._check_exhaustive(surviving + assumed_closed, block)
        assert result_type is not None
        return result_type

    def make_symbolic_context(self, gamma: TypeEnv) -> tuple[SymEnv, State]:
        """Σ(x) = α_x : Γ(x) for all x, and S = ⟨true; μ⟩ with fresh μ."""
        bindings: dict[str, SymValue] = {}
        env_constraints: list[smt.Term] = []
        for name, typ in gamma.items():
            value, constraints = fresh_of_type(typ, self.names)
            bindings[name] = value
            env_constraints.extend(constraints)
        state = State(
            guard=smt.true(),
            memory=fresh_memory(self.names),
            defs=tuple(env_constraints),
        )
        return SymEnv(bindings), state

    def _explore(self, block: SymBlock, sigma: SymEnv, state: State) -> list[Outcome]:
        outcomes: list[Outcome] = []
        for out in self.executor.execute(block.body, sigma, state):
            outcomes.append(out)
            if len(outcomes) > self.config.max_paths_per_block:
                if self.config.soundness is SoundnessMode.SOUND:
                    raise MixTypeError(
                        f"symbolic block exceeded {self.config.max_paths_per_block} "
                        "paths; the analysis cannot finish soundly",
                        block.pos,
                    )
                break  # good-enough mode: truncate exploration
        self.stats["paths_explored"] += len(outcomes)
        return outcomes

    def _handle_budget_breach(self, out: Outcome, block: SymBlock) -> None:
        """An ErrKind.BUDGET outcome stands for the *abandoned* part of the
        frontier, so it is treated conservatively, never as an ordinary
        failing path: no feasibility check could justify dropping it."""
        self.stats["budget_breaches"] += 1
        if self.config.soundness is SoundnessMode.SOUND:
            raise MixTypeError(
                f"resource budget breached: {out.error}; the analysis "
                "cannot finish soundly",
                out.pos or block.pos,
                kind=ErrKind.BUDGET,
            )
        # Good-enough mode: degrade to bounded exploration with a warning.
        self.warnings.append(
            f"resource budget breached: {out.error}; exploration truncated"
        )

    def _raise_if_feasible(
        self,
        out: Outcome,
        block: SymBlock,
        gamma: Optional[TypeEnv] = None,
        sigma: Optional[SymEnv] = None,
    ) -> None:
        if out.kind is ErrKind.LOOP_BOUND and (
            self.config.soundness is SoundnessMode.GOOD_ENOUGH
        ):
            return  # bounded exploration drops unfinished paths
        self.stats["feasibility_checks"] += 1
        try:
            feasible = smt.is_satisfiable(out.state.condition())
        except smt.SolverError:
            feasible = True  # undecided: conservatively report
        if feasible:
            witness = None
            if (
                self.config.validate_witnesses
                and gamma is not None
                and sigma is not None
            ):
                from repro.witness import validate_mix_outcome

                witness = validate_mix_outcome(block.body, gamma, sigma, out)
            raise MixTypeError(
                f"symbolic execution failed: {out.error}",
                out.pos or block.pos,  # type: ignore[arg-type]
                origin="symbolic",
                kind=out.kind,
                witness=witness,
            )

    def _join_result_type(
        self, current: Optional[Type], value: SymValue, block: SymBlock
    ) -> Type:
        if value.term is None:
            raise MixTypeError(
                "a function value escapes the symbolic block; its result "
                "type is latent, so the block cannot be given a type",
                block.pos,
            )
        if current is not None and current != value.typ:
            raise MixTypeError(
                f"paths of the symbolic block disagree on the result type: "
                f"{current} vs {value.typ}",
                block.pos,
            )
        return value.typ

    def _check_exhaustive(self, outcomes: list[Outcome], block: SymBlock) -> None:
        """exhaustive(g(S_1), ..., g(S_n)): the disjunction is a tautology.

        Definitional constraints (division axioms, base-location bounds)
        are total on program inputs, so they are sound assumptions.
        """
        self.stats["exhaustiveness_checks"] += 1
        guards = [out.state.guard for out in outcomes]
        assumptions: list[smt.Term] = []
        for out in outcomes:
            for d in out.state.defs:
                if d not in assumptions:
                    assumptions.append(d)
        try:
            exhaustive = smt.is_valid(smt.or_(*guards), assuming=assumptions)
        except smt.SolverError:
            exhaustive = False
        if not exhaustive:
            raise MixTypeError(
                "the explored paths of the symbolic block are not exhaustive "
                "(the disjunction of path conditions is not a tautology)",
                block.pos,
            )

    # ------------------------------------------------------------------
    # Rule SETypBlock: symbolically executing {t e t}
    # ------------------------------------------------------------------

    def _exec_typed_block(
        self, sigma: SymEnv, state: State, block: TypedBlock
    ) -> Iterator[Outcome]:
        self.stats["typed_blocks"] += 1
        # Premise ⊢ m(S) ok: the type checker relies purely on types, so
        # the memory it starts from must be consistently typed.
        if not memory_ok(
            state.memory, state.condition(), self.config.sym.semantic_overwrite
        ):
            yield Outcome(
                state,
                error=(
                    "entering a typed block with inconsistently typed memory "
                    "(⊢ m ok fails)"
                ),
                kind=ErrKind.TYPE_ERROR,
                pos=block.pos,
            )
            return
        # Premise ⊢ Σ : Γ — abstract the symbolic environment to types.
        gamma = abstract_env(sigma)
        try:
            block_type = self.checker.check(block.body, gamma)
        except MixTypeError as error:
            # Even if the nested failure came from an inner symbolic
            # block, *this* outcome is a static judgment of the typed
            # block: its path condition says nothing about the inner
            # block's fresh inputs, so replay must not treat it as a
            # dynamic claim (origin="typed" blocks REPLAY_DIVERGED).
            yield Outcome(
                state,
                error=str(error),
                kind=error.kind or ErrKind.TYPE_ERROR,
                pos=error.pos or block.pos,
                origin="typed",
            )
            return
        except TypeError_ as error:
            yield Outcome(
                state,
                error=f"type error in typed block: {error.message}",
                kind=ErrKind.TYPE_ERROR,
                pos=error.pos or block.pos,
                origin="typed",
            )
            return
        # Conclusion: a fresh α of the block's type, havocked memory μ'.
        # With the effect refinement the paper sketches in §3.2, a typed
        # block with no write effect keeps the current memory instead.
        result, constraints = fresh_of_type(block_type, self.names)
        if self.config.effect_aware_havoc:
            from repro.lang.effects import may_write

            havoc = may_write(block.body)
        else:
            havoc = True
        memory = fresh_memory(self.names) if havoc else state.memory
        new_state = state.with_memory(memory).add_defs(*constraints)
        yield Outcome(new_state, value=result)


def abstract_env(sigma: SymEnv) -> TypeEnv:
    """⊢ Σ : Γ — the typing environment a symbolic environment conforms to.

    Closures built inside symbolic code have a latent result type (the
    executor types them at application), so they cannot be assigned a Γ
    entry; such variables are omitted, making any use of them inside the
    typed block an "unbound variable" type error — conservative but sound.
    """
    gamma = TypeEnv()
    for name, value in sigma.items():
        typ = value.typ
        if isinstance(typ, FunType) and not isinstance(value.fun, UnknownFun):
            continue
        gamma = gamma.extend(name, typ)
    return gamma
