"""Process-wide solver service: a query cache in front of shared solvers.

Every feasibility / validity query in the tower (symbolic executors, mix
rules, the MIXY driver) funnels through one :class:`SolverService`.  The
service answers from a tiered cache before ever touching DPLL(T):

0. **syntactic** — literal ``true``/``false`` conjuncts and
   contradiction-by-negation (both ``g`` and ``not g`` present) decide the
   query with no lookup at all.  Conjunct sets are deduplicated, so a
   guard that is already asserted in the path condition costs nothing.
1. **exact** — the normalized key (a frozenset of hash-consed conjuncts,
   O(1) to hash because term identity is physical identity) has a cached
   verdict.
2. **subset** — the conjunct set is a subset of a set previously proved
   satisfiable: the same model still works, so the query is SAT.
3. **superset** — the conjunct set is a superset of a cached UNSAT core:
   adding conjuncts cannot restore satisfiability, so the query is UNSAT.
4. **model eval** — KLEE-style counterexample caching: recent models are
   total interpretations (unassigned variables default to 0 / false), so
   if every conjunct evaluates to true under one of them the query is SAT.
   The tier is indexed (:meth:`_Shard.find_model`): each recorded model
   gets a serial number, and per conjunct the shard keeps bitmasks of the
   live models it was evaluated under and of those it was false under,
   so a model known to falsify any conjunct of the query is skipped
   without evaluation.  The answer is still the *newest* satisfying
   model, and no (conjunct, model) pair is evaluated that a plain
   newest-first scan would not evaluate.
5. **full solve** — only now does the query reach a :class:`Solver`.  Each
   miss gets a fresh solver sized to the query: CDCL model search assigns
   *every* variable in its database, so sharing one growing solver across
   unrelated queries makes each solve pay for all previous ones.  Reuse of
   encoding work across *related* queries is what the cache tiers and the
   incremental ``push``/``pop`` :class:`Solver` (for callers that hold
   one) are for.

``UNKNOWN`` results are never cached.  Caches are sharded by
``int_budget``: a verdict obtained under one budget is never reused under
another (a larger budget can turn UNKNOWN into a real verdict, and
budget-dependent UNKNOWNs must not leak across).

:class:`SolverStats` counts queries and hits per tier plus the CDCL
counters, and is surfaced by the executors, the mix rules, the MIXY
driver, and the CLI ``--solver-stats`` flag.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, Mapping, Optional

from repro.budget import Budget
from repro.trace import TRACER
from repro.smt.solver import Model, SatResult, Solver, SolverError
from repro.smt.terms import (
    BOOL,
    Kind,
    SortError,
    Term,
    Wire,
    from_wire_many,
    to_wire_many,
)


@dataclass
class SolverStats:
    """Counters for the solver service, threaded through the whole stack."""

    queries: int = 0
    syntactic_hits: int = 0
    exact_hits: int = 0
    subset_hits: int = 0
    superset_hits: int = 0
    model_eval_hits: int = 0
    full_solves: int = 0
    solve_seconds: float = 0.0
    sat_conflicts: int = 0
    sat_restarts: int = 0
    theory_rounds: int = 0
    # Resource-governor breach counters (see repro.budget).
    #: Queries that hit the per-query timeout and degraded to UNKNOWN.
    query_timeouts: int = 0
    #: Work refused (queries) or abandoned (frontiers) because the run
    #: deadline had already passed.
    deadline_breaches: int = 0
    #: Frontiers collapsed into a BUDGET outcome by the path budget.
    path_budget_breaches: int = 0
    #: Paths stopped by the memory-log depth budget.
    memlog_breaches: int = 0
    #: Faults injected by an installed FaultInjector (testing only).
    injected_faults: int = 0
    # Trust-ring counters (witness replay / self-check / containment).
    #: Solver-internal errors (real or injected) contained as UNKNOWN.
    solver_errors_contained: int = 0
    #: SAT models that failed the paranoid self-check and were re-solved.
    self_check_failures: int = 0
    #: Reported error paths whose concrete replay reproduced the error.
    witnesses_confirmed: int = 0
    #: Reported error paths replay could neither confirm nor contradict.
    witnesses_unconfirmed: int = 0
    #: Reported error paths a faithful replay contradicted (tool bug!).
    witnesses_diverged: int = 0
    #: Typed/symbolic blocks whose analysis crashed and was degraded.
    blocks_contained: int = 0
    # Parallel-engine counters (see repro.parallel).
    #: Blocks/query batches speculatively analyzed by worker processes.
    speculative_blocks: int = 0
    #: Worker tasks that died or errored; their deltas were discarded and
    #: the serial pass re-did the work (nothing is lost but time).
    speculation_failures: int = 0
    #: Cache entries imported from worker deltas into this service.
    cache_entries_imported: int = 0
    #: Worker-side (speculative) perf counters, accumulated by
    #: :meth:`merge_perf` under ``--jobs N``.  Workers overlap the
    #: parent's wall clock, so their ``solve_seconds`` (and hits/solves)
    #: live in this sub-table instead of the authoritative fields above
    #: — summing the two would double-count wall-time attribution.
    speculative: Optional["SolverStats"] = None

    @property
    def cache_hits(self) -> int:
        return (
            self.syntactic_hits
            + self.exact_hits
            + self.subset_hits
            + self.superset_hits
            + self.model_eval_hits
        )

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "queries": self.queries,
            "syntactic_hits": self.syntactic_hits,
            "exact_hits": self.exact_hits,
            "subset_hits": self.subset_hits,
            "superset_hits": self.superset_hits,
            "model_eval_hits": self.model_eval_hits,
            "cache_hits": self.cache_hits,
            "hit_rate": round(self.hit_rate, 4),
            "full_solves": self.full_solves,
            "solve_seconds": round(self.solve_seconds, 6),
            "sat_conflicts": self.sat_conflicts,
            "sat_restarts": self.sat_restarts,
            "theory_rounds": self.theory_rounds,
            "query_timeouts": self.query_timeouts,
            "deadline_breaches": self.deadline_breaches,
            "path_budget_breaches": self.path_budget_breaches,
            "memlog_breaches": self.memlog_breaches,
            "injected_faults": self.injected_faults,
            "solver_errors_contained": self.solver_errors_contained,
            "self_check_failures": self.self_check_failures,
            "witnesses_confirmed": self.witnesses_confirmed,
            "witnesses_unconfirmed": self.witnesses_unconfirmed,
            "witnesses_diverged": self.witnesses_diverged,
            "blocks_contained": self.blocks_contained,
            "speculative_blocks": self.speculative_blocks,
            "speculation_failures": self.speculation_failures,
            "cache_entries_imported": self.cache_entries_imported,
        }
        if self.speculative is not None:
            spec: dict[str, object] = {
                name: getattr(self.speculative, name) for name in self.PERF_FIELDS
            }
            spec["solve_seconds"] = round(self.speculative.solve_seconds, 6)
            spec["cache_hits"] = self.speculative.cache_hits
            spec["hit_rate"] = round(self.speculative.hit_rate, 4)
            out["speculative"] = spec
        return out

    #: Counters that describe solver *work* and may be summed across
    #: processes.  Trust-ring verdicts and injected-fault counts are
    #: deliberately absent: workers run speculatively, so their trust
    #: observations are not authoritative and must not pollute the run's.
    PERF_FIELDS = (
        "queries",
        "syntactic_hits",
        "exact_hits",
        "subset_hits",
        "superset_hits",
        "model_eval_hits",
        "full_solves",
        "solve_seconds",
        "sat_conflicts",
        "sat_restarts",
        "theory_rounds",
        "query_timeouts",
        "deadline_breaches",
        "path_budget_breaches",
        "memlog_breaches",
        "solver_errors_contained",
    )

    def perf_delta_since(self, baseline: "SolverStats") -> "SolverStats":
        """The perf-counter difference ``self - baseline`` (worker side)."""
        delta = SolverStats()
        for name in self.PERF_FIELDS:
            setattr(delta, name, getattr(self, name) - getattr(baseline, name))
        return delta

    def add_perf(self, delta: "SolverStats") -> None:
        """Add a perf-counter delta to this table's own counters (a
        daemon's pool worker did the parent's work for it)."""
        for name in self.PERF_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(delta, name))

    def merge_perf(self, delta: "SolverStats") -> None:
        """Fold a ``--jobs N`` worker's perf-counter delta into the
        ``speculative`` sub-table.  Workers run concurrently with (and
        are then replayed by) the authoritative pass, so adding their
        counters to the authoritative fields would count the same wall
        time twice."""
        if self.speculative is None:
            self.speculative = SolverStats()
        self.speculative.add_perf(delta)

    def _rows(self) -> list[tuple[str, object]]:
        """Flattened ``(key, value)`` rows straight from :meth:`as_dict`
        — the one code path both the JSON form and the table render
        from, so the two can never drift."""
        rows: list[tuple[str, object]] = []
        for key, value in self.as_dict().items():
            if isinstance(value, dict):
                rows.extend((f"{key}.{sub}", v) for sub, v in value.items())
            else:
                rows.append((key, value))
        return rows

    def format_table(self) -> str:
        """A human-readable counter table (used by ``--solver-stats``)."""
        rows = self._rows()
        key_w = max(len(k) for k, _ in rows)
        val_w = max(len(str(v)) for _, v in rows)
        lines = ["solver service stats", "-" * (key_w + 2 + val_w)]
        for key, value in rows:
            lines.append(f"{key:<{key_w}}  {value}")
        return "\n".join(lines)


class InjectedCrash(RuntimeError):
    """A non-solver exception raised by a ``CRASH``-kind injected fault.

    Deliberately *not* a :class:`SolverError`: it models an unexpected
    executor/solver implementation bug, so it sails past every SolverError
    handler in the tower and must be stopped by the per-block crash
    containment boundary (trust ring 3), nothing earlier.
    """


class FaultInjector:
    """Deterministic, seedable solver-fault injection (CI degradation tests).

    Installed on a :class:`SolverService` (``service.fault_injector``),
    it fires on the service's *query counter*: ``faults={n: kind}``
    injects ``kind`` at the n-th query (1-based), and a ``seed``/``rate``
    pair additionally injects ``kind`` pseudo-randomly but reproducibly.
    The fault kinds mirror the real degradation paths:

    - ``TIMEOUT`` — the query behaves exactly like a per-query deadline
      breach: ``UNKNOWN``, never cached, ``query_timeouts`` bumped;
    - ``UNKNOWN`` — an undecided query (e.g. ``int_budget`` exhaustion);
    - ``ERROR`` — a solver-internal error; the service contains it like
      a timeout (uncached UNKNOWN, ``solver_errors_contained`` bumped);
    - ``BAD_MODEL`` — the solve "succeeds" but returns a corrupted model
      (wrong variable assignments).  Only the paranoid self-check
      (trust ring 2) catches this one;
    - ``CRASH`` — an :class:`InjectedCrash` escapes the service entirely,
      exercising the per-block containment boundary (trust ring 3);
    - ``DIE`` — the process ``SIGKILL``s itself mid-query: no exception,
      no cleanup, no chance to contain.  Nothing inside the process can
      survive this one — it exists to exercise *cross-process* isolation
      (the ``repro serve`` request workers and the chaos harness).

    Faults fire *before* the cache tiers, so "fail the Nth query" is
    deterministic regardless of what earlier queries populated.
    """

    TIMEOUT = "timeout"
    UNKNOWN = "unknown"
    ERROR = "error"
    BAD_MODEL = "bad_model"
    CRASH = "crash"
    DIE = "die"
    #: Faults the analysis process itself can survive — in-process tests
    #: sweep these.  ``DIE`` is deliberately excluded: it SIGKILLs the
    #: host process and is only meaningful behind a worker fork.
    KINDS = (TIMEOUT, UNKNOWN, ERROR, BAD_MODEL, CRASH)
    ALL_KINDS = KINDS + (DIE,)

    def __init__(
        self,
        faults: Optional[Mapping[int, str]] = None,
        seed: Optional[int] = None,
        rate: float = 0.0,
        kind: str = TIMEOUT,
    ) -> None:
        for fault_kind in (kind, *(faults or {}).values()):
            if fault_kind not in self.ALL_KINDS:
                raise ValueError(f"unknown fault kind {fault_kind!r}")
        self.faults = dict(faults or {})
        self.kind = kind
        self.rate = rate
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None
        self.queries_seen = 0
        self.injected = 0

    @classmethod
    def at_query(cls, n: int, kind: str = TIMEOUT) -> "FaultInjector":
        """Inject one fault at the n-th query (1-based)."""
        return cls(faults={n: kind})

    def clone(self) -> "FaultInjector":
        """A fresh injector with the same schedule (crash-repro probes)."""
        return FaultInjector(
            faults=self.faults, seed=self.seed, rate=self.rate, kind=self.kind
        )

    def describe(self) -> dict[str, object]:
        """A JSON-able description (recorded in crash reports)."""
        return {
            "faults": {str(n): kind for n, kind in sorted(self.faults.items())},
            "seed": self.seed,
            "rate": self.rate,
            "kind": self.kind,
        }

    def next_fault(self) -> Optional[str]:
        """The fault to inject for the query being served, if any."""
        self.queries_seen += 1
        fault = self.faults.get(self.queries_seen)
        if fault is None and self._rng is not None and self._rng.random() < self.rate:
            fault = self.kind
        if fault is not None:
            self.injected += 1
        return fault


class _Shard:
    """Per-``int_budget`` cache state."""

    #: Bounds keep lookups O(small constant) and memory flat under load.
    MAX_EXACT = 65_536
    MAX_SETS = 512
    MAX_MODELS = 64

    def __init__(self) -> None:
        self.exact: dict[frozenset[Term], bool] = {}
        self.sat_sets: Deque[frozenset[Term]] = deque(maxlen=self.MAX_SETS)
        self.unsat_cores: Deque[frozenset[Term]] = deque(maxlen=self.MAX_SETS)
        self.models: Deque[Model] = deque(maxlen=self.MAX_MODELS)
        #: Serial number the next recorded model gets; the ring holds
        #: serials ``model_serial - len(models)`` .. ``model_serial - 1``,
        #: and the model with serial ``s`` owns bit ``s % MAX_MODELS``.
        self.model_serial = 0
        #: The model-eval index: conjunct -> ``[known, false, serial]``,
        #: bitmasks over the ring of the models the conjunct has been
        #: evaluated under and of those it was false (or ill-sorted)
        #: under, valid for the models recorded before ``serial``.
        self.evals: dict[Term, list[int]] = {}
        #: Insertion journal: every *new* exact-tier key, in insertion
        #: order, so ``journal == list(exact)`` always holds.  A
        #: :meth:`SolverService.cache_mark` is just a journal position,
        #: so "what was learned since the mark" is a suffix read —
        #: O(delta), not O(cache).  Wholesale eviction clears the
        #: journal and bumps ``resets``; a mark taken before a reset
        #: conservatively sees the whole journal (everything now cached
        #: postdates the eviction).
        self.journal: list[frozenset[Term]] = []
        self.resets = 0
        #: Count of writes that change what :meth:`SolverService.
        #: export_cache` reads: exact-tier inserts, verdict changes and
        #: evictions, and sat-set / unsat-core appends.
        self.writes = 0

    def put(self, key: frozenset[Term], verdict: bool) -> None:
        """Insert one exact-tier entry, journaling genuinely new keys
        and applying the wholesale-eviction bound.  Every exact-tier
        write funnels through here so the journal can never miss an
        insertion."""
        if key not in self.exact:
            if len(self.exact) >= self.MAX_EXACT:
                self.exact.clear()  # cheap wholesale eviction; refills fast
                self.journal.clear()
                self.evals.clear()
                self.resets += 1
            self.journal.append(key)
        elif self.exact[key] == verdict:
            return
        self.exact[key] = verdict
        self.writes += 1

    def add_sat_set(self, key: frozenset[Term]) -> None:
        self.sat_sets.append(key)
        self.writes += 1

    def add_unsat_core(self, key: frozenset[Term]) -> None:
        self.unsat_cores.append(key)
        self.writes += 1

    def record(self, key: frozenset[Term], sat: bool, model: Optional[Model]) -> None:
        self.put(key, sat)
        if sat:
            self.add_sat_set(key)
            if model is not None:
                self.models.append(model)
                self.model_serial += 1
        else:
            self.add_unsat_core(key)

    def find_model(self, conjuncts: frozenset[Term]) -> Optional[Model]:
        """The newest recorded model satisfying every conjunct, or None.

        The answer is that of a newest-first ``Model.satisfies`` scan,
        and so is the order of evaluation; the index only skips the
        (conjunct, model) pairs whose value it already knows — a model
        is passed over outright once any conjunct is known false under
        it.  So no pair is evaluated that the scan would not evaluate.
        """
        if not self.models:
            return None
        entries = [(term, self._eval_entry(term)) for term in conjuncts]
        excluded = 0
        for _, entry in entries:
            excluded |= entry[1]
        serial = self.model_serial
        for model in reversed(self.models):
            serial -= 1
            bit = 1 << (serial % self.MAX_MODELS)
            if excluded & bit:
                continue
            for term, entry in entries:
                if entry[0] & bit:
                    continue  # known true: known false was excluded above
                try:
                    holds = model.eval(term) is True
                except SortError:
                    holds = False
                entry[0] |= bit
                if not holds:
                    entry[1] |= bit
                    break
            else:
                return model
        return None

    def _eval_entry(self, term: Term) -> list[int]:
        """``term``'s index entry, with the bits of ring slots refilled
        since it was last brought up to date cleared."""
        entry = self.evals.get(term)
        now = self.model_serial
        if entry is None:
            entry = self.evals[term] = [0, 0, now]
        elif entry[2] != now:
            stale = _slot_mask(entry[2], now, self.MAX_MODELS)
            entry[0] &= ~stale
            entry[1] &= ~stale
            entry[2] = now
        return entry


def _slot_mask(start: int, stop: int, slots: int) -> int:
    """Bits of the ring slots that serials ``start`` .. ``stop - 1`` own."""
    count = stop - start
    if count >= slots:
        return (1 << slots) - 1
    first = start % slots
    mask = ((1 << count) - 1) << first
    return (mask | (mask >> slots)) & ((1 << slots) - 1)


@dataclass
class CacheDelta:
    """Cache entries gained since a :meth:`SolverService.cache_mark`.

    The picklable cross-process form of "what this worker learned":
    conjunct sets are wire-encoded (:mod:`repro.smt.terms`, one shared
    node table) because terms hash by identity and cannot cross a
    process boundary as objects.  Each entry is
    ``(int_budget, conjunct root positions, verdict, in sat_sets,
    in unsat_cores)``.  Models are deliberately not shipped: a model is
    dead weight on the wire next to an exact verdict, and the model-eval
    tier refills from the parent's own solves.
    """

    wire: Wire
    entries: list[tuple[int, tuple[int, ...], bool, bool, bool]]
    stats: SolverStats

    def __len__(self) -> int:
        return len(self.entries)


class SolverService:
    """The shared solver-service layer: cache tiers in front of DPLL(T)."""

    def __init__(
        self, cache_enabled: bool = True, paranoid: Optional[bool] = None
    ) -> None:
        self.stats = SolverStats()
        self.cache_enabled = cache_enabled
        self._shards: dict[int, _Shard] = {}
        #: :meth:`cache_version` carried over the shards dropped by
        #: :meth:`reset`, so the version never repeats.
        self._retired_writes = 0
        #: The active run's resource budget (installed via ``governed``).
        self.budget: Optional[Budget] = None
        #: Deterministic fault injection for degradation testing.
        self.fault_injector: Optional[FaultInjector] = None
        #: Trust ring 2: re-evaluate every SAT model against the original
        #: conjuncts before returning it or letting any cache tier keep it.
        #: Defaults from the REPRO_PARANOID environment variable (CI).
        if paranoid is None:
            paranoid = os.environ.get("REPRO_PARANOID", "") not in ("", "0")
        self.paranoid = paranoid

    # -- public API ------------------------------------------------------------

    @contextmanager
    def governed(self, budget: Optional[Budget]) -> Iterator["SolverService"]:
        """Install ``budget`` for the duration of a run (re-entrant)."""
        previous = self.budget
        self.budget = budget if budget is not None else previous
        try:
            yield self
        finally:
            self.budget = previous

    def is_satisfiable(self, *formulas: Term, int_budget: int = 4000) -> bool:
        """True iff the conjunction of ``formulas`` has a model."""
        result = self.check_sat(formulas, int_budget=int_budget)
        if result is SatResult.UNKNOWN:
            raise SolverError(f"undecided satisfiability query: {list(formulas)}")
        return result is SatResult.SAT

    def is_valid(
        self, formula: Term, assuming: Iterable[Term] = (), int_budget: int = 4000
    ) -> bool:
        """True iff ``formula`` holds in every model of ``assuming``."""
        from repro.smt.terms import not_

        formulas = (*assuming, not_(formula))
        result = self.check_sat(formulas, int_budget=int_budget)
        if result is SatResult.UNKNOWN:
            raise SolverError(f"undecided validity query: {formula}")
        return result is SatResult.UNSAT

    def model(self, *formulas: Term, int_budget: int = 4000) -> Model:
        """A model of the conjunction (used by variable concretization)."""
        if not TRACER.enabled:
            return self._model(formulas, int_budget)
        span = TRACER.begin_span("solver.query", "model", budget=int_budget)
        before = self._tier_snapshot()
        try:
            model = self._model(formulas, int_budget)
        except BaseException as error:
            TRACER.end_span(
                span, tier=self._tier_hit(before), verdict="error",
                error=type(error).__name__,
            )
            raise
        TRACER.end_span(span, tier=self._tier_hit(before), verdict="MODEL")
        return model

    def _model(self, formulas: tuple[Term, ...], int_budget: int) -> Model:
        self.stats.queries += 1
        fault = self._next_fault()
        if fault == FaultInjector.DIE:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == FaultInjector.CRASH:
            raise InjectedCrash("injected solver crash")
        if fault is not None and fault != FaultInjector.BAD_MODEL:
            # A model query has no UNKNOWN channel: every fault degrades
            # to the error callers already handle conservatively.
            if fault == FaultInjector.TIMEOUT:
                self.stats.query_timeouts += 1
            if fault == FaultInjector.ERROR:
                self.stats.solver_errors_contained += 1
            raise SolverError(f"injected solver fault ({fault})")
        conjuncts = self._normalize(formulas)
        if conjuncts is None:
            raise SolverError(f"no model: query is not satisfiable: {list(formulas)}")
        if self.cache_enabled and fault is None:
            model = self._shard(int_budget).find_model(conjuncts)
            if model is not None:
                self.stats.model_eval_hits += 1
                return model
        result, model = self._solve(
            conjuncts, int_budget, corrupt=fault == FaultInjector.BAD_MODEL
        )
        if result is not SatResult.SAT or model is None:
            raise SolverError(f"no model: query is not satisfiable: {list(formulas)}")
        if self.cache_enabled and (fault is None or model.satisfies(conjuncts)):
            self._shard(int_budget).record(conjuncts, True, model)
        return model

    def check_sat(self, formulas: Iterable[Term], int_budget: int = 4000) -> SatResult:
        """Tiered satisfiability check of a conjunction of formulas."""
        if not TRACER.enabled:
            return self._check_sat(formulas, int_budget)
        span = TRACER.begin_span("solver.query", "check_sat", budget=int_budget)
        before = self._tier_snapshot()
        try:
            result = self._check_sat(formulas, int_budget)
        except BaseException as error:
            TRACER.end_span(
                span, tier=self._tier_hit(before), verdict="error",
                error=type(error).__name__,
            )
            raise
        TRACER.end_span(span, tier=self._tier_hit(before), verdict=result.name)
        return result

    def _check_sat(self, formulas: Iterable[Term], int_budget: int) -> SatResult:
        self.stats.queries += 1
        fault = self._next_fault()
        if fault == FaultInjector.DIE:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == FaultInjector.CRASH:
            raise InjectedCrash("injected solver crash")
        if fault == FaultInjector.ERROR:
            # Contained like a timeout: a solver-internal error must not
            # escape the service as a raw exception (see solver_errors_
            # contained); UNKNOWN is already handled conservatively by
            # every caller, and is never cached.
            self.stats.solver_errors_contained += 1
            return SatResult.UNKNOWN
        if fault == FaultInjector.TIMEOUT:
            self.stats.query_timeouts += 1
            return SatResult.UNKNOWN  # like a real timeout: never cached
        if fault == FaultInjector.UNKNOWN:
            return SatResult.UNKNOWN
        formulas = tuple(formulas)
        conjuncts = self._normalize(formulas)

        # Tier 0: syntactic.  A literal ``false`` conjunct or a
        # contradiction-by-negation decides without any cache or solver.
        if conjuncts is None:
            self.stats.syntactic_hits += 1
            return SatResult.UNSAT
        if not conjuncts:
            self.stats.syntactic_hits += 1
            return SatResult.SAT
        for term in conjuncts:
            if term.kind is Kind.NOT and term.args[0] in conjuncts:
                self.stats.syntactic_hits += 1
                return SatResult.UNSAT

        if self.cache_enabled and fault is None:
            shard = self._shard(int_budget)
            # Tier 1: exact.
            cached = shard.exact.get(conjuncts)
            if cached is not None:
                self.stats.exact_hits += 1
                return SatResult.SAT if cached else SatResult.UNSAT
            # Tier 2: subset of a satisfiable set.
            for sat_set in shard.sat_sets:
                if conjuncts <= sat_set:
                    self.stats.subset_hits += 1
                    shard.put(conjuncts, True)
                    return SatResult.SAT
            # Tier 3: superset of an UNSAT core.
            for core in shard.unsat_cores:
                if core <= conjuncts:
                    self.stats.superset_hits += 1
                    shard.put(conjuncts, False)
                    return SatResult.UNSAT
            # Tier 4: reuse a recent model as a total interpretation.
            if shard.find_model(conjuncts) is not None:
                self.stats.model_eval_hits += 1
                shard.record(conjuncts, True, None)
                return SatResult.SAT

        # Tier 5: full DPLL(T) on a fresh solver.
        result, model = self._solve(
            conjuncts, int_budget, corrupt=fault == FaultInjector.BAD_MODEL
        )
        if self.cache_enabled and result is not SatResult.UNKNOWN:
            # Never let a model that fails its own conjuncts into the
            # model-eval tier (a corrupted model's *verdict* is still
            # the solver's, but the assignment itself is untrustworthy).
            if model is not None and fault is not None and not model.satisfies(conjuncts):
                model = None
            self._shard(int_budget).record(
                conjuncts, result is SatResult.SAT, model
            )
        return result

    def reset(self) -> None:
        """Drop all cached state and counters (tests and benchmarks)."""
        self.stats = SolverStats()
        self._retired_writes = self.cache_version() + 1
        self._shards.clear()

    # -- cross-process cache deltas (see repro.parallel) -----------------------

    def cache_mark(self) -> dict[int, tuple[int, int]]:
        """An O(#shards) position marker for :meth:`collect_delta_since`:
        per shard, the eviction-reset count and the insertion-journal
        length.  Taken at task start by every forked worker — the
        ``--jobs`` engine's speculation tasks and the pooled ``repro
        serve`` workers alike — so marking costs nothing even against
        a large warm cache."""
        return {
            b: (shard.resets, len(shard.journal))
            for b, shard in self._shards.items()
        }

    def collect_delta_since(
        self, mark: dict[int, tuple[int, int]], stats_baseline: SolverStats
    ) -> CacheDelta:
        """Everything cached since ``mark`` (a :meth:`cache_mark`),
        wire-encoded for the parent and read as a journal suffix —
        O(entries gained), so an all-hits warm request pays nothing.
        Entries keep their insertion order.  Only definite verdicts live
        in the exact tier (UNKNOWN is never cached), so every shipped
        entry is sound to reuse: SAT is a function of the formula, not
        of which process solved it.  A shard evicted since the mark
        contributes its whole (restarted) journal: every surviving entry
        postdates the mark.  An empty mark ships the whole cache."""
        flat: list[Term] = []
        entries: list[tuple[int, tuple[int, ...], bool, bool, bool]] = []
        for int_budget, shard in self._shards.items():
            resets, position = mark.get(int_budget, (0, 0))
            if shard.resets != resets:
                position = 0
            if position >= len(shard.journal):
                continue
            # Set views of the tier deques: membership per entry must be
            # O(1), not a scan of up to MAX_SETS frozensets.
            in_sat_sets = set(shard.sat_sets)
            in_unsat_cores = set(shard.unsat_cores)
            for key in shard.journal[position:]:
                positions = tuple(range(len(flat), len(flat) + len(key)))
                flat.extend(key)
                entries.append(
                    (
                        int_budget,
                        positions,
                        shard.exact[key],
                        key in in_sat_sets,
                        key in in_unsat_cores,
                    )
                )
        return CacheDelta(
            wire=to_wire_many(flat),
            entries=entries,
            stats=self.stats.perf_delta_since(stats_baseline),
        )

    def merge_delta(self, delta: CacheDelta) -> int:
        """Fold a worker's :class:`CacheDelta` into this service's cache
        and count the entries actually imported; returns that number.
        The delta's perf counters are the caller's to file:
        :meth:`SolverStats.merge_perf` (speculative work the caller
        redoes) or :meth:`SolverStats.add_perf` (work done on its behalf)."""
        imported = self._import_entries(delta)
        self.stats.cache_entries_imported += imported
        return imported

    def _import_entries(self, delta: CacheDelta) -> int:
        roots = from_wire_many(delta.wire)
        imported = 0
        # Per-shard set views of the tier deques, built once and kept in
        # step with the appends below: the dedup checks must be O(1),
        # not O(MAX_SETS) scans per imported entry.
        sat_views: dict[int, set[frozenset[Term]]] = {}
        core_views: dict[int, set[frozenset[Term]]] = {}
        for int_budget, positions, verdict, in_sats, in_cores in delta.entries:
            key = frozenset(roots[i] for i in positions)
            shard = self._shard(int_budget)
            if key not in shard.exact:
                shard.put(key, verdict)
                imported += 1
            if in_sats:
                view = sat_views.get(int_budget)
                if view is None:
                    view = sat_views[int_budget] = set(shard.sat_sets)
                if key not in view:
                    shard.add_sat_set(key)
                    view.add(key)
            if in_cores:
                view = core_views.get(int_budget)
                if view is None:
                    view = core_views[int_budget] = set(shard.unsat_cores)
                if key not in view:
                    shard.add_unsat_core(key)
                    view.add(key)
        return imported

    # -- cross-run cache persistence (see repro.store) -------------------------

    def export_cache(self) -> CacheDelta:
        """Every exact-tier entry of every shard, wire-encoded — the
        persistable form of the whole cache, not a delta.  Reuses the
        :class:`CacheDelta` shape against an empty mark; the stats
        payload is zeroed (a store records verdicts, not the solve time
        some other run paid for them).  Models are not exported, same
        as deltas: the model-eval tier refills from live solves."""
        delta = self.collect_delta_since({}, self.stats)
        return CacheDelta(wire=delta.wire, entries=delta.entries, stats=SolverStats())

    def cache_version(self) -> int:
        """A number that grows with every write :meth:`export_cache`
        reads, and only with those — equal versions mean an equal
        export.  O(#shards), so :meth:`repro.store.AnalysisStore.save`
        can ask it after every request."""
        return self._retired_writes + sum(
            shard.writes for shard in self._shards.values()
        )

    def import_cache(self, delta: CacheDelta) -> int:
        """Load a persisted :meth:`export_cache` into the shards;
        returns the number of entries imported.  Unlike
        :meth:`merge_delta` this touches no counter — a disk store's
        history is not this run's work — so the run's own tier/timing
        stats stay honest.  Every entry is a definite
        verdict of its formula (UNKNOWN is never cached), so importing
        can accelerate but never change any answer."""
        return self._import_entries(delta)

    # -- internals -------------------------------------------------------------

    #: Counter → trace tier label, in answer-precedence order (a
    #: BAD_MODEL fault still does a full solve: report "full_solve").
    _TIER_COUNTERS = (
        ("syntactic_hits", "syntactic"),
        ("exact_hits", "exact"),
        ("subset_hits", "subset"),
        ("superset_hits", "superset"),
        ("model_eval_hits", "model_eval"),
        ("full_solves", "full_solve"),
        ("injected_faults", "fault"),
    )

    def _tier_snapshot(self) -> tuple[int, ...]:
        """Tier counters before a query (trace spans diff them after)."""
        return tuple(getattr(self.stats, name) for name, _ in self._TIER_COUNTERS)

    def _tier_hit(self, before: tuple[int, ...]) -> str:
        """Which cache tier answered the query since ``before``."""
        for (name, label), prev in zip(self._TIER_COUNTERS, before):
            if getattr(self.stats, name) > prev:
                return label
        return "uncached"

    def _shard(self, int_budget: int) -> _Shard:
        shard = self._shards.get(int_budget)
        if shard is None:
            shard = self._shards[int_budget] = _Shard()
        return shard

    @staticmethod
    def _normalize(formulas: Iterable[Term]) -> Optional[frozenset[Term]]:
        """Flatten to a canonical conjunct set; None means literally UNSAT."""
        out: set[Term] = set()
        stack = list(formulas)
        while stack:
            term = stack.pop()
            if term.sort != BOOL:
                raise SortError(f"assertions must be boolean, got {term.sort}")
            if term.kind is Kind.AND:
                stack.extend(term.args)
                continue
            if term.kind is Kind.CONST_BOOL:
                if term.payload:
                    continue  # drop literal true
                return None  # literal false
            out.add(term)
        return frozenset(out)

    @staticmethod
    def _corrupted(model: Model) -> Model:
        """A coherent but wrong total interpretation (BAD_MODEL faults)."""
        return Model(
            {term: not value for term, value in model._bools.items()},
            {term: -value - 1 for term, value in model._ints.items()},
            model._apps,
            model._select_decls,
        )

    def _next_fault(self) -> Optional[str]:
        if self.fault_injector is None:
            return None
        fault = self.fault_injector.next_fault()
        if fault is not None:
            self.stats.injected_faults += 1
        return fault

    def _solve(
        self, conjuncts: frozenset[Term], int_budget: int, corrupt: bool = False
    ) -> tuple[SatResult, Optional[Model]]:
        deadline: Optional[float] = None
        if self.budget is not None:
            if self.budget.expired():
                # The run is over: refuse the solve outright, cheaply.
                self.stats.deadline_breaches += 1
                return SatResult.UNKNOWN, None
            deadline = self.budget.query_deadline_at()
        result, model = self._solve_once(conjuncts, int_budget, deadline)
        if corrupt and model is not None:
            model = self._corrupted(model)
        if (
            self.paranoid
            and result is SatResult.SAT
            and model is not None
            and not model.satisfies(conjuncts)
        ):
            # Trust ring 2: the solver handed back a "model" that does not
            # satisfy its own query.  Count it, drop it, and re-solve cold
            # on a fresh solver; if that one lies too, the query is
            # undecided as far as we are concerned.
            self.stats.self_check_failures += 1
            result, model = self._solve_once(conjuncts, int_budget, deadline)
            if (
                result is SatResult.SAT
                and model is not None
                and not model.satisfies(conjuncts)
            ):
                return SatResult.UNKNOWN, None
        return result, model

    def _solve_once(
        self, conjuncts: frozenset[Term], int_budget: int, deadline: Optional[float]
    ) -> tuple[SatResult, Optional[Model]]:
        self.stats.full_solves += 1
        solver = Solver(int_budget=int_budget, deadline=deadline)
        solver.add(*conjuncts)
        started = time.perf_counter()
        try:
            result = solver.check()
        except SolverError:
            # A solver-internal failure is contained at the service
            # boundary: degrade to an uncached UNKNOWN, like a timeout.
            self.stats.solver_errors_contained += 1
            result = SatResult.UNKNOWN
        finally:
            self.stats.solve_seconds += time.perf_counter() - started
            self.stats.sat_conflicts += solver.stats["sat_conflicts"]
            self.stats.sat_restarts += solver.stats["sat_restarts"]
            self.stats.theory_rounds += solver.stats["theory_rounds"]
        if solver.timed_out:
            self.stats.query_timeouts += 1
        model = solver.model() if result is SatResult.SAT else None
        return result, model



# ---------------------------------------------------------------------------
# The process-wide service instance
# ---------------------------------------------------------------------------

_service: Optional[SolverService] = None


def get_service() -> SolverService:
    """The process-wide solver service (created on first use)."""
    global _service
    if _service is None:
        _service = SolverService()
    return _service


def set_service(service: SolverService) -> SolverService:
    """Install a specific service instance (benchmark A/B setups)."""
    global _service
    _service = service
    return service


def reset_service() -> SolverService:
    """Replace the process-wide service with a fresh one."""
    return set_service(SolverService())
