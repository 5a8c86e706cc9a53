"""The parallel analysis engine: multi-process block fan-out with
cross-process query-cache warming.

Both analyzers spend their time in solver queries, and both already
funnel every query through the process-wide
:class:`repro.smt.service.SolverService` cache.  That makes a simple,
*exactness-preserving* parallel architecture possible:

1. **Speculative fan-out.**  At a point where independent work is known
   (the MIXY fixpoint's per-round symbolic frontier; the MIX checker's
   per-block outcome verification queries), the parent forks a
   ``ProcessPoolExecutor`` of ``--jobs N`` workers.  Forking means each
   worker inherits a read-only snapshot of the parent's entire state —
   program, qualifier graph, block cache, and crucially the warm query
   cache — for free.
2. **Workers learn, they do not decide.**  Each worker runs its share of
   the work against the snapshot and returns only a
   :class:`~repro.smt.service.CacheDelta`: the solver verdicts it
   computed, wire-encoded (terms hash by identity and cannot be pickled;
   see ``terms.to_wire``), plus its perf-counter
   :class:`~repro.smt.service.SolverStats` delta.  Every conclusion a
   worker draws about the *program* is discarded.
3. **Authoritative serial pass.**  The parent then runs the completely
   unchanged serial algorithm.  Verdicts are a function of the formula
   alone, so the merged cache is semantically transparent: the serial
   pass computes byte-for-byte the same warnings, diagnostics, qualifier
   graph, and caches as it would have cold — it merely finds almost
   every query pre-answered.  Equivalence with ``--jobs 1`` is therefore
   by construction, not by protocol.

Worker crashes cannot corrupt anything under this scheme: a dead or
crashed worker just means a lost delta (counted in
``speculation_failures``; a repro is recorded for process deaths) and
the serial pass re-solving that block's queries itself.  A
*deterministic* crash (e.g. ``--inject-fault N:crash``) re-fires during
the serial pass and is contained there by trust ring 3 exactly as in a
serial run: repro written, block degraded, run continues.

A block's speculative terms match the authoritative pass's terms (the
cache is keyed on hash-consed conjunct sets) because the MIXY executor
names symbols and addresses *per block* at every ``--jobs``: each block
run, nested ones included, gets its own naming scope
(``CSymExecutor.block_scope``).  The same property lets a re-analysis
of a block in a later fixpoint round regenerate identical terms, so
cache reuse compounds across rounds with or without workers.
``--jobs 1`` differs only in what it skips: no forks, no deltas.

With ``--schedule waves|portfolio`` a :class:`repro.schedule.Scheduler`
plans each round instead of the one-task-per-item fifo fan-out: related
blocks are batched into *waves* (one worker task each, amortizing the
forked cache snapshot), converged blocks are skipped (no pool is even
created when a whole round is skippable), and — in portfolio mode —
hot blocks are *raced* under several solver strategies with cooperative
cancellation of the losers (:class:`~repro.smt.sat.SatCancelled`).  All
of it stays on the speculative side of the fence: the authoritative
pass is untouched, so every schedule mode produces byte-identical
output.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro import smt
from repro.profiling import worker_task_profile
from repro.smt.sat import SatCancelled
from repro.smt.service import CacheDelta
from repro.smt.terms import Wire, from_wire_many, to_wire_many
from repro.trace import TRACER

if TYPE_CHECKING:
    from repro.mixy.driver import Mixy
    from repro.schedule import Scheduler

#: The driver a forked MIXY worker operates on.  Set in the parent right
#: before the pool is created so workers inherit it through fork; tasks
#: themselves ship only block names (everything else is unpicklable).
_WORKER_DRIVER: Optional["Mixy"] = None

#: Cooperative race-cancellation flags, one per portfolio race.  Created
#: (fork context) in the parent *before* the pool so every worker
#: inherits the same Event objects; a race loser polls its slot's flag
#: from inside the solver loops and aborts with ``SatCancelled``.
_RACE_EVENTS: list = []

#: True in worker processes; a belt-and-braces guard against a worker
#: ever trying to fan out again.
_IN_WORKER = False

#: Single-core portfolio time trial: how far past the fastest contender's
#: wall time a later contender may run before it is poisoned.  Winners
#: are picked by solve *count*, never wall time (see
#: ``_race_time_trial``); the clock only bounds the trial's total cost,
#: and a bound of exactly 1.0x lets fork/load jitter — the very noise
#: the trial exists to factor out — cancel the structurally cheaper
#: strategy before its count is measured.
RACE_TRIAL_SLACK = 2.0

#: Additive part of the same poisoning budget.  Load spikes on a busy
#: host are absolute (a scheduler stall costs the same second whether
#: the task needed 0.3s or 30s), so a purely multiplicative slack still
#: poisons sub-second contenders on noise; the grace term absorbs that
#: while staying irrelevant for contenders slow enough to be worth
#: cancelling.
RACE_TRIAL_GRACE_SECS = 2.0


def mark_forked_child() -> None:
    """Mark this freshly forked process as a worker: it must never fan
    out again (``ParallelEngine.available()`` turns False), and its
    inherited tracer is rescoped to a per-worker sidecar file.  Called
    by the pool initializer below and by ``repro serve``'s pooled
    request workers — a SIGKILLed request worker that had forked its
    own grandchildren would orphan them, so request workers run serial.
    """
    global _IN_WORKER
    _IN_WORKER = True
    TRACER.rescope_for_worker()


def reset_worker_state() -> None:
    """Between requests in a long-lived pooled ``repro serve`` worker:
    drop the per-request attachments on the shared solver service so the
    next request starts from exactly the state a freshly forked worker
    would see.  The cache itself is deliberately kept — it is the warm
    snapshot the worker exists to reuse; per-request determinism state
    (qualifier ids, string interns) is reset by ``analyze_source`` at
    request entry, same as every other execution mode."""
    service = smt.get_service()
    service.fault_injector = None
    service.cancel_check = None
    service.strategy = "default"
    service.budget = None
    if TRACER.enabled:
        TRACER.flush()  # sidecar lines land before the next request's


def _mark_worker() -> None:
    """Pool initializer (runs in each freshly forked worker)."""
    # Redirect the inherited tracer to a per-worker sidecar file with
    # w<pid>-prefixed span ids; the parent merges sidecars after the
    # pool drains (see Tracer.merge_worker_files).
    mark_forked_child()
    driver = _WORKER_DRIVER
    if driver is not None:
        # Speculation needs verdicts, not trust-ring ceremony: witness
        # replay happens authoritatively in the parent, and a worker
        # crash is handled by the wrapper in _speculate_block (shrinking
        # a repro twice — here and again in the parent — would double
        # the containment cost for no information).
        driver.executor.witness_checker = None
        driver.config.contain_crashes = False


@dataclass
class SpeculationResult:
    """What one worker task sends home."""

    label: str
    delta: Optional[CacheDelta]
    error: Optional[str] = None
    #: The task was a race loser, poisoned mid-solve; its partial delta
    #: is discarded (the winner's is complete) and it is not a failure.
    cancelled: bool = False


def _speculate_block(name: str, path_cap: Optional[int]) -> SpeculationResult:
    """Worker: analyze one MIXY frontier block against the forked
    snapshot and return the query-cache delta it produced."""
    driver = _WORKER_DRIVER
    assert driver is not None, "worker forked without a driver installed"
    service = smt.get_service()
    mark = service.cache_mark()
    stats0 = replace(service.stats)
    budget = driver.config.budget
    if budget is not None:
        budget.rescope_for_worker(path_cap)  # forked copy: parent unaffected
    error: Optional[str] = None
    with TRACER.span("worker.task", name, cap=path_cap):
        with worker_task_profile():
            try:
                driver._analyze_symbolic_function(name)
            except BaseException as exc:  # injected crashes included — contain all
                error = f"{type(exc).__name__}: {exc}"
    if TRACER.enabled:
        TRACER.flush()
    try:
        delta = service.collect_delta_since(mark, stats0)
    except Exception as exc:
        return SpeculationResult(name, None, f"{type(exc).__name__}: {exc}")
    return SpeculationResult(name, delta, error)


def _speculate_wave(
    names: tuple[str, ...],
    path_cap: Optional[int],
    strategy: str = "default",
    race_slot: Optional[int] = None,
) -> SpeculationResult:
    """Worker: analyze a whole *wave* of frontier blocks in one task
    (scheduled modes).  ``strategy`` selects the solver variant for the
    task; ``race_slot`` indexes the fork-inherited cancellation flag
    when this task is a portfolio race contender."""
    driver = _WORKER_DRIVER
    assert driver is not None, "worker forked without a driver installed"
    label = names[0] if len(names) == 1 else f"{names[0]}+{len(names) - 1}"
    service = smt.get_service()
    # Pool workers are reused across tasks within a round: set the
    # strategy and poison hook explicitly at every task start rather
    # than trusting fork-time state.
    service.strategy = strategy
    service.cancel_check = (
        _RACE_EVENTS[race_slot].is_set if race_slot is not None else None
    )
    mark = service.cache_mark()
    stats0 = replace(service.stats)
    budget = driver.config.budget
    if budget is not None:
        budget.rescope_for_worker(path_cap)  # forked copy: parent unaffected
    error: Optional[str] = None
    cancelled = False
    with TRACER.span(
        "worker.task", label, cap=path_cap, wave=len(names), strategy=strategy
    ):
        with worker_task_profile():
            for name in names:
                try:
                    driver._analyze_symbolic_function(name)
                except SatCancelled:
                    cancelled = True  # poisoned race loser: stop the task
                    break
                except BaseException as exc:
                    error = f"{type(exc).__name__}: {exc}"
    if TRACER.enabled:
        TRACER.flush()
    if cancelled:
        # A partial delta would still be *correct* (verdicts are a
        # function of the formula), but the winner ships a complete one;
        # dropping the loser's keeps merge sizes deterministic-ish and
        # the accounting honest.
        return SpeculationResult(label, None, error, cancelled=True)
    try:
        delta = service.collect_delta_since(mark, stats0)
    except Exception as exc:
        return SpeculationResult(label, None, f"{type(exc).__name__}: {exc}")
    return SpeculationResult(label, delta, error)


def _speculate_queries(
    wire: Wire, groups: Sequence[tuple[int, ...]], int_budget: int
) -> SpeculationResult:
    """Worker: decode and check a batch of conjunction queries (the MIX
    checker's per-outcome verification), returning the cache delta."""
    service = smt.get_service()
    mark = service.cache_mark()
    stats0 = replace(service.stats)
    roots = from_wire_many(wire)
    error: Optional[str] = None
    with TRACER.span("worker.task", "queries", groups=len(groups)):
        with worker_task_profile():
            for positions in groups:
                try:
                    service.check_sat(
                        tuple(roots[i] for i in positions), int_budget=int_budget
                    )
                except BaseException as exc:
                    error = f"{type(exc).__name__}: {exc}"
    if TRACER.enabled:
        TRACER.flush()
    try:
        delta = service.collect_delta_since(mark, stats0)
    except Exception as exc:
        return SpeculationResult("queries", None, f"{type(exc).__name__}: {exc}")
    return SpeculationResult("queries", delta, error)


class ParallelEngine:
    """Schedules speculative workers and merges their cache deltas."""

    def __init__(self, jobs: int, scheduler: Optional["Scheduler"] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: Non-fifo dispatch planner (``--schedule waves|portfolio``);
        #: None keeps the original one-task-per-item fan-out.
        self.scheduler = scheduler

    @staticmethod
    def available() -> bool:
        """Fork-based fan-out requires the fork start method (POSIX) and
        must never re-enter from inside a worker."""
        return (
            not _IN_WORKER
            and os.name == "posix"
            and "fork" in multiprocessing.get_all_start_methods()
        )

    # -- MIXY: per-round frontier fan-out ----------------------------------

    def warm_mixy_round(self, driver: "Mixy", names: Sequence[str]) -> None:
        """Fan out one fixpoint round's symbolic frontier.  ``names``
        must already be in the serial (sorted) order; deltas are merged
        back in exactly that order.  Warnings and verdicts are identical
        at every ``--jobs`` (the cache accelerates, it never answers),
        but the cache counters under ``--jobs > 1`` are not: a reused
        pool worker carries the verdicts of its earlier tasks into its
        later ones, so full solves and hits depend on which worker got
        which block.  The pool is created per round: each round's
        workers fork off the parent *after* the previous round's deltas
        were merged, so cache warming compounds across rounds."""
        global _WORKER_DRIVER
        if not self.available():
            return
        if self.scheduler is not None and names:
            self._warm_mixy_scheduled(driver, names)
            return
        if len(names) < 2:
            return
        budget = driver.config.budget
        caps: list[Optional[int]] = (
            budget.shard_path_caps(self.jobs) if budget is not None else [None] * self.jobs
        )
        if not caps:
            return  # path budget exhausted: nothing useful to speculate
        results: dict[str, Optional[SpeculationResult]] = {}
        _WORKER_DRIVER = driver
        # Flush before forking so workers inherit an empty write buffer
        # (anything buffered would otherwise be duplicated into every
        # worker's sidecar stream at its process exit).
        if TRACER.enabled:
            TRACER.flush()
        fanout = TRACER.begin_span(
            "parallel.fanout", "mixy-round", jobs=len(caps), blocks=len(names),
            mode="fifo",
        ) if TRACER.enabled else None
        try:
            with ProcessPoolExecutor(
                max_workers=min(len(caps), len(names)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_mark_worker,
            ) as pool:
                futures = {
                    name: pool.submit(_speculate_block, name, caps[i % len(caps)])
                    for i, name in enumerate(names)
                }
                for name, future in futures.items():
                    try:
                        results[name] = future.result()
                    except (BrokenProcessPool, Exception) as exc:
                        # A worker process died (segfault, OOM kill, ...).
                        # Contained per block: record a repro, count it,
                        # and let the authoritative pass redo the block.
                        results[name] = None
                        self._record_worker_death(driver, name, exc)
        finally:
            _WORKER_DRIVER = None
            if fanout is not None:
                TRACER.end_span(fanout)
        with TRACER.span("parallel.merge", "mixy-round"):
            if TRACER.enabled:
                TRACER.merge_worker_files()
            self._merge(names, results)

    def _warm_mixy_scheduled(self, driver: "Mixy", names: Sequence[str]) -> None:
        """Scheduled fan-out of one frontier round: the scheduler plans
        waves / races / skips, this method executes the plan.  A fully
        skipped round returns before any pool is created — that is the
        main later-round win, because forking a pool for deltas that
        import nothing costs more than it saves."""
        global _WORKER_DRIVER, _RACE_EVENTS
        sched = self.scheduler
        assert sched is not None
        service = smt.get_service()
        features = {n: driver.sched_features(n) for n in names}
        hashes = {n: driver.block_content_hash(n) for n in names}
        plan = sched.plan_mixy_round(list(names), features, hashes)
        service.stats.blocks_skipped += len(plan.skipped)
        if plan.empty:
            return  # converged round: skip the fork entirely
        budget = driver.config.budget
        caps: list[Optional[int]] = (
            budget.shard_path_caps(self.jobs) if budget is not None else [None] * self.jobs
        )
        if not caps:
            return  # path budget exhausted: nothing useful to speculate
        service.stats.waves_dispatched += len(plan.waves)
        ctx = multiprocessing.get_context("fork")
        # Events must exist before any fork so workers share them.
        _RACE_EVENTS = [ctx.Event() for _ in plan.races]
        _WORKER_DRIVER = driver
        if TRACER.enabled:
            TRACER.flush()  # workers must not inherit buffered lines
        fanout = TRACER.begin_span(
            "parallel.fanout", "mixy-round",
            jobs=len(caps), blocks=len(names), mode=sched.mode,
            waves=len(plan.waves), races=len(plan.races),
            skipped=len(plan.skipped),
        ) if TRACER.enabled else None
        winners: dict[str, str] = {}
        cancelled_n = 0
        try:
            # Races run first, each in its own freshly forked pool(s) —
            # never in the shared wave pool.  Three kinds of rigging are
            # excluded by construction: a contender queued behind other
            # tasks "wins" on seniority, not speed; a contender on a
            # reused worker that just ran the same block exact-hits
            # every query; and a contender racing after an earlier
            # race's delta merged measures a warm cache, where the
            # residual solver work is noise, not strategy (observed as
            # a different "winner" per run).  So every contender forks
            # from the same pre-race snapshot, and the winning deltas
            # merge together only after the last race settles.
            race_results: dict[str, Optional[SpeculationResult]] = {}
            for slot, race in enumerate(plan.races):
                if sched.cores >= len(race.strategies):
                    picked, won, cancelled = self._race_concurrent(
                        driver, race, slot, ctx, caps
                    )
                else:
                    picked, won, cancelled = self._race_time_trial(
                        driver, race, slot, ctx, caps
                    )
                cancelled_n += cancelled
                race_results[race.name] = picked
                if won is not None:
                    winners[race.name] = won
                    sched.note_winner(race.name, won)
            if plan.races:
                with TRACER.span("parallel.merge", "races"):
                    if TRACER.enabled:
                        TRACER.merge_worker_files()
                    imported = self._merge(
                        [r.name for r in plan.races], race_results
                    )
                    for race in plan.races:
                        if race.name in imported:
                            sched.note_result(
                                (race.name,), imported[race.name]
                            )
            if plan.waves:
                # Size the wave pool to the hardware, not to --jobs: on a
                # host with fewer cores than jobs, surplus workers only
                # add fork and context-switch cost — and sequential wave
                # tasks in one reused worker *share* cache (each task
                # marks at task start, so wave 2 rides wave 1's
                # verdicts instead of re-deriving them).
                workers = min(
                    len(caps), len(plan.waves),
                    max(1, min(self.jobs, sched.cores)),
                )
                wave_labels: list[str] = []
                results: dict[str, Optional[SpeculationResult]] = {}
                if TRACER.enabled:
                    TRACER.flush()
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=ctx,
                    initializer=_mark_worker,
                ) as pool:
                    wave_futs = []
                    for i, wave in enumerate(plan.waves):
                        label = (
                            wave[0] if len(wave) == 1
                            else f"{wave[0]}+{len(wave) - 1}"
                        )
                        wave_labels.append(label)
                        wave_futs.append((label, pool.submit(
                            _speculate_wave, wave, caps[i % len(caps)],
                            plan.wave_strategies[i], None,
                        )))
                    for label, future in wave_futs:
                        try:
                            results[label] = future.result()
                        except (BrokenProcessPool, Exception) as exc:
                            results[label] = None
                            self._record_worker_death(driver, label, exc)
                with TRACER.span("parallel.merge", "mixy-round"):
                    if TRACER.enabled:
                        TRACER.merge_worker_files()
                    imported = self._merge(wave_labels, results)
                    # Convergence feedback: only deltas that actually
                    # merged count — a failed speculation must not look
                    # converged.
                    for label, wave in zip(wave_labels, plan.waves):
                        if label in imported:
                            sched.note_result(wave, imported[label])
        finally:
            _WORKER_DRIVER = None
            _RACE_EVENTS = []
            service.stats.spec().cancelled += cancelled_n
            if fanout is not None:
                TRACER.end_span(
                    fanout, winners=dict(winners), cancelled=cancelled_n
                )

    def _race_concurrent(
        self, driver: "Mixy", race, slot: int, ctx, caps: list
    ) -> tuple[Optional[SpeculationResult], Optional[str], int]:
        """One portfolio race with genuinely parallel contenders: a
        dedicated pool, all contenders submitted together, first
        finisher wins, losers poisoned via the race event.  Returns
        (winning result, winning strategy, contenders cancelled)."""
        service = smt.get_service()
        if TRACER.enabled:
            TRACER.flush()
        cancelled = 0
        with ProcessPoolExecutor(
            max_workers=len(race.strategies),
            mp_context=ctx,
            initializer=_mark_worker,
        ) as pool:
            contenders = [
                (strat, pool.submit(
                    _speculate_wave, (race.name,),
                    caps[i % len(caps)], strat, slot,
                ))
                for i, strat in enumerate(race.strategies)
            ]
            service.stats.spec().raced += len(contenders)
            done, not_done = wait(
                [f for _, f in contenders], return_when=FIRST_COMPLETED
            )
            _RACE_EVENTS[slot].set()
            for f in not_done:
                f.cancel()  # never started: free the slot outright
            finished = []
            for strat, f in contenders:
                if f.cancelled():
                    cancelled += 1
                    continue
                try:
                    r = f.result()
                except (BrokenProcessPool, Exception) as exc:
                    self._record_worker_death(driver, race.name, exc)
                    continue
                if r.cancelled:
                    cancelled += 1
                    continue
                finished.append((strat, r, f in done))
        pick = next(
            (fr for fr in finished if fr[1].delta is not None and fr[2]), None
        ) or next(
            (fr for fr in finished if fr[1].delta is not None), None
        )
        if pick is None:
            return None, None, cancelled
        return pick[1], pick[0], cancelled

    def _race_time_trial(
        self, driver: "Mixy", race, slot: int, ctx, caps: list
    ) -> tuple[Optional[SpeculationResult], Optional[str], int]:
        """One portfolio race on hardware that cannot run contenders
        side by side (cores < contenders): a concurrent race there is
        decided by the OS scheduler's time-slicing, not strategy merit —
        observed as a different "winner" every run.  Instead the
        contenders run back to back, each in its own freshly forked
        single-worker pool (identical starting snapshot: a reused worker
        would let contender 2 exact-hit contender 1's verdicts), against
        the clock: a contender is poisoned once it exceeds
        ``fastest * RACE_TRIAL_SLACK + RACE_TRIAL_GRACE_SECS``, so the
        trial costs at most ``(best * slack + grace) * n``.  The slack
        (and its additive grace) matters: the whole
        point of the trial is that wall noise outweighs the strategy
        difference, so poisoning at exactly ``fastest`` would let that
        same noise cancel a structurally cheaper contender (e.g. a warm
        page cache for whoever forked first) before its solve count —
        the actual verdict — was ever read.  Among the finishers, the
        winner is the fewest *full
        solves* (from the delta's stats), not the least task wall
        clock: wall folds in fork, execution, and load noise that
        outweighs the actual strategy difference (observed: a
        different "winner" per trial), while the solve count against
        the shared cold snapshot is a deterministic function of the
        strategy — it drops exactly when a variant structurally
        avoids solver work (e.g. ``intfirst``'s direct integer
        decide + conjunct cores), which is the only advantage worth
        re-dispatching on the next run.  Count ties break to earlier
        strategy order, i.e. against the cheap-looking variant."""
        service = smt.get_service()
        fastest: Optional[float] = None
        best_work: Optional[tuple[int, int]] = None
        won: Optional[str] = None
        picked: Optional[SpeculationResult] = None
        cancelled = 0
        for i, strat in enumerate(race.strategies):
            _RACE_EVENTS[slot].clear()
            if TRACER.enabled:
                TRACER.flush()
            service.stats.spec().raced += 1
            with ProcessPoolExecutor(
                max_workers=1, mp_context=ctx, initializer=_mark_worker
            ) as pool:
                start = time.monotonic()
                fut = pool.submit(
                    _speculate_wave, (race.name,),
                    caps[i % len(caps)], strat, slot,
                )
                budget = (
                    None
                    if fastest is None
                    else fastest * RACE_TRIAL_SLACK + RACE_TRIAL_GRACE_SECS
                )
                done, _ = wait([fut], timeout=budget)
                if not done:
                    _RACE_EVENTS[slot].set()  # too slow: cannot win
                try:
                    r = fut.result()
                except (BrokenProcessPool, Exception) as exc:
                    self._record_worker_death(driver, race.name, exc)
                    continue
                elapsed = time.monotonic() - start
            if r.cancelled:
                cancelled += 1
                continue
            if r.delta is None:
                continue
            if fastest is None or elapsed < fastest:
                fastest = elapsed
            work = (r.delta.stats.full_solves, i)
            if best_work is None or work < best_work:
                best_work, won, picked = work, strat, r
        return picked, won, cancelled

    @staticmethod
    def _record_worker_death(driver: "Mixy", name: str, exc: Exception) -> None:
        from repro.crash import record_crash
        from repro.mixy.c.pretty import pretty_program

        source = pretty_program(driver.program)
        record_crash(
            exc,
            phase=f"mixy:parallel-worker:{name}",
            source=source,
            # No shrinking: the crash killed a whole process, so probing
            # candidates in-process could not reproduce it faithfully.
            shrunk_source=source,
            crash_dir=driver.config.crash_dir,
            injector=smt.get_service().fault_injector,
        )

    # -- MIX: per-block outcome-verification fan-out -----------------------

    def warm_mix_queries(
        self, groups: Sequence[tuple["smt.Term", ...]], int_budget: int = 4000
    ) -> None:
        """Fan out a batch of independent conjunction queries (the MIX
        checker's failing-path feasibility and exhaustiveness checks).
        Queries are wire-encoded to the workers and deltas merged back in
        chunk order.  With a scheduler, chunks are similarity waves over
        shared wire-encoded conjuncts instead of round-robin stripes."""
        if not self.available() or len(groups) < 2:
            return
        flat: list["smt.Term"] = []
        positions: list[tuple[int, ...]] = []
        for group in groups:
            positions.append(tuple(range(len(flat), len(flat) + len(group))))
            flat.extend(group)
        wire = to_wire_many(flat)
        if self.scheduler is not None:
            _nodes, roots = wire
            waves = self.scheduler.plan_query_waves(positions, roots)
            chunks = [[positions[g] for g in wave] for wave in waves]
            smt.get_service().stats.waves_dispatched += len(chunks)
        else:
            jobs = min(self.jobs, len(groups))
            chunks = [positions[i::jobs] for i in range(jobs)]
        results: list[Optional[SpeculationResult]] = []
        if TRACER.enabled:
            TRACER.flush()  # workers must not inherit buffered lines
        fanout = TRACER.begin_span(
            "parallel.fanout", "mix-queries", jobs=min(self.jobs, len(chunks)),
            queries=len(groups),
            mode=self.scheduler.mode if self.scheduler is not None else "fifo",
            waves=len(chunks) if self.scheduler is not None else 0,
        ) if TRACER.enabled else None
        workers = min(self.jobs, len(chunks))
        if self.scheduler is not None:
            # Same hardware-aware sizing as the MIXY wave path.
            workers = min(workers, max(1, self.scheduler.cores))
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_mark_worker,
            ) as pool:
                futures = [
                    pool.submit(_speculate_queries, wire, chunk, int_budget)
                    for chunk in chunks
                ]
                for future in futures:
                    try:
                        results.append(future.result())
                    except (BrokenProcessPool, Exception):
                        results.append(None)
        finally:
            if fanout is not None:
                TRACER.end_span(fanout)
        with TRACER.span("parallel.merge", "mix-queries"):
            if TRACER.enabled:
                TRACER.merge_worker_files()
            self._merge([f"chunk{i}" for i in range(len(results))], dict(
                (f"chunk{i}", r) for i, r in enumerate(results)
            ))

    # -- shared -------------------------------------------------------------

    @staticmethod
    def _merge(
        order: Sequence[str], results: dict[str, Optional[SpeculationResult]]
    ) -> dict[str, int]:
        """Merge worker deltas in the given deterministic order; returns
        the per-label count of cache entries actually imported (only for
        labels whose delta arrived — the scheduler's convergence feedback
        must not mistake a lost worker for a converged block)."""
        service = smt.get_service()
        imported: dict[str, int] = {}
        for name in order:
            result = results.get(name)
            if result is None or result.delta is None:
                service.stats.speculation_failures += 1
                continue
            service.stats.speculative_blocks += 1
            if result.error is not None:
                service.stats.speculation_failures += 1
            imported[name] = service.merge_delta(result.delta)
        return imported
