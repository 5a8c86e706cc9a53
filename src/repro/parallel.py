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

Dispatch is first-in, first-out: one worker task per frontier block
(MIXY) or one round-robin chunk of queries per worker (MIX), with
deltas merged back in the serial order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro import smt
from repro.profiling import worker_task_profile
from repro.smt.service import CacheDelta
from repro.smt.terms import Wire, from_wire_many, to_wire_many
from repro.trace import TRACER

if TYPE_CHECKING:
    from repro.mixy.driver import Mixy

#: The driver a forked MIXY worker operates on.  Set in the parent right
#: before the pool is created so workers inherit it through fork; tasks
#: themselves ship only block names (everything else is unpicklable).
_WORKER_DRIVER: Optional["Mixy"] = None

#: True in worker processes; a belt-and-braces guard against a worker
#: ever trying to fan out again.
_IN_WORKER = False


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
    drop the per-request attachments on the shared solver service (the
    fault injector and the budget) so the next request starts from
    exactly the state a freshly forked worker would see.  The cache
    itself is deliberately kept — it is the warm snapshot the worker
    exists to reuse; per-request determinism state (qualifier ids,
    string interns) is reset by ``analyze_source`` at request entry,
    same as every other execution mode."""
    service = smt.get_service()
    service.fault_injector = None
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

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

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
        if not self.available() or len(names) < 2:
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
            "parallel.fanout", "mixy-round", jobs=len(caps), blocks=len(names)
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
        Queries are wire-encoded to the workers in round-robin chunks and
        deltas merged back in chunk order."""
        if not self.available() or len(groups) < 2:
            return
        flat: list["smt.Term"] = []
        positions: list[tuple[int, ...]] = []
        for group in groups:
            positions.append(tuple(range(len(flat), len(flat) + len(group))))
            flat.extend(group)
        wire = to_wire_many(flat)
        jobs = min(self.jobs, len(groups))
        chunks = [positions[i::jobs] for i in range(jobs)]
        results: list[Optional[SpeculationResult]] = []
        if TRACER.enabled:
            TRACER.flush()  # workers must not inherit buffered lines
        fanout = TRACER.begin_span(
            "parallel.fanout", "mix-queries", jobs=min(self.jobs, len(chunks)),
            queries=len(groups),
        ) if TRACER.enabled else None
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)),
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
    ) -> None:
        """Merge worker deltas in the given deterministic order."""
        service = smt.get_service()
        for name in order:
            result = results.get(name)
            if result is None or result.delta is None:
                service.stats.speculation_failures += 1
                continue
            service.stats.speculative_blocks += 1
            if result.error is not None:
                service.stats.speculation_failures += 1
            service.merge_delta(result.delta)
