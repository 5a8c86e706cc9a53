"""The parallel analysis engine: MIXY's per-round block fan-out with
cross-process query-cache warming.

Its one caller is the MIXY fixpoint (``Mixy`` under ``--jobs N``),
which hands it each round's symbolic frontier.  MIXY spends its time in
solver queries, and every query already goes through the process-wide
:class:`repro.smt.service.SolverService` cache.  That makes a simple,
*exactness-preserving* parallel architecture possible:

1. **Speculative fan-out.**  Once per fixpoint round, the parent forks
   a ``ProcessPoolExecutor`` of ``--jobs N`` workers.  Forking means
   each worker inherits a read-only snapshot of the parent's entire
   state — program, qualifier graph, block cache, and crucially the
   warm query cache — for free.
2. **Workers learn, they do not decide.**  Each worker analyzes its
   frontier blocks against the snapshot and returns only a
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

Dispatch is first-in, first-out: one worker task per frontier block,
with deltas merged back in the serial order.  Workers are observed
through the tracer: each task is a ``worker.task`` span in a per-worker
sidecar file that the parent merges after the pool drains.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro import smt
from repro.smt.service import CacheDelta
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
    assert driver is not None
    # Speculation needs verdicts, not trust-ring ceremony: witness
    # replay happens authoritatively in the parent, and a worker crash
    # is handled by the wrapper in _speculate_block (shrinking a repro
    # twice — here and again in the parent — would double the
    # containment cost for no information).
    driver.executor.witness_checker = None
    driver.config.contain_crashes = False


@dataclass
class SpeculationResult:
    """What one worker task sends home."""

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
        try:
            driver._analyze_symbolic_function(name)
        except BaseException as exc:  # injected crashes included — contain all
            error = f"{type(exc).__name__}: {exc}"
    if TRACER.enabled:
        TRACER.flush()
    try:
        delta = service.collect_delta_since(mark, stats0)
    except Exception as exc:
        return SpeculationResult(None, f"{type(exc).__name__}: {exc}")
    return SpeculationResult(delta, error)


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
        results: list[Optional[SpeculationResult]] = []
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
                futures = [
                    pool.submit(_speculate_block, name, caps[i % len(caps)])
                    for i, name in enumerate(names)
                ]
                for name, future in zip(names, futures):
                    try:
                        results.append(future.result())
                    except (BrokenProcessPool, Exception) as exc:
                        # A worker process died (segfault, OOM kill, ...).
                        # Contained per block: record a repro, count it,
                        # and let the authoritative pass redo the block.
                        results.append(None)
                        self._record_worker_death(driver, name, exc)
        finally:
            _WORKER_DRIVER = None
            if fanout is not None:
                TRACER.end_span(fanout)
        with TRACER.span("parallel.merge", "mixy-round"):
            if TRACER.enabled:
                TRACER.merge_worker_files()
            self._merge(results)

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

    @staticmethod
    def _merge(results: Sequence[Optional[SpeculationResult]]) -> None:
        """Merge worker deltas in frontier (serial) order."""
        service = smt.get_service()
        for result in results:
            if result is None or result.delta is None:
                service.stats.speculation_failures += 1
                continue
            service.stats.speculative_blocks += 1
            if result.error is not None:
                service.stats.speculation_failures += 1
            service.merge_delta(result.delta)
            service.stats.merge_perf(result.delta.stats)
