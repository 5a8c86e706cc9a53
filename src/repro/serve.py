"""``repro serve``: a supervised, overload-tolerant analysis daemon.

The CI-bot / editor-integration scenario: many short analyze requests
against mostly-unchanged sources.  A fresh process pays the full cost
every time; this daemon keeps the :class:`~repro.smt.service.
SolverService` query cache and the cross-run block store
(:mod:`repro.store`) warm across requests, and persists both to
``.repro-store/`` so even a daemon restart starts warm.

**Protocol (version 2)** — line-delimited JSON over a Unix or TCP
socket; one JSON object per line, one response line per request.
Every response carries a terminal ``status`` (plus the legacy ``ok``
boolean, true iff ``status == "ok"``)::

    -> {"cmd": "analyze", "lang": "mixy", "source": "...", "options": {...}}
    <- {"ok": true, "status": "ok", "result": {...}, "served": {...}}
    -> {"cmd": "ping"}     <- {"ok": true, "status": "ok", "pong": true}
    -> {"cmd": "stats"}    <- {"ok": true, "status": "ok", "stats": {...}}
    -> {"cmd": "shutdown"} <- {"ok": true, "status": "ok", "bye": true}

The terminal statuses (:data:`TERMINAL_STATUSES`):

- ``ok`` — the request completed; ``result`` is authoritative.
- ``error`` — the analyzer raised; ``error`` carries the one-line why.
- ``degraded`` — an isolated request worker died (crash, OOM-kill,
  injected ``die`` fault) or blew through the request deadline; the
  daemon survived, shipped a content-addressed crash repro
  (``crash_repro``), and no warm state from the doomed worker was kept.
- ``busy`` — load shed: the bounded queue was full.  The reply carries
  ``retry_after_ms``, an EWMA-based estimate of when a slot frees up.
- ``protocol_error`` — the *request* was unusable: not JSON, not an
  object, unknown ``cmd``, missing/ill-typed fields, over the size cap,
  or stalled mid-line past the read deadline.  The daemon replies
  instead of dropping the connection, so a client always learns why.

``result`` is the request's *deterministic analysis payload*: the exit
status and the exact lines a fresh ``repro mix`` or ``repro mixy``
prints on stdout (on stderr for exit 2).  Every front door — the
one-shot CLI, ``repro prove``, ``repro client`` and the daemon's pool
workers — runs through :func:`analyze_source`, so the one-shot stdout
*is* this ``result``.  Wall-clock timing and cache-hit counters live in
``served`` (the one-shot CLI prints the MIXY perf summary and its
``--store`` counters on stderr) — so ``result`` is bitwise identical
between a cold run, a warm run, and a fresh process: the store
accelerates, it never answers.

**Request isolation.**  Every analyze and prove request runs in a
persistent prefork **worker pool** (``--pool N``, POSIX only): N
long-lived workers forked from the warm daemon, each serving many
requests over a job pipe before being recycled.  There is no other
request path.  Every worker inherits the warm caches at fork
time and ships back its result plus wire-encoded cache deltas
(:meth:`~repro.smt.service.SolverService.collect_delta_since`, read
from a per-request insertion-journal mark, so the frame is sized by
what the request *learned*) and new block memos.  The parent merges
warm state **only from clean, un-faulted completions**; a worker that
dies — segfault, OOM kill, injected fault, deadline breach (SIGKILL
after ``--request-deadline`` plus a grace period) — produces a
``degraded`` reply and a crash repro, is replaced by a fresh fork, and
the daemon itself never goes down.  Workers are marked via
:func:`repro.parallel.mark_forked_child` so they can never fan out
grandchildren (which a SIGKILL would orphan).

**Concurrency and determinism.**  Pooled requests *execute*
concurrently; only warm-state merges serialize, under one lock, in the
order completions arrive.  Each request's merge happens before its own
reply, so a client that saw a reply knows the next request can be
served from what that one learned.  Merge order cannot reach a reply:
answers are cache-independent (the store accelerates, it never
answers), and a merge carries only formula→verdict entries and block
memos — never a model — so whichever completion merges first, every
later reply is the same.  Every clean merge reaches every worker by
**catch-up**: the parent keeps, per worker, a cursor into its own warm
state (the solver journal mark and the memo dicts' lengths) as of that
worker's fork or last job, and each job frame carries what the parent
merged since — a journal-suffix cache delta and the memo dicts' tails —
which the worker imports before it marks its own request.  No worker
is reforked for being behind; workers are recycled only after
``--worker-requests`` served requests and on any fault.

**Overload and hostile input.**  Connections are handled by one thread
each.  Admission is a bounded semaphore of ``--queue-depth`` analyze
slots: when full, the daemon *sheds* with a ``busy`` reply instead of
queueing unboundedly; the ``retry_after_ms`` hint accounts for the
pool's parallel width.  Each connection has a read deadline (anti
slow-loris) and a max-request-size cap (anti memory bomb); both produce
``protocol_error`` replies, not a wedged accept loop.

**Durability.**  The store uses per-section CRC32 checksums and a
two-generation write scheme (see :mod:`repro.store`), and a clean merge
is saved before its reply, under the same lock — so ``kill -9`` at any
instruction loses nothing a client already has a reply for and can
never corrupt the store.  A save that failed (``OSError``) is retried
by the next merge's save or the shutdown save.  Every save writes a
generation only when a block memo or the solver cache changed since the
last one, so all-hits traffic does no store I/O.

Per-request equivalence with a fresh process is engineered, not hoped
for: each analyze request resets the process-global string-intern
table, builds a fresh analyzer on the *shared* solver service, and runs
MIXY on the serial path unless the request says otherwise (``jobs:
1``; no environment variable is read); MIX has no parallel path, so a
MIX request's ``jobs`` is ignored like any other unknown option.
Contained block crashes write their repros under the daemon's
``--crash-dir``, which no request can choose.
Options may carry a per-request ``Budget`` (deadline / query timeout /
path cap) and a fault-injection schedule (``inject_fault``, same
``N:KIND`` specs as ``--inject-fault``) — both budgeted and
fault-injected requests skip the block memo, which is only transparent
for unbudgeted, un-faulted runs.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import random
import select
import signal
import socket
import struct
import sys
import threading
import time
from typing import NamedTuple, Optional

from repro.prove import (
    ERROR,
    PropertyResult,
    classify_mix,
    classify_mixy,
    exit_code,
    proof_options,
)
from repro.trace import TRACER

PROTOCOL_VERSION = 2

#: Every reply's ``status`` is one of these; a client can always switch
#: on it (chaos invariant: no reply without a terminal status).
TERMINAL_STATUSES = ("ok", "error", "degraded", "busy", "protocol_error")

#: Seconds past the effective request deadline before a worker that has
#: not replied is SIGKILLed (covers budget-aware wind-down + pickling).
WORKER_KILL_GRACE = 2.0

#: Socket poll interval: how often blocked reads re-check stop flags.
_POLL_SECS = 0.25

#: The modules analyze and prove requests import lazily, down to their
#: crash-containment and witness-replay paths, plus ``repro.parallel``,
#: which every new pool worker imports (with multiprocessing and
#: subprocess: 16–19 ms a fork).  :meth:`ReproDaemon.bind` imports them
#: before the first pool fork, so every worker — the replacement of a
#: recycled one included — inherits them instead of paying the imports
#: (~60 ms for the MIXY driver alone) on its first request.
PRELOAD_MODULES = (
    "repro.budget",
    "repro.core",
    "repro.crash",
    "repro.lang.effects",
    "repro.lang.parser",
    "repro.mixy.c.interp",
    "repro.mixy.c.pretty",
    "repro.mixy.driver",
    "repro.parallel",
    "repro.prove",
    "repro.shrink",
    "repro.smt.encodings",
    "repro.symexec",
    "repro.typecheck.types",
    "repro.witness",
)


def _reply(status: str, **fields) -> dict:
    assert status in TERMINAL_STATUSES, status
    response = {"ok": status == "ok", "status": status}
    response.update(fields)
    return response


class WorkerCrash(RuntimeError):
    """A request worker died without a clean reply (recorded in the
    crash repro's traceback)."""


# ---------------------------------------------------------------------------
# One-request analysis: the front door of every analysis
# ---------------------------------------------------------------------------


def fresh_equivalence_state() -> None:
    """Reset the process-global counters that leak ordinal state between
    runs in one process: the string-intern table (qualifier-variable ids
    are per-:class:`~repro.mixy.qual.QualInference` ordinals, so they
    never leak across runs to begin with).  After this, an analysis run
    produces byte-identical diagnostics to the same run in a fresh
    process.  (The solver service is *not* reset — its cache is keyed on
    formulas, which are ordinal-free across runs of the same source
    precisely because of this reset.)"""
    from repro.symexec import values

    values._STRING_CODES.clear()


class Analysis(NamedTuple):
    """One request's outcome (see :func:`analyze_source`)."""

    #: the deterministic payload a reply carries: ``{"exit", "lines"}``,
    #: plus ``"verdict"`` for a proof
    result: dict
    #: the MIXY perf line (blocks run, solver calls, seconds): wall-clock
    #: dependent, so never part of ``result``; ``repro mixy`` prints it
    #: on stderr
    summary: str = ""
    #: a proof's :class:`~repro.prove.PropertyResult`
    proof: Optional[PropertyResult] = None
    #: the request's store-counter delta (a reply's ``served.store``);
    #: empty without a store
    store: Optional[dict] = None


def analyze_source(
    lang: str,
    source: str,
    options: dict,
    store=None,
    request_deadline: Optional[float] = None,
    crash_dir: str = ".repro-crashes",
    refine: bool = False,
) -> Analysis:
    """Run one request.  This is the only place where a ``(lang,
    source, options)`` becomes a budget, an installed-and-restored fault
    injector, a per-request trace, an analyzer config, a run, output
    lines, an exit code and a store-counter delta: ``repro mix`` /
    ``mixy`` / ``prove`` / ``client`` and the daemon's pool workers all
    come through here, so their outputs cannot drift apart.

    Never raises on program errors (they are exit-2 lines, or ERROR
    verdicts for a proof); analyzer crashes propagate to the caller,
    except in a proof, where they are ERROR verdicts too.  It reads no
    environment variable: a request answers for itself, and the CLI
    resolves its own environment defaults into ``options``.

    ``request_deadline`` is the daemon's server-side wall-clock cap,
    folded into the request budget (the tighter limit wins).
    ``crash_dir`` is where contained block crashes write their repros;
    it is the caller's, not a request option, because a client must not
    choose where a daemon writes.  ``refine`` runs MIX's automatic block
    placement (``repro mix --auto-refine``)."""
    from repro import smt
    from repro.budget import Budget

    if lang not in ("mix", "mixy"):
        raise ValueError(f"unknown lang {lang!r}; expected 'mix' or 'mixy'")
    if options.get("prove"):
        options = proof_options(lang, options)
    injector = injector_from_options(options)
    configure = _mix_config if lang == "mix" else _mixy_config
    config = configure(
        options, Budget.from_request(options, request_deadline), store, crash_dir
    )
    service = smt.get_service()
    saved_injector = service.fault_injector
    if injector is not None:
        service.fault_injector = injector
    traced = bool(options.get("trace")) and not TRACER.enabled
    if traced:
        # Appends, so a client re-using one trace path accumulates
        # sessions instead of truncating them.
        TRACER.enable(options["trace"], mode="append")
    before = dict(store.stats) if store is not None else {}
    try:
        fresh_equivalence_state()
        try:
            if lang == "mix":
                analysis = _run_mix(source, options, config, refine)
            else:
                analysis = _run_mixy(source, options, config)
        except Exception as error:
            if not options.get("prove"):
                raise
            # Deterministic for a given source: a verdict, not a fault.
            analysis = _proved(
                PropertyResult(
                    options["name"], ERROR, f"analysis crashed: {error!r}"
                )
            )
    finally:
        service.fault_injector = saved_injector
        if traced:
            TRACER.close()
        elif TRACER.enabled:
            # Lines land before the reply: a pool worker may be killed
            # right after it (its sidecar is merged after waitpid).
            TRACER.flush()
    delta = {}
    if store is not None:
        delta = {
            key: store.stats[key] - before.get(key, 0)
            for key in store.stats
            if store.stats[key] != before.get(key, 0)
        }
    return analysis._replace(store=delta)


def _mix_config(options: dict, budget, store, crash_dir: str):
    from repro.core import MixConfig, SoundnessMode
    from repro.symexec import IfStrategy, SymConfig

    return MixConfig(
        sym=SymConfig(
            if_strategy=IfStrategy.DEFER
            if options.get("defer", False)
            else IfStrategy.FORK,
            max_loop_unroll=int(options.get("max_unroll", 64)),
        ),
        soundness=SoundnessMode.GOOD_ENOUGH
        if options.get("good_enough", False)
        else SoundnessMode.SOUND,
        budget=budget,
        validate_witnesses=bool(options.get("validate_witnesses", False)),
        crash_dir=crash_dir,
        store=store,
    )


def _mixy_config(options: dict, budget, store, crash_dir: str):
    from repro.mixy import MixyConfig
    from repro.mixy.qual import QualConfig

    return MixyConfig(
        qual=QualConfig(
            deref_requires_nonnull=bool(options.get("strict_deref", False))
        ),
        enable_cache=not options.get("no_cache", False),
        budget=budget,
        # Explicit values, never the fields' environment defaults.
        validate_witnesses=bool(options.get("validate_witnesses", False)),
        jobs=int(options.get("jobs", 1)),
        crash_dir=crash_dir,
        store=store,
    )


def _run_mix(source: str, options: dict, config, refine: bool) -> Analysis:
    from repro.core import analyze, auto_place_blocks
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError, parse, parse_type
    from repro.typecheck.types import TypeEnv

    try:
        program = parse(source)
        bindings = {}
        for item in filter(
            None, (part.strip() for part in options.get("env", "").split(","))
        ):
            name, _, type_text = item.partition(":")
            if not type_text:
                raise ValueError(f"bad env entry {item!r}; expected name:type")
            bindings[name.strip()] = parse_type(type_text.strip())
        env = TypeEnv(bindings)
    except (ParseError, LexError, ValueError) as error:
        return _unrunnable(options, f"parse error: {error}", f"error: {error}")
    entry = options.get("entry", "typed")
    if options.get("prove"):
        return _proved(
            classify_mix(options["name"], analyze(program, env, entry, config))
        )
    lines = []
    if refine:
        refined = auto_place_blocks(program, env, entry, config)
        lines.extend(
            f"refinement step {i}: {step}"
            for i, step in enumerate(refined.steps, 1)
        )
        if refined.steps:
            lines.append(f"annotated program: {refined.annotated_source}")
        report = refined.report
    else:
        report = analyze(program, env, entry, config)
    lines.append(str(report))
    lines.extend(f"warning: {w}" for w in report.warnings)
    return Analysis({"exit": 0 if report.ok else 1, "lines": lines})


def _run_mixy(source: str, options: dict, config) -> Analysis:
    from repro.mixy import Mixy
    from repro.mixy.c.parser import CParseError
    from repro.mixy.symexec import CErrKind

    try:
        mixy = Mixy(source, config)
        warnings = mixy.run(
            entry=options.get("entry", "typed"),
            entry_function=options.get("entry_function", "main"),
        )
    except CParseError as error:
        return _unrunnable(options, f"parse error: {error}", f"error: {error}")
    except KeyError as error:
        message = f"no such function {error}"
        return _unrunnable(options, message, f"error: {message}")
    if options.get("prove"):
        return _proved(classify_mixy(options["name"], mixy))
    lines = [str(w) for w in warnings]
    lines.append(f"{len(warnings)} warning(s)")
    summary = (
        f"{len(warnings)} warning(s); "
        f"{mixy.stats['symbolic_blocks_run']} symbolic block run(s); "
        f"{mixy.executor.stats['solver_calls']} solver call(s); "
        f"{mixy.stats['analysis_seconds']:.3f}s"
    )
    # Contained analysis crashes degrade a block, they do not make the
    # program's verdict a failure: such a run still exits 0.
    contained = sum(
        1 for w in mixy.executor.warnings if w.kind is CErrKind.CRASH
    )
    exit_status = 0 if len(warnings) <= contained else 1
    return Analysis({"exit": exit_status, "lines": lines}, summary)


def _unrunnable(options: dict, detail: str, line: str) -> Analysis:
    """A source that cannot be analyzed: the exit-2 error ``line``, or
    an ERROR verdict saying ``detail`` for a proof."""
    if options.get("prove"):
        return _proved(PropertyResult(options["name"], ERROR, detail))
    return Analysis({"exit": 2, "lines": [line]})


def _proved(result: PropertyResult) -> Analysis:
    return Analysis(
        {
            "exit": exit_code([result]),
            "lines": [result.line()],
            "verdict": result.verdict,
        },
        proof=result,
    )


def injector_from_options(options: dict):
    """Build the per-request :class:`~repro.smt.service.FaultInjector`
    from ``options["inject_fault"]``: either ``"N:KIND"`` specs (string
    or list — the ``--inject-fault`` CLI syntax) or an object
    ``{"faults": {"N": KIND}, "seed": S, "rate": R, "kind": K}``.
    Raises :class:`ValueError` on malformed specs (a protocol error,
    not an analysis error)."""
    spec = options.get("inject_fault")
    if not spec:
        return None
    from repro.smt.service import FaultInjector

    if isinstance(spec, str):
        spec = [spec]
    if isinstance(spec, list):
        faults: dict[int, str] = {}
        for item in spec:
            n_text, _, kind = (
                item.partition(":") if isinstance(item, str) else ("", "", "")
            )
            try:
                n = int(n_text)
            except ValueError:
                raise ValueError(
                    f"bad inject_fault entry {item!r}; expected 'N:KIND'"
                ) from None
            faults[n] = kind or FaultInjector.TIMEOUT
        return FaultInjector(faults=faults)
    if isinstance(spec, dict):
        faults_spec = spec.get("faults") or {}
        if not isinstance(faults_spec, dict):
            raise ValueError("inject_fault.faults must be an object")
        try:
            return FaultInjector(
                faults={int(n): str(k) for n, k in faults_spec.items()},
                seed=spec.get("seed"),
                rate=float(spec.get("rate", 0.0)),
                kind=str(spec.get("kind", FaultInjector.TIMEOUT)),
            )
        except (TypeError, ValueError) as error:
            raise ValueError(f"bad inject_fault spec: {error}") from None
    raise ValueError("inject_fault must be a string, list, or object")


# ---------------------------------------------------------------------------
# Worker-side request execution (runs in the forked child)
# ---------------------------------------------------------------------------


def _write_frame(fd: int, blob: bytes) -> None:
    """Write one length-prefixed frame to a pipe fd."""
    view = memoryview(struct.pack("<Q", len(blob)) + blob)
    while view:
        view = view[os.write(fd, view):]


def _read_frame(
    fd: int, pid: int, kill_after: Optional[float]
) -> tuple[Optional[bytes], bool]:
    """Parent: read one length-prefixed frame from a worker pipe.
    Returns ``(frame, timed_out)``: frame is ``None`` when the worker
    died before completing its reply (EOF mid-frame), and ``timed_out``
    is True when the kill deadline fired first (the worker was
    SIGKILLed and the frame abandoned)."""
    deadline = None if kill_after is None else time.monotonic() + kill_after
    data = bytearray()
    want: Optional[int] = None
    while True:
        if want is None and len(data) >= 8:
            want = struct.unpack("<Q", bytes(data[:8]))[0]
        if want is not None and len(data) >= 8 + want:
            return bytes(data[8 : 8 + want]), False
        timeout = None
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                return None, True
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        except OSError:
            return None, False
        if not ready:
            continue  # re-check the deadline
        try:
            chunk = os.read(fd, 1 << 16)
        except OSError:
            return None, False
        if not chunk:
            return None, False  # EOF before a complete frame: dead worker
        data += chunk


class Cursor(NamedTuple):
    """A position in one process's warm state: the solver cache's
    :meth:`~repro.smt.service.SolverService.cache_mark` and the lengths
    of the store's insertion-ordered memo dicts."""

    mark: dict
    mixy: int
    mix: int


def _cursor(service, store) -> Cursor:
    return Cursor(
        service.cache_mark(),
        len(store.mixy_blocks) if store is not None else 0,
        len(store.mix_blocks) if store is not None else 0,
    )


def _learned_since(service, store, cursor: Cursor, stats0) -> dict:
    """What ``service`` and ``store`` gained since ``cursor``: a cache
    delta read as a journal suffix (carrying the perf counters since
    ``stats0``) and the new block memos, in O(what was gained).  Memo
    dicts are insert-only, so "new" is the tail past the cursor's
    lengths (dict order is insertion order; an overwrite keeps its
    original position and need not ship — every copy is identical by
    determinism)."""
    memos = {"mixy_new": {}, "mix_new": {}}
    if store is not None:
        memos["mixy_new"] = dict(
            itertools.islice(store.mixy_blocks.items(), cursor.mixy, None)
        )
        memos["mix_new"] = dict(
            itertools.islice(store.mix_blocks.items(), cursor.mix, None)
        )
    return {"delta": service.collect_delta_since(cursor.mark, stats0), **memos}


def _catch_up(service, store, catch_up: Optional[dict]) -> None:
    """Worker: import what the parent merged since this worker's cursor
    (see :meth:`ReproDaemon._job_frame`).  It touches no counter: the
    parent's merges are not this worker's work."""
    if catch_up is None:
        return
    if catch_up["delta"].entries:
        service.import_cache(catch_up["delta"])
    if store is not None:
        store.mixy_blocks.update(catch_up["mixy_new"])
        store.mix_blocks.update(catch_up["mix_new"])


def _worker_payload(job: dict, store, crash_dir: str) -> dict:
    """Pooled worker: import the job's catch-up, run its request and
    build the pickle frame the parent merges.  The catch-up lands before
    the marks are taken, so the frame ships only what this request
    learned, never the parent's merges back.  Fault-injected requests
    are marked ``faulted`` and ship no solver delta — chaos must never
    poison the shared cache (their block memos are already suppressed
    by the drivers).

    All before/after accounting is O(what the request gained), not
    O(cache size) (:func:`_learned_since`).  A warm all-hits request
    therefore ships a near-empty frame — the property the pool's
    isolation budget rests on."""
    from dataclasses import replace

    from repro import smt

    service = smt.get_service()
    _catch_up(service, store, job["catch_up"])
    cursor = _cursor(service, store)
    stats0 = replace(service.stats)
    options = job["options"]
    run = analyze_source(
        job["lang"], job["source"], options, store=store,
        request_deadline=job["request_deadline"], crash_dir=crash_dir,
    )
    faulted = bool(options.get("inject_fault"))
    payload = {
        "result": run.result,
        "faulted": faulted,
        "store_stats": run.store,
        **_learned_since(service, store, cursor, stats0),
    }
    if faulted:
        payload["delta"] = None
    return payload


def _pool_worker_serve(daemon: "ReproDaemon", read_fd: int, write_fd: int) -> None:
    """Child: the long-lived pooled request worker's serving loop.

    One pickled job frame in, one pickled reply frame out, then a
    between-requests reset (:func:`repro.parallel.reset_worker_state`)
    and back to the read.  Each request runs through
    :func:`_worker_payload`; between requests the worker must leave no
    per-request state behind, so the next request sees exactly what a
    fresh fork would.  EOF on the job pipe is the retire signal.  Never
    returns."""
    from repro.parallel import reset_worker_state

    while True:
        frame, _ = _read_frame(read_fd, 0, None)
        if frame is None:
            os._exit(0)  # parent closed the pipe (or died): retire
        try:
            payload = _worker_payload(
                pickle.loads(frame), daemon.store, daemon.crash_dir
            )
        except BaseException as error:
            payload = {"error": f"{type(error).__name__}: {error}"}
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as error:
            blob = pickle.dumps({"error": f"{type(error).__name__}: {error}"})
        try:
            _write_frame(write_fd, blob)
        except BaseException:
            os._exit(1)  # parent gone mid-reply: nothing left to serve
        try:
            reset_worker_state()
        except BaseException:
            os._exit(1)  # a worker that cannot reset must not serve again


class PoolWorker:
    """Parent-side handle to one long-lived pooled request worker."""

    __slots__ = ("pid", "send_fd", "recv_fd", "cursor", "served")

    def __init__(
        self, pid: int, send_fd: int, recv_fd: int, cursor: Cursor
    ) -> None:
        self.pid = pid
        self.send_fd = send_fd
        self.recv_fd = recv_fd
        #: The parent's warm state as this worker last saw it: at fork,
        #: at its last job frame's catch-up, or past its own merge.
        self.cursor = cursor
        #: Clean requests served (the recycle request-cap counts these).
        self.served = 0

    def exchange(
        self, blob: bytes, kill_after: Optional[float]
    ) -> tuple[Optional[bytes], bool]:
        """One request round-trip over the worker's pipes.  Same contract
        as :func:`_read_frame`: a ``None`` frame means the worker died
        (or was killed after ``kill_after``, flagged by ``timed_out``)."""
        try:
            _write_frame(self.send_fd, blob)
        except OSError:
            return None, False  # worker died between requests
        return _read_frame(self.recv_fd, self.pid, kill_after)


class WorkerPool:
    """A persistent prefork pool of request workers.

    Workers are forked lazily — up to ``size`` — from the warm daemon
    process, and each serves many requests over its job pipe, so the
    fork is paid once per worker, not once per request.  Workers stay
    warm by catch-up (each job frame carries what the parent merged
    since the worker's cursor), never by refork.  A worker is
    **recycled** — killed and replaced by a fresh fork of the parent —
    when:

    - it has served ``worker_requests`` requests (the bound on a
      worker's life);
    - anything went wrong: analyzer error, fault-injected request,
      death mid-request, or a kill-deadline breach.

    The parent merges warm state only from clean completions — a
    recycled worker's in-flight learning is simply discarded.
    """

    def __init__(
        self,
        daemon: "ReproDaemon",
        size: int,
        worker_requests: Optional[int],
    ) -> None:
        self._daemon = daemon
        self.size = size
        self.worker_requests = worker_requests
        self._cv = threading.Condition()
        self._idle: list[PoolWorker] = []
        self._live: dict[int, PoolWorker] = {}
        self._closed = False
        self.forks = 0
        self.recycles = 0
        #: job frames that carried a catch-up, and what they carried
        self.catch_ups = 0
        self.catch_up_entries = 0
        self.catch_up_memos = 0

    # -- acquisition ---------------------------------------------------------

    def acquire(self) -> PoolWorker:
        """An idle worker, or a new fork while the pool is below its
        size.  Blocks while every worker is busy; idle workers found
        dead are reaped on the way."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("worker pool is closed")
                worker = self._next_idle_locked()
                if worker is None and len(self._live) < self.size:
                    worker = self._spawn_locked()
                if worker is not None:
                    return worker
                self._cv.wait(_POLL_SECS)

    def _next_idle_locked(self) -> Optional[PoolWorker]:
        while self._idle:
            worker = self._idle.pop(0)
            if self._dead_locked(worker):
                # e.g. chaos SIGKILLed an idle worker between requests:
                # reap the corpse here so the request never sees it.
                self._discard_locked(worker, "died-idle", kill=False)
                continue
            return worker
        return None

    def _dead_locked(self, worker: PoolWorker) -> bool:
        try:
            pid, _ = os.waitpid(worker.pid, os.WNOHANG)
        except OSError:
            return True  # already reaped
        return pid != 0

    def _spawn_locked(self) -> PoolWorker:
        daemon = self._daemon
        if TRACER.enabled:
            TRACER.flush()  # fork must not duplicate buffered lines
        sys.stdout.flush()
        sys.stderr.flush()
        job_read, job_write = os.pipe()
        reply_read, reply_write = os.pipe()
        siblings = [
            fd
            for other in self._live.values()
            for fd in (other.send_fd, other.recv_fd)
        ]
        with daemon._serial:
            # No merge or save runs across the fork: the child's warm
            # state is exactly its cursor.
            cursor = daemon.cursor()
            pid = os.fork()
        if pid == 0:
            # -- child: serve until EOF; never return to the caller -------
            try:
                os.close(job_write)
                os.close(reply_read)
                for fd in siblings:
                    # Inherited copies of sibling pipes would hold a
                    # retired sibling's job pipe open past its EOF.
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                from repro.parallel import mark_forked_child

                mark_forked_child()  # no grandchildren; sidecar tracing
                if daemon._sock is not None:
                    try:
                        daemon._sock.close()
                    except OSError:
                        pass
                _pool_worker_serve(daemon, job_read, reply_write)
            finally:
                os._exit(1)  # only reachable if the serve loop raised
        os.close(job_read)
        os.close(reply_write)
        worker = PoolWorker(pid, job_write, reply_read, cursor)
        self._live[pid] = worker
        self.forks += 1
        if TRACER.enabled:
            TRACER.event("pool_spawn", pid=pid)
        return worker

    # -- release and retirement ----------------------------------------------

    def release(self, worker: PoolWorker, retire: Optional[str] = None) -> None:
        """Return a worker after its request.  ``retire`` (a reason
        string) forces recycling; otherwise the request cap decides."""
        if (
            retire is None
            and self.worker_requests
            and worker.served >= self.worker_requests
        ):
            retire = "request-cap"
        with self._cv:
            if worker.pid not in self._live:
                pass  # pool closed underneath the request
            elif retire is not None:
                self._discard_locked(worker, retire, kill=True)
            else:
                self._idle.append(worker)
            self._cv.notify_all()

    def reap(self, worker: PoolWorker) -> str:
        """A worker died (or was SIGKILLed) mid-request: collect its exit
        status for the degraded reply and drop it from the pool.  The
        replacement is forked lazily at the next acquire, from the
        parent's *current* warm state."""
        with self._cv:
            self._live.pop(worker.pid, None)
            self.recycles += 1
            self._cv.notify_all()
        for fd in (worker.send_fd, worker.recv_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            _, status = os.waitpid(worker.pid, 0)
        except OSError:
            status = 0
        if TRACER.enabled:
            TRACER.merge_worker_files(only_pid=worker.pid)
            TRACER.event("pool_retire", pid=worker.pid, reason="died")
        return _death_reason(status)

    def _discard_locked(
        self, worker: PoolWorker, reason: str, kill: bool
    ) -> None:
        self._live.pop(worker.pid, None)
        self.recycles += 1
        for fd in (worker.send_fd, worker.recv_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        if kill:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(worker.pid, 0)
            except OSError:
                pass
        if TRACER.enabled:
            TRACER.merge_worker_files(only_pid=worker.pid)
            TRACER.event(
                "pool_recycle",
                pid=worker.pid,
                reason=reason,
                served=worker.served,
            )

    def close(self) -> None:
        """Kill and reap every worker (daemon shutdown)."""
        with self._cv:
            self._closed = True
            workers = list(self._live.values())
            self._live.clear()
            self._idle.clear()
            self._cv.notify_all()
        for worker in workers:
            for fd in (worker.send_fd, worker.recv_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(worker.pid, 0)
            except OSError:
                pass
        if TRACER.enabled:
            TRACER.merge_worker_files()

    def describe(self) -> dict:
        """The ``stats`` reply's pool section (chaos reads worker pids
        from here to aim its SIGKILLs)."""
        with self._cv:
            idle = {worker.pid for worker in self._idle}
            return {
                "size": self.size,
                "forks": self.forks,
                "recycles": self.recycles,
                "catch_ups": self.catch_ups,
                "catch_up_entries": self.catch_up_entries,
                "catch_up_memos": self.catch_up_memos,
                "workers": [
                    {
                        "pid": worker.pid,
                        "served": worker.served,
                        "busy": worker.pid not in idle,
                    }
                    for worker in self._live.values()
                ],
            }


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class ReproDaemon:
    """One serving loop over one listening socket and one open store."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        listen: Optional[str] = None,
        store_dir: Optional[str] = ".repro-store",
        max_requests: Optional[int] = None,
        queue_depth: int = 8,
        read_deadline: float = 10.0,
        max_request_bytes: int = 4 * 1024 * 1024,
        max_conns: int = 32,
        request_deadline: Optional[float] = None,
        crash_dir: str = ".repro-crashes",
        pool_size: Optional[int] = None,
        worker_requests: int = 200,
    ) -> None:
        if (socket_path is None) == (listen is None):
            raise ValueError("exactly one of socket_path / listen required")
        self.socket_path = socket_path
        self.listen = listen
        self.store_dir = store_dir
        self.max_requests = max_requests
        self.queue_depth = max(1, queue_depth)
        self.read_deadline = read_deadline
        self.max_request_bytes = max_request_bytes
        self.max_conns = max(1, max_conns)
        self.request_deadline = request_deadline
        self.crash_dir = crash_dir
        #: Pool width: N long-lived prefork workers serving requests
        #: concurrently; the default is a small host-sized pool.
        if pool_size is None:
            pool_size = min(4, os.cpu_count() or 1)
        if int(pool_size) < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = int(pool_size)
        self.worker_requests = worker_requests
        #: Lazily created at the first analyze — by then any test
        #: monkeypatching is in place and forks inherit it.
        self._pool: Optional[WorkerPool] = None
        self.requests_served = 0
        self._stop = False
        self.store = None
        self._sock: Optional[socket.socket] = None
        #: serializes warm-state access: merges, saves, catch-ups and
        #: forks.  Requests *execute* concurrently in the pool and take
        #: this lock only for their catch-up and their merge, the merges
        #: in completion order (see the module docstring).
        self._serial = threading.Lock()
        #: guards the small shared counters below.
        self._lock = threading.Lock()
        #: bounded admission: acquired per analyze, shed when exhausted.
        self._slots = threading.BoundedSemaphore(self.queue_depth)
        self._conns = 0
        self._inflight = 0
        self._shed = 0
        self._worker_crashes = 0
        self._avg_secs = 0.0

    # -- lifecycle -----------------------------------------------------------

    def bind(self) -> str:
        """Import the request path (:data:`PRELOAD_MODULES`), open the
        store, bind the socket, and return the announce string
        (``unix:PATH`` or ``tcp:HOST:PORT`` with the real port).  Raises
        :class:`ValueError` on a malformed ``listen`` address, before
        touching the store."""
        import importlib

        from repro import smt
        from repro.store import AnalysisStore

        address = None if self.listen is None else host_port(self.listen)
        for module in PRELOAD_MODULES:
            importlib.import_module(module)
        if self.store_dir is not None:
            self.store = AnalysisStore.open(self.store_dir)
            loaded = self.store.load_into_service(smt.get_service())
            if loaded:
                print(
                    f"repro-serve: warmed {loaded} solver-cache entr"
                    f"{'y' if loaded == 1 else 'ies'} from {self.store_dir}",
                    file=sys.stderr,
                )
        if self.socket_path is not None:
            # A previous life's socket file would make bind() fail; it is
            # dead by definition (one daemon per socket path).
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(self.socket_path)
            announce = f"unix:{self.socket_path}"
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(address)
            bound_host, bound_port = self._sock.getsockname()
            announce = f"tcp:{bound_host}:{bound_port}"
        self._sock.listen(max(8, self.max_conns))
        return announce

    def serve_forever(self) -> int:
        """Accept and serve connections until shutdown / max_requests.
        Returns 0; daemon-fatal errors propagate (per-request and
        per-connection failures never do)."""
        assert self._sock is not None, "bind() first"
        self._sock.settimeout(_POLL_SECS)
        threads: list[threading.Thread] = []
        try:
            while not self._stop:
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                with self._lock:
                    refuse = self._conns >= self.max_conns
                    if not refuse:
                        self._conns += 1
                if refuse:
                    self._refuse(conn)
                    continue
                thread = threading.Thread(
                    target=self._connection_thread, args=(conn,), daemon=True
                )
                thread.start()
                threads.append(thread)
                threads = [t for t in threads if t.is_alive()]
        finally:
            self._stop = True
            for thread in threads:
                thread.join(timeout=10.0)
            if self._pool is not None:
                self._pool.close()
            self._persist()
            self._sock.close()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
        return 0

    def _refuse(self, conn: socket.socket) -> None:
        """Over the connection cap: shed at accept time, best effort."""
        with self._lock:
            self._shed += 1
        try:
            with conn:
                conn.settimeout(1.0)
                self._send(
                    conn,
                    _reply(
                        "busy",
                        error="too many connections",
                        retry_after_ms=self._retry_after_ms(),
                    ),
                )
        except OSError:
            pass

    def _connection_thread(self, conn: socket.socket) -> None:
        try:
            with conn:
                self._serve_connection(conn)
        except Exception:
            pass  # a hostile connection must never unwind the daemon
        finally:
            with self._lock:
                self._conns -= 1

    def _send(self, conn: socket.socket, response: dict) -> bool:
        """One response line, best effort; False if the client is gone."""
        try:
            conn.settimeout(30.0)
            conn.sendall(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            conn.settimeout(_POLL_SECS)
            return True
        except OSError:
            return False

    def _serve_connection(self, conn: socket.socket) -> None:
        """Read newline-delimited requests with a per-connection read
        deadline and size cap.  Hostile input — garbage bytes, an
        unterminated (slow-loris) line, a line over the cap — gets a
        ``protocol_error`` reply and, where recovery is meaningless, a
        close; it never wedges the daemon or other connections."""
        conn.settimeout(_POLL_SECS)
        buf = bytearray()
        idle = 0.0
        skipping = False  # inside an oversized line, already refused
        while not self._stop:
            newline = buf.find(b"\n")
            if newline >= 0:
                raw = bytes(buf[: newline])
                del buf[: newline + 1]
                if skipping:
                    skipping = False  # the oversized line finally ended
                    continue
                if len(raw) > self.max_request_bytes:
                    # The whole oversized line arrived in one read, so it
                    # never tripped the mid-accumulation check below.
                    if not self._send(
                        conn,
                        _reply(
                            "protocol_error",
                            error=(
                                f"request exceeds {self.max_request_bytes} "
                                "bytes; line dropped"
                            ),
                        ),
                    ):
                        return
                    continue
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                idle = 0.0
                if not self._send(conn, self.handle_line(line)):
                    return
                continue
            if not skipping and len(buf) > self.max_request_bytes:
                self._send(
                    conn,
                    _reply(
                        "protocol_error",
                        error=(
                            f"request exceeds {self.max_request_bytes} "
                            "bytes; line dropped"
                        ),
                    ),
                )
                skipping = True
            if skipping:
                del buf[:]  # discard until the newline shows up
            try:
                chunk = conn.recv(1 << 16)
            except socket.timeout:
                idle += _POLL_SECS
                if self.read_deadline and idle >= self.read_deadline:
                    if buf or skipping:
                        # Mid-request stall (slow loris): say why.
                        self._send(
                            conn,
                            _reply(
                                "protocol_error",
                                error=(
                                    "read stalled for "
                                    f"{self.read_deadline:g}s mid-request"
                                ),
                            ),
                        )
                    return
                continue
            except OSError:
                return  # reset / shutdown underneath us
            if not chunk:
                return  # clean EOF
            idle = 0.0
            buf += chunk

    # -- request handling ----------------------------------------------------

    def handle_line(self, line: str) -> dict:
        """One request line -> one response object.  Never raises: any
        analyzer or protocol failure becomes a non-``ok`` terminal
        status — a bad request must not take the daemon (and every
        other client's warm cache) down with it."""
        try:
            request_obj = json.loads(line)
            if not isinstance(request_obj, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError) as error:
            return _reply("protocol_error", error=f"bad request: {error}")
        try:
            return self._dispatch(request_obj)
        except Exception as error:  # daemon survives anything per-request
            return _reply("error", error=f"{type(error).__name__}: {error}")

    def _dispatch(self, request_obj: dict) -> dict:
        from repro import smt

        cmd = request_obj.get("cmd")
        with self._lock:
            self.requests_served += 1
            if self.max_requests is not None and (
                self.requests_served >= self.max_requests
            ):
                self._stop = True
        if cmd == "ping":
            return _reply("ok", pong=True, protocol=PROTOCOL_VERSION)
        if cmd == "shutdown":
            self._stop = True
            return _reply("ok", bye=True)
        if cmd == "stats":
            with self._lock:
                stats = {
                    "requests_served": self.requests_served,
                    "protocol": PROTOCOL_VERSION,
                    "queue_depth": self.queue_depth,
                    "inflight": self._inflight,
                    "shed": self._shed,
                    "worker_crashes": self._worker_crashes,
                    "solver": smt.get_service().stats.as_dict(),
                }
            stats["pool"] = self._ensure_pool().describe()
            if self.store is not None:
                stats["store"] = dict(self.store.stats)
            return _reply("ok", stats=stats)
        if cmd == "analyze":
            return self._handle_analyze(request_obj)
        if cmd == "prove":
            # Same admission, isolation, and budget plumbing as analyze;
            # analyze_source routes on the marker (see its prove branch).
            return self._handle_analyze(request_obj, prove=True)
        return _reply("protocol_error", error=f"unknown cmd {cmd!r}")

    def _handle_analyze(self, request_obj: dict, prove: bool = False) -> dict:
        lang = request_obj.get("lang", "mixy")
        source = request_obj.get("source")
        if not isinstance(source, str):
            return _reply(
                "protocol_error", error="analyze needs a string 'source'"
            )
        options = request_obj.get("options")
        if options is None:
            options = {}
        if not isinstance(options, dict):
            return _reply("protocol_error", error="'options' must be an object")
        if prove:
            options = dict(options, prove=True)
        if lang not in ("mix", "mixy"):
            # Same message analyze_source's ValueError carries, but
            # decided before paying for a worker.
            return _reply(
                "error",
                error=(
                    f"ValueError: unknown lang {lang!r}; "
                    "expected 'mix' or 'mixy'"
                ),
            )
        try:
            injector = injector_from_options(options)
        except ValueError as error:
            return _reply("protocol_error", error=f"bad request: {error}")
        if not self._slots.acquire(blocking=False):
            retry_ms = self._retry_after_ms()
            with self._lock:
                self._shed += 1
            if TRACER.enabled:
                TRACER.event("shed", retry_after_ms=retry_ms)
            return _reply(
                "busy",
                error="server busy: analyze queue is full",
                retry_after_ms=retry_ms,
            )
        start = time.monotonic()
        try:
            with self._lock:
                self._inflight += 1
            reply = self._analyze_pooled(lang, source, options, injector)
            elapsed = time.monotonic() - start
            with self._lock:
                self._avg_secs = (
                    elapsed
                    if self._avg_secs == 0.0
                    else 0.7 * self._avg_secs + 0.3 * elapsed
                )
            return reply
        finally:
            with self._lock:
                self._inflight -= 1
            self._slots.release()

    def _retry_after_ms(self) -> int:
        """When to tell a shed client to come back: the EWMA request
        duration times the number of dispatch *waves* ahead of it —
        in-flight requests divide over the pool's parallel width, so a
        busy N-worker daemon no longer overestimates the wait N-fold."""
        with self._lock:
            width = self.pool_size
            waves = (max(1, self._inflight) + width - 1) // width
            estimate = max(0.05, self._avg_secs) * waves
        return max(50, min(30_000, int(estimate * 1000)))

    # -- pooled execution (persistent prefork workers) ------------------------

    def _kill_after(self, options: dict) -> Optional[float]:
        """Seconds until an unresponsive worker is SIGKILLed — delegated
        to :meth:`repro.budget.Budget.slot_kill_after` so the kill
        deadline and the in-band budget can never disagree on which
        limit governs."""
        from repro.budget import Budget

        return Budget.slot_kill_after(
            options, self.request_deadline, WORKER_KILL_GRACE
        )

    def _ensure_pool(self) -> WorkerPool:
        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self, self.pool_size, self.worker_requests
                )
            return self._pool

    def _analyze_pooled(
        self, lang: str, source: str, options: dict, injector
    ) -> dict:
        """One request through the worker pool: acquire a worker, send
        it the request with its catch-up, exchange frames concurrently
        with other requests, then merge what it learned under
        ``_serial`` and reply.  The worker is held across its merge so
        its cursor can move past its own contribution (its local state
        already contains it); it returns to the pool, or is recycled,
        after."""
        pool = self._ensure_pool()
        kill_after = self._kill_after(options)
        job = {
            "lang": lang,
            "source": source,
            "options": options,
            "request_deadline": self.request_deadline,
        }
        reply = self._pooled_attempt(
            pool, job, kill_after, lang, source, options, injector,
            retry_on_death=injector is None,
        )
        if reply is None:
            # The worker died without replying, without a fault schedule,
            # and without a deadline kill — almost always a corpse that
            # was SIGKILLed *between* requests (the idle-reap waitpid
            # check races signal delivery).  One retry on a fresh worker
            # is side-effect-free by construction: a dead worker merges
            # nothing, and answers are cache-independent.
            if TRACER.enabled:
                TRACER.event("pool_request_retry", lang=lang)
            reply = self._pooled_attempt(
                pool, job, kill_after, lang, source, options, injector,
                retry_on_death=False,
            )
        assert reply is not None
        return reply

    def _pooled_attempt(
        self,
        pool: WorkerPool,
        job: dict,
        kill_after: Optional[float],
        lang: str,
        source: str,
        options: dict,
        injector,
        retry_on_death: bool,
    ) -> Optional[dict]:
        """One dispatch through the pool.  Returns the terminal reply, or
        ``None`` when the worker died reply-less and ``retry_on_death``
        says the caller should re-run the request on a fresh worker
        (the dead one was reaped and merged nothing either way)."""
        from repro import smt

        worker: Optional[PoolWorker] = pool.acquire()
        reply: Optional[dict] = None
        payload = None
        retire: Optional[str] = None
        try:
            with self._serial:
                blob = self._job_frame(pool, worker, job)
            with TRACER.span("request", lang, pid=worker.pid):
                frame, timed_out = worker.exchange(blob, kill_after)
            if frame is not None:
                try:
                    payload = pickle.loads(frame)
                except Exception:
                    payload = None  # torn/corrupt frame: treat as a crash
            if payload is None:
                reason = pool.reap(worker)
                if timed_out:
                    reason = (
                        "request deadline exceeded "
                        f"({kill_after - WORKER_KILL_GRACE:g}s); worker killed"
                    )
                worker = None
                if retry_on_death and not timed_out:
                    reply = None  # caller retries on a fresh worker
                else:
                    reply = self._degraded_reply(
                        lang, source, injector, reason
                    )
            elif "error" in payload:
                retire = "analyzer-error"
                error_text = payload["error"]
                payload = None  # nothing mergeable in an error frame
                reply = _reply(
                    "error",
                    error=error_text,
                    served={"requests_served": self.requests_served},
                )
            else:
                worker.served += 1
                if payload.get("faulted"):
                    # The injector consumed schedule state inside the
                    # worker; recycling keeps the next request pristine.
                    retire = "fault-injected"
                served = {"requests_served": self.requests_served}
                if self.store is not None:
                    served["store"] = dict(payload.get("store_stats") or {})
                reply = _reply("ok", result=payload["result"], served=served)
        finally:
            # A clean completion merges before it replies, in whatever
            # order completions arrive: merge order cannot reach a reply.
            try:
                if payload is not None:
                    with self._serial:
                        service = smt.get_service()
                        self._merge_pooled(service, payload, worker)
                        if self.store is not None:
                            self.store.save(service)
            finally:
                if worker is not None:
                    pool.release(worker, retire=retire)
        return reply

    def cursor(self) -> Cursor:
        """Where the parent's warm state stands (caller holds
        ``_serial``)."""
        from repro import smt

        return _cursor(smt.get_service(), self.store)

    def _job_frame(
        self, pool: WorkerPool, worker: PoolWorker, job: dict
    ) -> bytes:
        """The pickled job frame for ``worker`` (caller holds
        ``_serial``): the request plus its **catch-up**, everything the
        parent merged since the worker's cursor (``None`` when it has
        seen it all), and the cursor moves to the parent's state now.
        Every clean merge thus reaches every worker at its next job, and
        no worker is reforked for being behind."""
        from repro import smt

        service = smt.get_service()
        now = self.cursor()
        catch_up = None
        if now != worker.cursor:
            catch_up = _learned_since(
                service, self.store, worker.cursor, service.stats
            )
            worker.cursor = now
            entries = len(catch_up["delta"])
            memos = len(catch_up["mixy_new"]) + len(catch_up["mix_new"])
            pool.catch_ups += 1
            pool.catch_up_entries += entries
            pool.catch_up_memos += memos
            if TRACER.enabled:
                TRACER.event(
                    "pool_catch_up",
                    pid=worker.pid,
                    entries=entries,
                    memos=memos,
                )
        return pickle.dumps(
            {**job, "catch_up": catch_up}, protocol=pickle.HIGHEST_PROTOCOL
        )

    def _merge_pooled(
        self, service, payload: dict, worker: PoolWorker
    ) -> None:
        """Fold a clean pooled completion's warm state into the parent
        (caller holds ``_serial``).  The contributing worker's own state
        already contains its contribution: when no other merge came
        between its catch-up and this one, its cursor moves past this
        merge, so its next catch-up does not ship its own work back (if
        one did come between, the next catch-up re-ships this merge too,
        which the worker's import skips)."""
        if payload.get("faulted"):
            return
        before = self.cursor()
        delta = payload.get("delta")
        try:
            if delta is not None:
                service.merge_delta(delta)
                # The parent runs no analysis: the worker's work is its own.
                service.stats.add_perf(delta.stats)
        except Exception as error:
            print(
                "repro-serve: note: dropped a worker cache delta "
                f"({type(error).__name__}: {error})",
                file=sys.stderr,
            )
        if self.store is not None:
            self.store.merge_worker(
                payload.get("mixy_new") or {},
                payload.get("mix_new") or {},
                payload.get("store_stats") or {},
            )
        if worker.cursor == before:
            worker.cursor = self.cursor()

    def _degraded_reply(
        self, lang: str, source: str, injector, reason: str
    ) -> dict:
        """A worker died without a clean reply: record a crash repro,
        count it, and answer ``degraded`` — the daemon and its warm
        state are unharmed (nothing from the doomed worker merged)."""
        with self._lock:
            self._worker_crashes += 1
        repro_path = None
        try:
            from repro.crash import record_crash

            try:
                raise WorkerCrash(f"request worker died: {reason}")
            except WorkerCrash as error:
                repro_path = record_crash(
                    error,
                    phase=f"serve:request-worker:{lang}",
                    source=source,
                    shrunk_source=source,
                    crash_dir=self.crash_dir,
                    injector=injector,
                )
        except Exception:
            repro_path = None  # repro recording is best effort
        if TRACER.enabled:
            TRACER.event("worker_crash", reason=reason)
        reply = _reply(
            "degraded",
            error=f"request worker died: {reason}",
            served={"requests_served": self.requests_served},
        )
        if repro_path:
            reply["crash_repro"] = str(repro_path)
        return reply

    def _persist(self) -> None:
        if self.store is not None:
            from repro import smt

            with self._serial:
                self.store.save(smt.get_service())


def _death_reason(status: int) -> str:
    """Human-readable cause from a ``waitpid`` status word."""
    if os.WIFSIGNALED(status):
        num = os.WTERMSIG(status)
        try:
            name = signal.Signals(num).name
        except ValueError:
            name = f"signal {num}"
        return f"killed by {name}"
    if os.WIFEXITED(status):
        return f"exited with status {os.WEXITSTATUS(status)} before replying"
    return "died without a reply"


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class ClientError(ConnectionError):
    """A client-side failure with a one-line diagnostic.  ``retryable``
    marks transient conditions (dead/refused socket, daemon died
    mid-reply) worth retrying with backoff; protocol-level garbage is
    not retryable."""

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


def host_port(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (``--listen``, or a ``tcp:`` client address
    without its prefix); an empty host means 127.0.0.1.  Raises
    :class:`ValueError` unless PORT is a number in 0..65535."""
    host, colon, port_text = text.rpartition(":")
    port = int(port_text) if colon and port_text.isdecimal() else -1
    if not 0 <= port <= 65535:
        raise ValueError(f"bad address {text!r}; expected HOST:PORT")
    return host or "127.0.0.1", port


def connect(
    address: str,
    timeout: float = 60.0,
    connect_timeout: Optional[float] = None,
) -> socket.socket:
    """Open a client socket to ``unix:PATH`` / ``tcp:HOST:PORT`` (or a
    bare filesystem path, treated as a Unix socket).  The connect phase
    uses ``connect_timeout`` (default: ``timeout``) so a dead host
    fails fast even when the request timeout is generous.  A malformed
    ``tcp:`` address raises :class:`ValueError`."""
    establish = timeout if connect_timeout is None else connect_timeout
    if address.startswith("tcp:"):
        sock = socket.create_connection(
            host_port(address[len("tcp:"):]), timeout=establish
        )
        sock.settimeout(timeout)
        return sock
    path = address[len("unix:"):] if address.startswith("unix:") else address
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(establish)
    sock.connect(path)
    sock.settimeout(timeout)
    return sock


def request(
    address: str,
    payload: dict,
    timeout: float = 60.0,
    connect_timeout: Optional[float] = None,
) -> dict:
    """One request, one response, over a fresh connection.  Every
    failure mode — no daemon, refused/reset connection, a daemon dying
    mid-reply, a truncated or malformed response — raises
    :class:`ClientError` with a one-line diagnostic, never a raw
    traceback-bait exception."""
    try:
        sock = connect(address, timeout=timeout, connect_timeout=connect_timeout)
    except ValueError as error:
        raise ClientError(f"cannot connect to {address}: {error}") from None
    except FileNotFoundError:
        raise ClientError(
            f"cannot connect to {address}: no such socket", retryable=True
        ) from None
    except ConnectionRefusedError:
        raise ClientError(
            f"cannot connect to {address}: connection refused", retryable=True
        ) from None
    except (socket.timeout, TimeoutError):
        raise ClientError(
            f"cannot connect to {address}: connect timed out", retryable=True
        ) from None
    except OSError as error:
        raise ClientError(f"cannot connect to {address}: {error}") from None
    with sock:
        try:
            sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            reader = sock.makefile("rb")
            line = reader.readline()
        except (BrokenPipeError, ConnectionResetError):
            raise ClientError(
                f"{address}: connection lost mid-request "
                "(daemon died or reset?)",
                retryable=True,
            ) from None
        except (socket.timeout, TimeoutError):
            raise ClientError(
                f"{address}: timed out after {timeout:g}s waiting for a reply",
                retryable=True,
            ) from None
        except OSError as error:
            raise ClientError(f"{address}: {error}", retryable=True) from None
    if not line:
        raise ClientError(
            f"{address}: daemon closed the connection without replying",
            retryable=True,
        )
    if not line.endswith(b"\n"):
        raise ClientError(
            f"{address}: truncated reply (daemon died mid-reply?)",
            retryable=True,
        )
    try:
        response = json.loads(line)
    except json.JSONDecodeError:
        raise ClientError(f"{address}: malformed reply (not JSON)") from None
    if not isinstance(response, dict):
        raise ClientError(f"{address}: malformed reply (not an object)")
    return response


def request_with_retry(
    address: str,
    payload: dict,
    timeout: float = 60.0,
    connect_timeout: Optional[float] = None,
    retries: int = 0,
    base_ms: float = 100.0,
    max_ms: float = 5000.0,
    rng: Optional[random.Random] = None,
) -> dict:
    """:func:`request` plus up to ``retries`` retried attempts on
    transient failures: retryable :class:`ClientError` and ``busy``
    replies.  Backoff is exponential (``base_ms * 2**attempt``, capped
    at ``max_ms``) with full jitter, except that a ``busy`` reply's
    ``retry_after_ms`` hint — the daemon's own queue estimate —
    overrides the exponential schedule."""
    rng = rng if rng is not None else random.Random()
    attempt = 0
    while True:
        try:
            response = request(
                address, payload, timeout=timeout,
                connect_timeout=connect_timeout,
            )
        except ClientError as error:
            if attempt >= retries or not error.retryable:
                raise
            delay_ms = min(max_ms, base_ms * (2 ** attempt))
        else:
            if response.get("status") != "busy" or attempt >= retries:
                return response
            hint = response.get("retry_after_ms")
            delay_ms = (
                float(hint)
                if isinstance(hint, (int, float)) and hint > 0
                else min(max_ms, base_ms * (2 ** attempt))
            )
        time.sleep((delay_ms / 1000.0) * (0.5 + rng.random()))
        attempt += 1
