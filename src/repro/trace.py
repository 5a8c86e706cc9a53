"""Structured run-trace observability: JSONL spans and counters.

The paper's evaluation (§4.5-4.6) is an *attribution* story — "where did
the 5-25 s with one symbolic block go?" — and answering it needs more
than headline counters: it needs every block entry, fixpoint round,
solver query, witness replay, and worker lifecycle stamped onto one
timeline that a reporting tool can cross-correlate.  This module is that
layer:

- A process-wide :data:`TRACER` writes newline-delimited JSON events to
  a file given by ``--trace FILE``.  Three event shapes exist (see
  `EVENT SCHEMA`_ below): ``span`` (an interval with a monotonic start
  ``t``, a duration ``dur``, and a ``parent`` span id), ``event`` (a
  point occurrence attached to the enclosing span), and ``counter``
  (a named value, e.g. the final solver-service counters).
- :func:`aggregate` folds a trace into a digest — per-block, per-round
  and per-query-tier tables, time-in-solver vs time-in-executor vs
  time-in-merge, and the fraction of run wall-clock attributed to named
  spans — rendered by ``repro trace-report``.

**Cost discipline.**  Disabled tracing (the default) must stay off the
profile: every hot call site guards with a single attribute check
(``if TRACER.enabled:``), and :meth:`Tracer.span` is a no-op context
manager that allocates no span object when disabled.
``tests/test_trace.py`` checks that a disabled tracer keeps no books;
perfbench's ``trace.overhead_s`` measures what an enabled one costs.

**Parallel runs.**  Forked workers inherit the enabled tracer; each
worker rescopes it to a per-worker sidecar file
(``<trace>.worker-<pid>``) and prefixes its span ids with ``w<pid>:`` so
they can never collide with the parent's.  Worker spans keep their
inherited parent pointer (the fan-out span that forked them), so the
timeline stays one tree across processes.  After each pool drains, the
parent appends the sidecar files' lines to the main trace in sorted
filename order and deletes them — deterministic merge order, mirroring
the query-cache delta merge.  A pooled ``repro serve`` worker is forked
before the requests it serves, so :func:`aggregate` attributes each of
its ``run`` spans to the parent's ``request`` span for that worker's
``pid`` whose interval encloses it.

.. _EVENT SCHEMA:

Event schema (version 1)
------------------------

Every line is one JSON object with an ``ev`` discriminator:

``{"ev": "meta", "schema": 1, "pid": ..., "t": 0.0}``
    First line of each file (main and sidecar).

``{"ev": "span", "id": "7", "parent": "3", "kind": K, "name": N,
"t": start, "dur": seconds, ...}``
    A completed interval.  ``t`` is seconds since the tracer was
    enabled (monotonic clock, comparable across forked workers).
    ``kind`` is one of :data:`SPAN_KINDS`; extra keys are span fields
    (e.g. ``tier``/``verdict``/``budget`` on ``solver.query``).

``{"ev": "event", "kind": K, "span": "7", "t": ..., ...}``
    A point occurrence inside span ``span``; ``kind`` is one of
    :data:`POINT_KINDS` (e.g. ``path.fork`` with ``pc_size``).

``{"ev": "counter", "name": N, "value": V, "span": ..., "t": ...}``
    A named value (the CLI dumps the final solver stats this way).
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional, TextIO, Union

SCHEMA_VERSION = 1

#: Interval kinds.  ``run`` is the root; one per analysis entry point.
SPAN_KINDS = frozenset(
    {
        "run",  # one whole analysis run (MIX analyze / Mixy.run)
        "mix.block",  # MIX: type-checking one {s ... s} symbolic block
        "mixy.round",  # MIXY: one fixpoint round
        "mixy.block",  # MIXY: one symbolic block analysis (per function)
        "solver.query",  # one SolverService check_sat/model call
        "witness.replay",  # trust ring 1: one concrete replay
        "parallel.fanout",  # parent: one worker-pool round (incl. waiting)
        "parallel.merge",  # parent: merging worker deltas + trace files
        "worker.task",  # worker: one speculative task
        "request",  # daemon: one client request (analyze/ping/stats)
    }
)

#: Point-event kinds.
POINT_KINDS = frozenset(
    {
        "path.fork",  # executor forked a branch (pc_size field)
        "path.merge",  # SEIf-Defer merged two branches into one ite
        "path.complete",  # one execution path finished
        "budget.breach",  # resource governor cut something short
        "shed",  # daemon: request refused with a busy reply
        "worker_crash",  # daemon: a request worker died or missed deadline
        "pool_spawn",  # daemon: a pool worker was forked
        "pool_recycle",  # daemon: a pool worker was killed to be replaced
        "pool_retire",  # daemon: a pool worker died mid-request and was reaped
        "pool_request_retry",  # daemon: a request re-ran after its worker died
        "pool_catch_up",  # daemon: a job frame carried merges a worker lacked
    }
)

#: Keys reserved by the envelope; span/event fields must avoid them.
RESERVED_KEYS = frozenset({"ev", "id", "parent", "kind", "name", "t", "dur", "span", "value", "schema", "pid"})

#: solver.query tier labels (order = cache tier order).
QUERY_TIERS = (
    "syntactic",
    "exact",
    "subset",
    "superset",
    "model_eval",
    "full_solve",
    "fault",
    "uncached",
)


class TraceSchemaError(ValueError):
    """A trace line failed schema validation."""


class Span:
    """A live (not yet emitted) span.  ``fields`` may be mutated until
    :meth:`Tracer.end_span` runs; they land flattened on the JSON line."""

    __slots__ = ("id", "parent", "kind", "name", "start", "fields")

    def __init__(
        self,
        span_id: str,
        parent: Optional[str],
        kind: str,
        name: str,
        start: float,
        fields: dict,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.kind = kind
        self.name = name
        self.start = start
        self.fields = fields


class Tracer:
    """The process-wide event tracer (one instance: :data:`TRACER`).

    Disabled by default; :meth:`enable` arms it.  All instrumentation
    call sites check :attr:`enabled` first — a single attribute read —
    so a disabled tracer contributes nothing measurable to a run.

    Emission is guarded by an :class:`threading.RLock` so the threaded
    ``repro serve`` daemon (one handler thread per connection) can trace
    concurrently without interleaving half-written JSONL lines.  Span
    *parenting* uses one process-wide stack — analyses are serialized by
    the daemon, so the occasional concurrent ping/stats span at worst
    picks up a cosmetically-wrong parent, never a corrupt file.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.RLock()
        #: Spans begun since enable() — the zero-overhead test asserts
        #: this stays 0 across a run with the tracer disabled.
        self.spans_started = 0
        #: Lines written since enable() (same purpose).
        self.lines_written = 0
        self._fh: Optional[TextIO] = None
        self._path: Optional[str] = None
        self._prefix = ""
        self._next_id = 0
        self._stack: list[Span] = []
        self._t0 = 0.0

    # -- lifecycle -----------------------------------------------------------

    def enable(
        self, path: Union[str, os.PathLike], mode: str = "truncate"
    ) -> None:
        """Start tracing to ``path``.

        ``mode`` decides what happens to an existing file:

        - ``"truncate"`` (default): start fresh — the right call for a
          one-shot CLI run, where the file is that run's artifact.
        - ``"append"``: keep prior lines and append a new session after
          them.  Each session opens with its own ``meta`` line, and the
          readers treat every line independently, so a file holding
          several sessions still validates and aggregates.
        - ``"rotate"``: move an existing file to ``path.1`` (replacing
          any previous ``path.1``) and start fresh.  This is what a
          restarted daemon wants: the previous life's spans survive at
          a predictable name instead of being silently destroyed.
        """
        with self._lock:
            if self.enabled:
                raise RuntimeError("tracer is already enabled")
            if mode not in ("truncate", "append", "rotate"):
                raise ValueError(f"unknown trace mode {mode!r}")
            self._path = os.fspath(path)
            if mode == "rotate" and os.path.exists(self._path):
                os.replace(self._path, self._path + ".1")
            self._fh = open(
                self._path, "a" if mode == "append" else "w", encoding="utf-8"
            )
            self._prefix = ""
            self._next_id = 0
            self._stack = []
            self.spans_started = 0
            self.lines_written = 0
            self._t0 = time.monotonic()
            self.enabled = True
            self._emit({"ev": "meta", "schema": SCHEMA_VERSION, "pid": os.getpid(), "t": 0.0})

    def close(self) -> None:
        """Stop tracing and close the file (idempotent)."""
        with self._lock:
            if not self.enabled:
                return
            self.enabled = False
            assert self._fh is not None
            self._fh.close()
            self._fh = None
            self._stack = []

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    @property
    def path(self) -> Optional[str]:
        return self._path

    # -- emission ------------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _emit(self, obj: dict) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(obj, separators=(",", ":"), default=str) + "\n")
        self.lines_written += 1

    def begin_span(self, kind: str, name: str, **fields: Any) -> Span:
        """Open a span; pair with :meth:`end_span`.  Caller must have
        checked :attr:`enabled` (hot paths) — calling this disabled is a
        bug and raises."""
        assert self.enabled, "begin_span on a disabled tracer"
        with self._lock:
            self._next_id += 1
            span = Span(
                f"{self._prefix}{self._next_id}",
                self._stack[-1].id if self._stack else None,
                kind,
                name,
                self._now(),
                fields,
            )
            self._stack.append(span)
            self.spans_started += 1
            return span

    def end_span(self, span: Span, **fields: Any) -> None:
        """Close ``span`` (and any span erroneously left open inside it)
        and write its line."""
        with self._lock:
            if not self.enabled:
                return  # tracer was closed while the span was open
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()  # orphans of a crashed sub-phase
            if self._stack:
                self._stack.pop()
            if fields:
                span.fields.update(fields)
            now = self._now()
            line = {
                "ev": "span",
                "id": span.id,
                "parent": span.parent,
                "kind": span.kind,
                "name": span.name,
                "t": round(span.start, 6),
                "dur": round(now - span.start, 6),
            }
            line.update(span.fields)
            self._emit(line)

    @contextmanager
    def span(self, kind: str, name: str, **fields: Any) -> Iterator[Optional[Span]]:
        """Span as a context manager.  Yields ``None`` (allocating no
        span object) when disabled — suitable for coarse spans (runs,
        rounds, blocks); per-query hot paths use begin/end behind an
        explicit ``enabled`` check instead."""
        if not self.enabled:
            yield None
            return
        span = self.begin_span(kind, name, **fields)
        try:
            yield span
        except BaseException as error:
            span.fields.setdefault("error", type(error).__name__)
            raise
        finally:
            self.end_span(span)

    def event(self, kind: str, **fields: Any) -> None:
        """A point event attached to the current span.  Caller must have
        checked :attr:`enabled`."""
        assert self.enabled, "event on a disabled tracer"
        with self._lock:
            line = {
                "ev": "event",
                "kind": kind,
                "span": self._stack[-1].id if self._stack else None,
                "t": round(self._now(), 6),
            }
            line.update(fields)
            self._emit(line)

    def counter(self, name: str, value: Union[int, float], **fields: Any) -> None:
        """A named counter sample (e.g. final solver stats)."""
        assert self.enabled, "counter on a disabled tracer"
        with self._lock:
            line = {
                "ev": "counter",
                "name": name,
                "value": value,
                "span": self._stack[-1].id if self._stack else None,
                "t": round(self._now(), 6),
            }
            line.update(fields)
            self._emit(line)

    # -- parallel workers (see repro.parallel) --------------------------------

    def rescope_for_worker(self) -> None:
        """In a freshly forked worker: redirect output to a per-worker
        sidecar file and prefix span ids with ``w<pid>:``.  The parent
        flushed before forking, so the inherited buffer holds nothing;
        the inherited stack is kept so worker spans parent to the
        fan-out span that forked them."""
        # Fresh lock first: the fork may have happened while another
        # daemon thread held the inherited one, which would deadlock the
        # single-threaded child forever.
        self._lock = threading.RLock()
        if not self.enabled:
            return
        pid = os.getpid()
        self._prefix = f"w{pid}:"
        self._next_id = 0
        assert self._path is not None
        # The inherited file object shares the parent's fd; never write
        # or close it here (its buffer is empty — the parent flushed).
        self._fh = open(f"{self._path}.worker-{pid}", "a", encoding="utf-8")
        self._emit({"ev": "meta", "schema": SCHEMA_VERSION, "pid": pid, "t": round(self._now(), 6)})

    def merge_worker_files(self, only_pid: Optional[int] = None) -> int:
        """Parent, after a pool drained: append every sidecar file's
        lines to the main trace in sorted filename order, then delete
        them.  Tolerates a torn final line from a killed worker.
        Returns the number of files merged.

        ``only_pid`` restricts the merge to one worker's sidecar — the
        pooled ``repro serve`` daemon merges a worker's spans exactly
        once, at recycle/retire time after the worker is dead; merging
        a *live* pooled worker's sidecar would unlink a file it still
        holds open and silently lose every span it writes afterwards."""
        with self._lock:
            if not self.enabled:
                return 0
            assert self._fh is not None and self._path is not None
            merged = 0
            if only_pid is not None:
                candidates = [f"{self._path}.worker-{only_pid}"]
            else:
                candidates = sorted(
                    glob.glob(glob.escape(self._path) + ".worker-*")
                )
            for wpath in candidates:
                try:
                    with open(wpath, encoding="utf-8") as fh:
                        data = fh.read()
                except OSError:
                    continue
                # Keep only whole lines: a worker killed mid-write leaves
                # a torn tail that would corrupt the JSONL stream.
                complete = data[: data.rfind("\n") + 1]
                if complete:
                    self._fh.write(complete)
                    self.lines_written += complete.count("\n")
                os.unlink(wpath)
                merged += 1
            return merged


#: The process-wide tracer.  Import the module and guard call sites with
#: ``if TRACER.enabled:`` — never ``from repro.trace import TRACER`` into
#: a local that outlives a test's enable/disable cycle... actually the
#: object is a singleton whose ``enabled`` flag flips in place, so both
#: import styles observe enable/disable correctly.
TRACER = Tracer()


def conjunct_count(term: Any) -> int:
    """Cheap path-condition size metric: the number of conjuncts of a
    guard term (AND nodes flattened, anything else counts 1)."""
    from repro.smt.terms import Kind  # local: avoid import cycles at load

    count = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if t.kind is Kind.AND:
            stack.extend(t.args)
        else:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Loading + schema validation
# ---------------------------------------------------------------------------


def validate_line(obj: Any) -> None:
    """Raise :class:`TraceSchemaError` unless ``obj`` is a valid event."""
    if not isinstance(obj, dict):
        raise TraceSchemaError(f"event must be a JSON object, got {type(obj).__name__}")
    ev = obj.get("ev")
    if ev == "meta":
        if obj.get("schema") != SCHEMA_VERSION:
            raise TraceSchemaError(f"unsupported schema version {obj.get('schema')!r}")
        return
    if ev == "span":
        for key, types in (("id", str), ("kind", str), ("name", str), ("t", (int, float)), ("dur", (int, float))):
            if not isinstance(obj.get(key), types):
                raise TraceSchemaError(f"span is missing/mistyped {key!r}: {obj}")
        if obj["kind"] not in SPAN_KINDS:
            raise TraceSchemaError(f"unknown span kind {obj['kind']!r}")
        if not (obj.get("parent") is None or isinstance(obj["parent"], str)):
            raise TraceSchemaError(f"span parent must be a span id or null: {obj}")
        if obj["dur"] < 0 or obj["t"] < 0:
            raise TraceSchemaError(f"span has negative time: {obj}")
        return
    if ev == "event":
        if not isinstance(obj.get("kind"), str) or obj["kind"] not in POINT_KINDS:
            raise TraceSchemaError(f"unknown event kind {obj.get('kind')!r}")
        if not isinstance(obj.get("t"), (int, float)):
            raise TraceSchemaError(f"event is missing 't': {obj}")
        return
    if ev == "counter":
        if not isinstance(obj.get("name"), str):
            raise TraceSchemaError(f"counter is missing 'name': {obj}")
        if not isinstance(obj.get("value"), (int, float)):
            raise TraceSchemaError(f"counter is missing a numeric 'value': {obj}")
        return
    raise TraceSchemaError(f"unknown event discriminator {ev!r}")


def read_trace(path: Union[str, os.PathLike]) -> list[dict]:
    """Load and validate a trace file; raises :class:`TraceSchemaError`
    (with the offending line number) on any malformed line."""
    events: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(f"{path}:{lineno}: not JSON ({error})") from None
            try:
                validate_line(obj)
            except TraceSchemaError as error:
                raise TraceSchemaError(f"{path}:{lineno}: {error}") from None
            events.append(obj)
    return events


# ---------------------------------------------------------------------------
# Aggregation — the single source for trace-report and trace_digest
# ---------------------------------------------------------------------------


def _is_worker_id(span_id: Optional[str]) -> bool:
    return bool(span_id) and span_id.startswith("w")


#: Slack for comparing span bounds, which are rounded to microseconds.
_BOUND_SLACK = 1e-5


def aggregate(events: Iterable[dict]) -> dict:
    """Fold trace events into the digest dict behind ``repro
    trace-report`` and the ``trace_digest`` section of BENCH files.

    Wall-clock roots are the parent process's ``request`` spans and its
    ``run`` spans outside any request.  Spans from worker processes (id
    prefix ``w<pid>:``) are of two sorts.  A pooled daemon worker's
    ``run`` is the work of the parent's ``request`` span with the same
    ``pid`` whose interval encloses it, and is attributed there.  Spans
    under a ``worker.task`` are the parallel engine's speculative work
    overlapping the parent's wall-clock: they are reported in their own
    section and excluded from wall-clock attribution.
    """
    spans: dict[str, dict] = {}
    point_events: list[tuple[str, Optional[str]]] = []
    counters: dict[str, Union[int, float]] = {}
    n_events = 0
    for obj in events:
        n_events += 1
        ev = obj.get("ev")
        if ev == "span":
            spans[obj["id"]] = obj
        elif ev == "event":
            point_events.append((obj["kind"], obj.get("span")))
        elif ev == "counter":
            counters[obj["name"]] = obj["value"]

    requests: dict[str, list[dict]] = {}
    for s in spans.values():
        if s["kind"] == "request" and "pid" in s and not _is_worker_id(s["id"]):
            requests.setdefault(str(s["pid"]), []).append(s)
    for s in list(spans.values()):
        if s["kind"] != "run" or not _is_worker_id(s["id"]):
            continue
        pid = s["id"][1:].split(":", 1)[0]
        for r in requests.get(pid, ()):
            if (
                r["t"] - _BOUND_SLACK <= s["t"]
                and s["t"] + s["dur"] <= r["t"] + r["dur"] + _BOUND_SLACK
            ):
                spans[s["id"]] = {**s, "parent": r["id"]}
                break

    def ancestors(span: dict) -> Iterator[dict]:
        """The spans enclosing ``span``, innermost first, following
        parent links (which cross the worker/parent boundary: a worker
        span's chain passes through the parent's fanout or request
        span)."""
        seen = set()
        cur: Optional[dict] = span
        while cur is not None:
            parent_id = cur.get("parent")
            if parent_id is None or parent_id in seen:
                return
            seen.add(parent_id)
            cur = spans.get(parent_id)
            if cur is not None:
                yield cur

    def nearest_ancestor(span: dict, kinds: tuple) -> Optional[dict]:
        """The closest enclosing span of one of ``kinds``."""
        return next((a for a in ancestors(span) if a["kind"] in kinds), None)

    def nearest_block(span: dict) -> Optional[dict]:
        return nearest_ancestor(span, ("mixy.block", "mix.block"))

    speculative_ids = {
        s["id"]
        for s in spans.values()
        if s["kind"] == "worker.task"
        or nearest_ancestor(s, ("worker.task",)) is not None
    }
    authoritative = [s for s in spans.values() if s["id"] not in speculative_ids]
    speculative = [s for s in spans.values() if s["id"] in speculative_ids]
    point_counts: dict[str, int] = {}
    spec_point_counts: dict[str, int] = {}
    for kind, span_id in point_events:
        table = spec_point_counts if span_id in speculative_ids else point_counts
        table[kind] = table.get(kind, 0) + 1

    roots = [
        s
        for s in authoritative
        if s["kind"] == "request"
        or (
            s["kind"] == "run"
            and not _is_worker_id(s["id"])
            and nearest_ancestor(s, ("request",)) is None
        )
    ]
    wall = sum(s["dur"] for s in roots)
    root_ids = {s["id"] for s in roots}
    attributed = sum(s["dur"] for s in authoritative if s.get("parent") in root_ids)

    span_kinds: dict[str, dict] = {}
    for s in authoritative:
        agg = span_kinds.setdefault(s["kind"], {"count": 0, "seconds": 0.0})
        agg["count"] += 1
        agg["seconds"] += s["dur"]

    # Per-query-tier totals, split authoritative vs speculative.
    def tier_table(query_spans: list[dict]) -> dict[str, dict]:
        table: dict[str, dict] = {}
        for s in query_spans:
            tier = s.get("tier", "uncached")
            agg = table.setdefault(tier, {"count": 0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += s["dur"]
        return table

    queries = [s for s in authoritative if s["kind"] == "solver.query"]
    spec_queries = [s for s in speculative if s["kind"] == "solver.query"]

    # Per-block table (authoritative only): inclusive seconds, query
    # count, and solver seconds attributed through the parent chain.
    blocks: dict[tuple[str, str], dict] = {}
    for s in authoritative:
        if s["kind"] not in ("mixy.block", "mix.block"):
            continue
        agg = blocks.setdefault(
            (s["kind"], s["name"]),
            {"kind": s["kind"], "name": s["name"], "count": 0, "seconds": 0.0,
             "queries": 0, "solver_seconds": 0.0, "cache_hits": 0,
             "store_hits": 0, "tiers": {}, "spec_runs": 0,
             "spec_queries": 0, "spec_solver_seconds": 0.0},
        )
        agg["count"] += 1
        agg["seconds"] += s["dur"]
        if s.get("cached"):
            agg["cache_hits"] += 1
        if s.get("store_hit"):
            agg["store_hits"] += 1
    for q in queries:
        block = nearest_block(q)
        if block is None:
            continue
        key = (block["kind"], block["name"])
        if key in blocks:
            blocks[key]["queries"] += 1
            blocks[key]["solver_seconds"] += q["dur"]
            tier = q.get("tier", "uncached")
            blocks[key]["tiers"][tier] = blocks[key]["tiers"].get(tier, 0) + 1

    # Speculative (worker-side) per-block attribution.  Worker spans
    # carry real block names inside their worker.task wrappers.
    for s in speculative:
        if s["kind"] not in ("mixy.block", "mix.block"):
            continue
        key = (s["kind"], s["name"])
        if key in blocks:
            blocks[key]["spec_runs"] += 1
    for q in spec_queries:
        block = nearest_block(q)
        if block is None:
            continue
        key = (block["kind"], block["name"])
        if key not in blocks:
            continue
        b = blocks[key]
        b["spec_queries"] += 1
        b["spec_solver_seconds"] += q["dur"]
        tier = q.get("tier", "uncached")
        b["tiers"][tier] = b["tiers"].get(tier, 0) + 1

    # Per-round table (MIXY).
    rounds = [
        {
            "name": s["name"],
            "seconds": round(s["dur"], 6),
            "frontier": s.get("frontier"),
            "typed": s.get("typed"),
        }
        for s in sorted(
            (s for s in authoritative if s["kind"] == "mixy.round"),
            key=lambda s: s["t"],
        )
    ]

    solver_seconds = sum(s["dur"] for s in queries)
    witness_seconds = sum(s["dur"] for s in authoritative if s["kind"] == "witness.replay")
    merge_seconds = sum(s["dur"] for s in authoritative if s["kind"] == "parallel.merge")
    fanout_seconds = sum(s["dur"] for s in authoritative if s["kind"] == "parallel.fanout")
    block_seconds = sum(b["seconds"] for b in blocks.values())

    verdicts: dict[str, int] = {}
    for s in authoritative:
        if s["kind"] == "witness.replay" and "verdict" in s:
            verdicts[s["verdict"]] = verdicts.get(s["verdict"], 0) + 1

    def rounded(table: dict[str, dict]) -> dict[str, dict]:
        return {
            k: {"count": v["count"], "seconds": round(v["seconds"], 6)}
            for k, v in sorted(table.items())
        }

    return {
        "schema": SCHEMA_VERSION,
        "events": n_events,
        "wall_seconds": round(wall, 6),
        "attributed_seconds": round(attributed, 6),
        "attributed_fraction": round(attributed / wall, 4) if wall else 0.0,
        "span_kinds": rounded(span_kinds),
        "time_in": {
            "blocks": round(block_seconds, 6),
            "solver": round(solver_seconds, 6),
            "executor": round(max(0.0, block_seconds - solver_seconds - witness_seconds), 6),
            "witness_replay": round(witness_seconds, 6),
            "parallel_fanout": round(fanout_seconds, 6),
            "parallel_merge": round(merge_seconds, 6),
        },
        "query_tiers": rounded(tier_table(queries)),
        "blocks": sorted(
            (
                {
                    "kind": b["kind"],
                    "name": b["name"],
                    "count": b["count"],
                    "seconds": round(b["seconds"], 6),
                    "queries": b["queries"],
                    "solver_seconds": round(b["solver_seconds"], 6),
                    "cache_hits": b["cache_hits"],
                    "store_hits": b["store_hits"],
                    "tiers": dict(sorted(b["tiers"].items())),
                    "spec_runs": b["spec_runs"],
                    "spec_queries": b["spec_queries"],
                    "spec_solver_seconds": round(b["spec_solver_seconds"], 6),
                }
                for b in blocks.values()
            ),
            key=lambda b: (-b["seconds"], b["name"]),
        ),
        "rounds": rounds,
        "point_events": dict(sorted(point_counts.items())),
        "speculative": {
            "tasks": sum(1 for s in speculative if s["kind"] == "worker.task"),
            "seconds": round(sum(s["dur"] for s in speculative if s["kind"] == "worker.task"), 6),
            "query_tiers": rounded(tier_table(spec_queries)),
            "point_events": dict(sorted(spec_point_counts.items())),
        },
        "witness_verdicts": dict(sorted(verdicts.items())),
        "counters": counters,
    }


def digest_file(path: Union[str, os.PathLike]) -> dict:
    """Validate and aggregate a trace file in one step."""
    return aggregate(read_trace(path))


# ---------------------------------------------------------------------------
# Report rendering (``repro trace-report``)
# ---------------------------------------------------------------------------


def _table(title: str, headers: list[str], rows: list[list]) -> list[str]:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    out = [f"== {title} ==",
           " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
           "-+-".join("-" * w for w in widths)]
    for row in rows:
        out.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return out


def format_report(digest: dict, top: int = 10) -> str:
    """Render a digest as the human-readable trace-report tables."""
    lines: list[str] = []
    wall = digest["wall_seconds"]
    lines.append(
        f"trace: {digest['events']} events, wall {wall:.3f}s, "
        f"{digest['attributed_fraction']:.1%} attributed to named spans"
    )
    ti = digest["time_in"]
    lines.append(
        f"time in: blocks {ti['blocks']:.3f}s (solver {ti['solver']:.3f}s, "
        f"executor {ti['executor']:.3f}s, witness {ti['witness_replay']:.3f}s), "
        f"parallel fan-out {ti['parallel_fanout']:.3f}s, merge {ti['parallel_merge']:.3f}s"
    )
    lines.append("")
    lines.extend(
        _table(
            f"top {top} hottest blocks",
            ["block", "kind", "runs", "seconds", "queries", "solver s",
             "cache hits", "store hits"],
            [
                [b["name"], b["kind"], b["count"], f"{b['seconds']:.4f}",
                 b["queries"], f"{b['solver_seconds']:.4f}", b["cache_hits"],
                 b["store_hits"]]
                for b in digest["blocks"][:top]
            ],
        )
    )
    if digest["rounds"]:
        lines.append("")
        lines.extend(
            _table(
                "fixpoint rounds",
                ["round", "seconds", "frontier", "typed fns"],
                [
                    [r["name"], f"{r['seconds']:.4f}", r.get("frontier", "-"), r.get("typed", "-")]
                    for r in digest["rounds"]
                ],
            )
        )
    lines.append("")
    lines.extend(
        _table(
            "solver queries by cache tier (authoritative pass)",
            ["tier", "count", "seconds"],
            [
                [tier, agg["count"], f"{agg['seconds']:.4f}"]
                for tier, agg in digest["query_tiers"].items()
            ],
        )
    )
    spec = digest["speculative"]
    if spec["tasks"]:
        lines.append("")
        lines.extend(
            _table(
                f"speculative workers ({spec['tasks']} tasks, {spec['seconds']:.3f}s)",
                ["tier", "count", "seconds"],
                [
                    [tier, agg["count"], f"{agg['seconds']:.4f}"]
                    for tier, agg in spec["query_tiers"].items()
                ],
            )
        )
    if digest["point_events"]:
        lines.append("")
        lines.extend(
            _table(
                "point events",
                ["kind", "count"],
                [[k, v] for k, v in digest["point_events"].items()],
            )
        )
    if digest["witness_verdicts"]:
        lines.append("")
        lines.extend(
            _table(
                "witness replays",
                ["verdict", "count"],
                [[k, v] for k, v in digest["witness_verdicts"].items()],
            )
        )
    return "\n".join(lines)
