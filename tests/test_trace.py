"""The structured event-trace subsystem (``repro/trace.py``).

Three layers under test:

1. the :class:`~repro.trace.Tracer` itself — span nesting, the JSONL
   schema, worker-file merging, and the cost discipline that a disabled
   tracer adds zero events and allocates no span objects;
2. the aggregation behind ``repro trace-report`` and ``trace_digest``;
3. determinism — ``--jobs 1`` and ``--jobs 4`` runs produce identical
   trace *aggregates* (span counts per block, per-block query counts,
   witness verdicts) even though the raw interleavings differ.

The ``--solver-stats`` table snapshot (satellite: ``format_table`` /
``as_dict`` single code path) also lives here.
"""

import itertools
import json

import pytest

from repro import smt
from repro.cli import main
from repro.core import analyze_source
from repro.mixy import Mixy, MixyConfig
from repro.mixy.c import parse_program
from repro.mixy.corpus_vsftpd import parallel_vsftpd
from repro.mixy.qual import QVar
from repro.smt.service import SolverStats
from repro.trace import (
    TRACER,
    TraceSchemaError,
    aggregate,
    digest_file,
    format_report,
    read_trace,
    validate_line,
)

MIX_PROGRAM = "let x = 3 in {s if x < 5 then x + 1 else 0 s}"

C_PROGRAM = """
void sysutil_free(void *nonnull p_ptr) MIX(typed);
int *g_ptr;

int block_a(int a, int b) MIX(symbolic) {
  if (a < 0) { return 0; }
  if (3 * a + 2 * b < 7) {
    return 1;
  }
  return 2;
}

int block_b(int c) MIX(symbolic) {
  if (c > 10) {
    sysutil_free(g_ptr);
    g_ptr = NULL;
  }
  return c;
}

int main(void) {
  int r;
  r = block_a(1, 2);
  r = r + block_b(3);
  return r;
}
"""


@pytest.fixture(autouse=True)
def _tracer_is_left_disabled():
    """Every test must leave the process-wide tracer disabled."""
    yield
    TRACER.close()
    assert not TRACER.enabled


def _fresh_process_state():
    smt.reset_service()
    QVar._ids = itertools.count(1)


# ---------------------------------------------------------------------------
# Cost discipline: a disabled tracer is a single attribute check
# ---------------------------------------------------------------------------


class TestDisabledTracer:
    def test_disabled_tracer_adds_zero_events_and_no_span_objects(self):
        _fresh_process_state()
        TRACER.spans_started = 0
        TRACER.lines_written = 0
        report = analyze_source(MIX_PROGRAM)
        mixy = Mixy(parse_program(C_PROGRAM))
        mixy.run()
        assert report.ok
        assert TRACER.spans_started == 0
        assert TRACER.lines_written == 0

    def test_disabled_span_contextmanager_yields_none(self):
        with TRACER.span("run", "nothing") as span:
            assert span is None
        assert TRACER.spans_started == 0


class TestStaircaseTracing:
    """On the depth-3 staircase corpus, flipping the flag the hot-path
    guards read turns all bookkeeping off, and an enabled run writes
    real spans and events (the counter half of E17)."""

    @staticmethod
    def _run_staircase():
        _fresh_process_state()
        program = parse_program(parallel_vsftpd(depth=3))
        Mixy(program, config=MixyConfig(jobs=1)).run()

    def test_flag_off_keeps_no_books_and_flag_on_traces(self, tmp_path):
        TRACER.enable(tmp_path / "staircase.jsonl")
        assert TRACER.enabled
        TRACER.flush()
        spans0, lines0 = TRACER.spans_started, TRACER.lines_written
        TRACER.enabled = False
        try:
            self._run_staircase()
            assert TRACER.spans_started == spans0  # truly off
        finally:
            TRACER.enabled = True
        self._run_staircase()
        TRACER.flush()
        spans = TRACER.spans_started - spans0
        assert spans > 0
        assert TRACER.lines_written - lines0 > spans


# ---------------------------------------------------------------------------
# Tracer mechanics + schema
# ---------------------------------------------------------------------------


class TestTracerMechanics:
    def test_spans_nest_and_validate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TRACER.enable(path)
        with TRACER.span("run", "outer"):
            with TRACER.span("mix.block", "inner", extra=7):
                TRACER.event("path.fork", pc_size=2)
            TRACER.counter("solver.queries", 3)
        TRACER.close()
        events = read_trace(path)  # validates every line
        spans = {e["name"]: e for e in events if e["ev"] == "span"}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["extra"] == 7
        point = next(e for e in events if e["ev"] == "event")
        assert point["span"] == spans["inner"]["id"]
        assert point["pc_size"] == 2
        counter = next(e for e in events if e["ev"] == "counter")
        assert counter["span"] == spans["outer"]["id"]
        assert counter["value"] == 3

    def test_exception_inside_span_is_recorded_and_propagates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TRACER.enable(path)
        with pytest.raises(ValueError):
            with TRACER.span("run", "boom"):
                raise ValueError("x")
        TRACER.close()
        (span,) = [e for e in read_trace(path) if e["ev"] == "span"]
        assert span["error"] == "ValueError"

    @pytest.mark.parametrize(
        "bad",
        [
            {"ev": "span", "id": "1", "kind": "nope", "name": "x", "t": 0, "dur": 0},
            {"ev": "span", "id": "1", "kind": "run", "name": "x", "t": 0},
            {"ev": "span", "id": "1", "kind": "run", "name": "x", "t": 0, "dur": -1},
            {"ev": "event", "kind": "not.a.kind", "t": 0},
            {"ev": "counter", "value": 1},
            {"ev": "counter", "name": "n", "value": "high"},
            {"ev": "meta", "schema": 99},
            {"ev": "mystery"},
            ["not", "an", "object"],
        ],
    )
    def test_schema_rejects_malformed_events(self, bad):
        with pytest.raises(TraceSchemaError):
            validate_line(bad)

    def test_read_trace_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"meta","schema":1,"pid":1,"t":0}\nnot json\n')
        with pytest.raises(TraceSchemaError, match="2"):
            read_trace(path)

    def test_merge_worker_files_appends_sorted_and_tolerates_torn_tail(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        TRACER.enable(path)
        (tmp_path / "t.jsonl.worker-222").write_text(
            '{"ev":"meta","schema":1,"pid":222,"t":0.1}\n{"ev":"span","id":"w222:1",'
            '"parent":null,"kind":"worker.task","name":"b","t":0.1,"dur":0.0}\n'
            '{"ev":"span","id":"w222:2","parent"'  # torn final line: dropped
        )
        (tmp_path / "t.jsonl.worker-111").write_text(
            '{"ev":"meta","schema":1,"pid":111,"t":0.1}\n'
        )
        assert TRACER.merge_worker_files() == 2
        TRACER.close()
        events = read_trace(path)
        pids = [e["pid"] for e in events if e["ev"] == "meta"]
        assert pids[1:] == [111, 222]  # sorted filename order after the main meta
        assert not list(tmp_path.glob("t.jsonl.worker-*"))  # sidecars consumed


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class TestAggregate:
    def test_attribution_and_block_tables(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TRACER.enable(path)
        with TRACER.span("run", "mix:typed"):
            with TRACER.span("mix.block", "b1"):
                with TRACER.span("solver.query", "check_sat", tier="exact",
                                 verdict="SAT", budget=4000):
                    pass
                TRACER.event("path.fork", pc_size=1)
        TRACER.close()
        digest = digest_file(path)
        assert digest["attributed_fraction"] > 0
        (block,) = digest["blocks"]
        assert block["name"] == "b1"
        assert block["queries"] == 1
        assert sorted(block) == [
            "cache_hits", "count", "kind", "name", "queries", "seconds",
            "solver_seconds", "spec_queries", "spec_runs",
            "spec_solver_seconds", "store_hits", "tiers",
        ]
        assert "scheduler" not in digest
        assert digest["query_tiers"]["exact"]["count"] == 1
        assert digest["point_events"] == {"path.fork": 1}
        report = format_report(digest)
        assert "b1" in report and "exact" in report

    def test_worker_spans_live_in_the_speculative_section(self):
        events = [
            {"ev": "span", "id": "1", "parent": None, "kind": "run", "name": "r",
             "t": 0.0, "dur": 1.0},
            {"ev": "span", "id": "w9:1", "parent": "1", "kind": "worker.task",
             "name": "b", "t": 0.1, "dur": 0.5},
            {"ev": "span", "id": "w9:2", "parent": "w9:1", "kind": "solver.query",
             "name": "check_sat", "t": 0.2, "dur": 0.1, "tier": "full_solve"},
            {"ev": "event", "kind": "path.fork", "span": "w9:1", "t": 0.3},
        ]
        digest = aggregate(events)
        assert digest["speculative"]["tasks"] == 1
        assert digest["speculative"]["query_tiers"]["full_solve"]["count"] == 1
        assert digest["speculative"]["point_events"] == {"path.fork": 1}
        # ...and never pollute the authoritative tables.
        assert digest["query_tiers"] == {}
        assert digest["point_events"] == {}


    def test_pool_worker_runs_are_attributed_to_their_requests(self):
        # A pooled daemon worker was forked before its requests, so its
        # run has no parent link: the request with its pid whose
        # interval encloses it owns it.  Worker 9's second run falls in
        # no request of its own (worker 8's does not count).
        events = [
            {"ev": "span", "id": "1", "parent": None, "kind": "request",
             "name": "mixy", "t": 0.0, "dur": 1.0, "pid": 9},
            {"ev": "span", "id": "2", "parent": None, "kind": "request",
             "name": "mixy", "t": 2.0, "dur": 1.0, "pid": 8},
            {"ev": "span", "id": "w9:1", "parent": None, "kind": "run",
             "name": "mixy:typed:main", "t": 0.1, "dur": 0.5},
            {"ev": "span", "id": "w9:2", "parent": "w9:1", "kind": "mixy.block",
             "name": "b", "t": 0.2, "dur": 0.2, "store_hit": True},
            {"ev": "span", "id": "w9:3", "parent": "w9:2", "kind": "solver.query",
             "name": "check_sat", "t": 0.3, "dur": 0.1, "tier": "exact"},
            {"ev": "event", "kind": "path.fork", "span": "w9:2", "t": 0.3},
            {"ev": "span", "id": "w9:4", "parent": None, "kind": "run",
             "name": "mixy:typed:main", "t": 2.1, "dur": 0.5},
        ]
        digest = aggregate(events)
        assert digest["wall_seconds"] == 2.0  # the two requests
        assert digest["attributed_seconds"] == 0.5  # w9:1 only
        (block,) = digest["blocks"]
        assert (block["name"], block["queries"], block["store_hits"]) == ("b", 1, 1)
        assert digest["query_tiers"]["exact"]["count"] == 1
        assert digest["point_events"] == {"path.fork": 1}
        assert digest["speculative"]["tasks"] == 0
        assert digest["speculative"]["query_tiers"] == {}


# ---------------------------------------------------------------------------
# End-to-end through the CLI, and jobs=1 vs jobs=4 determinism
# ---------------------------------------------------------------------------


def _traced_run(tmp_path, jobs: int) -> dict:
    _fresh_process_state()
    program = tmp_path / f"prog-j{jobs}.c"
    program.write_text(C_PROGRAM)
    trace = tmp_path / f"trace-j{jobs}.jsonl"
    code = main(
        ["mixy", str(program), "--jobs", str(jobs), "--validate-witnesses",
         "--trace", str(trace)]
    )
    assert code == 1  # block_b's genuine nonnull warning
    return digest_file(trace)


def _deterministic_view(digest: dict) -> dict:
    """The parts of a digest that must not depend on the job count:
    authoritative span counts per kind, the per-block work table, point
    events, and witness verdicts.  (Query *tiers* legitimately shift —
    speculation turns full solves into exact hits — and parallel.* /
    worker spans exist only under --jobs N.)"""
    return {
        "span_counts": {
            kind: agg["count"]
            for kind, agg in digest["span_kinds"].items()
            if not kind.startswith("parallel.")
        },
        "blocks": [
            {"name": b["name"], "count": b["count"], "queries": b["queries"]}
            for b in sorted(digest["blocks"], key=lambda b: b["name"])
        ],
        "queries_total": sum(
            agg["count"] for agg in digest["query_tiers"].values()
        ),
        "point_events": digest["point_events"],
        "witness_verdicts": digest["witness_verdicts"],
    }


class TestTraceDeterminism:
    def test_jobs1_and_jobs4_produce_identical_aggregates(self, tmp_path):
        serial = _traced_run(tmp_path, jobs=1)
        parallel = _traced_run(tmp_path, jobs=4)
        assert _deterministic_view(serial) == _deterministic_view(parallel)
        # Block and fan-out spans carry only their work fields.
        for event in read_trace(tmp_path / "trace-j4.jsonl"):
            if event.get("kind") == "mixy.block":
                assert "chash" not in event
            if event.get("kind") == "parallel.fanout":
                assert not {"mode", "waves", "races", "skipped", "winners",
                            "cancelled"} & set(event)
        # The parallel run actually speculated, and its raw stream is a
        # strict superset: worker spans ride along without perturbing the
        # deterministic view above.
        assert parallel["speculative"]["tasks"] > 0
        assert serial["speculative"]["tasks"] == 0

    def test_traced_cli_run_validates_and_attributes(self, tmp_path):
        digest = _traced_run(tmp_path, jobs=1)  # digest_file validated lines
        assert digest["wall_seconds"] > 0
        assert digest["attributed_fraction"] >= 0.95
        assert digest["counters"]["solver.queries"] > 0

    def test_trace_report_command(self, tmp_path, capsys):
        _traced_run(tmp_path, jobs=1)
        assert main(["trace-report", str(tmp_path / "trace-j1.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "hottest blocks" in out
        assert "block_a" in out
        assert (
            main(["trace-report", str(tmp_path / "trace-j1.jsonl"), "--json"]) == 0
        )
        digest = json.loads(capsys.readouterr().out)
        assert digest["schema"] == 1

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("wat\n")
        assert main(["trace-report", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --solver-stats rendering (format_table / as_dict single code path)
# ---------------------------------------------------------------------------


class TestSolverStatsTable:
    def test_table_values_come_verbatim_from_as_dict(self):
        stats = SolverStats(queries=7, exact_hits=3, solve_seconds=1.23456789)
        stats.merge_perf(SolverStats(queries=2, solve_seconds=0.5))
        table = stats.format_table()
        rendered = dict(
            line.rsplit(None, 1) for line in table.splitlines()[2:]
        )
        flat: dict[str, object] = {}
        for key, value in stats.as_dict().items():
            if isinstance(value, dict):
                flat.update({f"{key}.{k}": v for k, v in value.items()})
            else:
                flat[key] = value
        assert rendered == {k: str(v) for k, v in flat.items()}

    def test_separator_spans_the_widest_row(self):
        # The old "-" * (width + 12) rule underflowed for long values;
        # the separator must cover key column + gap + value column.
        stats = SolverStats(solve_seconds=123456.654321, queries=10**15)
        lines = stats.format_table().splitlines()
        assert len(lines[1]) == max(len(line) for line in lines[2:])
        assert set(lines[1]) == {"-"}

    #: The ``--solver-stats`` rows, in order.  A field added to or
    #: dropped from ``SolverStats.as_dict`` must update this list on
    #: purpose (the benchmark reads several of these rows by name).
    AS_DICT_KEYS = [
        "queries", "syntactic_hits", "exact_hits", "subset_hits",
        "superset_hits", "model_eval_hits", "cache_hits", "hit_rate",
        "full_solves", "solve_seconds", "sat_conflicts", "sat_restarts",
        "theory_rounds", "query_timeouts", "deadline_breaches",
        "path_budget_breaches", "memlog_breaches", "injected_faults",
        "solver_errors_contained", "self_check_failures",
        "witnesses_confirmed", "witnesses_unconfirmed", "witnesses_diverged",
        "blocks_contained", "speculative_blocks", "speculation_failures",
        "cache_entries_imported",
    ]
    SPECULATIVE_KEYS = [
        "queries", "syntactic_hits", "exact_hits", "subset_hits",
        "superset_hits", "model_eval_hits", "full_solves", "solve_seconds",
        "sat_conflicts", "sat_restarts", "theory_rounds", "query_timeouts",
        "deadline_breaches", "path_budget_breaches", "memlog_breaches",
        "solver_errors_contained", "cache_hits", "hit_rate",
    ]

    def test_as_dict_keys_are_pinned(self):
        stats = SolverStats()
        assert list(stats.as_dict()) == self.AS_DICT_KEYS
        stats.merge_perf(SolverStats(queries=1))
        out = stats.as_dict()
        assert list(out) == self.AS_DICT_KEYS + ["speculative"]
        assert list(out["speculative"]) == self.SPECULATIVE_KEYS

    def test_snapshot_of_the_default_table_header(self):
        lines = SolverStats().format_table().splitlines()
        assert lines[0] == "solver service stats"
        assert lines[2].startswith("queries")
        # hit_rate renders exactly the rounded as_dict value.
        hit_rate_line = next(l for l in lines if l.startswith("hit_rate"))
        assert hit_rate_line.split()[-1] == "0.0"


# ---------------------------------------------------------------------------
# Trace file modes (satellite: the enable() truncate-on-start fix)
# ---------------------------------------------------------------------------


class TestTraceModes:
    """``Tracer.enable`` historically truncated an existing trace file
    unconditionally — a daemon restarted onto its own trace path wiped
    the evidence of its previous life.  The fix: an explicit mode.
    ``truncate`` keeps the old behavior, ``append`` accumulates
    sessions (each with its own ``meta`` line), ``rotate`` moves the
    previous file to ``FILE.1`` first."""

    def _session(self, path, mode, marker):
        TRACER.enable(path, mode=mode)
        TRACER.counter(marker, 1)
        TRACER.close()

    @staticmethod
    def _counters(events):
        return [e["name"] for e in events if e["ev"] == "counter"]

    def test_truncate_drops_the_previous_session(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._session(path, "truncate", "first")
        self._session(path, "truncate", "second")
        events = read_trace(path)
        assert self._counters(events) == ["second"]
        assert sum(e["ev"] == "meta" for e in events) == 1

    def test_append_accumulates_sessions(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._session(path, "append", "first")
        self._session(path, "append", "second")
        events = read_trace(path)  # readers tolerate multiple metas
        assert self._counters(events) == ["first", "second"]
        assert sum(e["ev"] == "meta" for e in events) == 2

    def test_rotate_keeps_the_previous_life(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._session(path, "rotate", "first")   # no file yet: plain start
        self._session(path, "rotate", "second")  # first life -> t.jsonl.1
        assert self._counters(read_trace(path)) == ["second"]
        assert self._counters(read_trace(path + ".1")) == ["first"]

    def test_append_to_a_fresh_path_just_starts_one(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._session(path, "append", "only")
        assert self._counters(read_trace(path)) == ["only"]

    def test_unknown_mode_is_rejected_before_touching_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("precious")
        with pytest.raises(ValueError, match="unknown trace mode"):
            TRACER.enable(str(path), mode="overwrite")
        assert path.read_text() == "precious"
        assert not TRACER.enabled

    def test_appended_sessions_aggregate_as_one_stream(self, tmp_path):
        """The daemon-restart shape: two appended sessions still feed
        the trace-report aggregator without schema errors."""
        path = str(tmp_path / "t.jsonl")
        for marker in ("life1", "life2"):
            TRACER.enable(path, mode="append")
            with TRACER.span("run", marker):
                pass
            TRACER.close()
        digest = aggregate(read_trace(path))
        assert digest["schema"] == 1
