"""E16 — the parallel engine on the staircase vsftpd corpus.

``parallel_vsftpd`` couples six solver-heavy symbolic blocks against the
MIXY fixpoint's sorted frontier order: one session global falls per
round, the calling context of every block changes every round, and the
whole frontier is re-analyzed round after round.  Fresh symbols are
named per block at every ``--jobs`` (``CSymExecutor.block_scope``), so
a block's re-run in a later round rebuilds the formulas it built
before and even a serial run answers them from the exact cache tier;
what a new calling context adds is solved once.  ``--jobs N`` workers
speculate each round's blocks and ship query-cache deltas home, so the
authoritative pass also finds the new context's queries pre-answered.

Rows reproduced: wall-clock seconds, full DPLL(T) solves, and cache hit
rates at ``--jobs 1`` vs ``--jobs 4``.  Acceptance bars: bitwise-
identical warnings at both ``--jobs``, and a ceiling on the serial
run's full solves (host-independent; a return to ever-advancing
serial names re-solves every round, ~2,800 solves).  The wall-clock
speedup is reported, not gated: it is what fan-out adds over a serial
run that already reuses verdicts across rounds, and on a host with
few cores that is little.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro import smt
from repro.mixy import Mixy
from repro.mixy.c import parse_program
from repro.mixy.corpus_vsftpd import PARALLEL_BLOCKS, parallel_vsftpd
from repro.mixy.driver import MixyConfig
from repro.mixy.qual import QVar

from conftest import bench_json, print_table

DEPTH = 4
JOBS = 4
#: Full solves of the cold ``--jobs 1`` run (measured; host-independent).
SERIAL_FULL_SOLVES_CEILING = 1246


def _run(jobs: int):
    """One full analysis run in a reproducible process state: the solver
    service and the process-global qualifier-variable counter are reset
    so both modes see identical initial conditions (warning texts embed
    ``#N`` qualifier ids)."""
    smt.reset_service()
    QVar._ids = itertools.count(1)
    program = parse_program(parallel_vsftpd(depth=DEPTH))
    mixy = Mixy(program, config=MixyConfig(jobs=jobs))
    start = time.monotonic()
    warnings = mixy.run()
    elapsed = time.monotonic() - start
    stats = smt.get_service().stats
    return {
        "jobs": jobs,
        "seconds": elapsed,
        "warnings": [str(w) for w in warnings],
        "iterations": mixy.stats["fixpoint_iterations"],
        "blocks_run": mixy.stats["symbolic_blocks_run"],
        "frontier": len(PARALLEL_BLOCKS),
        "queries": stats.queries,
        "cache_hits": stats.cache_hits,
        "exact_hits": stats.exact_hits,
        "hit_rate": stats.hit_rate,
        "full_solves": stats.full_solves,
        "speculative_blocks": stats.speculative_blocks,
        "speculation_failures": stats.speculation_failures,
        "imported": stats.cache_entries_imported,
        "timeouts": stats.query_timeouts,
    }


@pytest.fixture(scope="module")
def measurements():
    return {jobs: _run(jobs) for jobs in (1, JOBS)}


def test_corpus_has_enough_symbolic_blocks(measurements):
    serial = measurements[1]
    assert serial["frontier"] >= 4
    # Every frontier block is re-analyzed across the staircase's rounds.
    assert serial["iterations"] >= 4
    assert serial["blocks_run"] > serial["frontier"]


def test_warning_output_is_bitwise_identical(measurements):
    serial, parallel = measurements[1], measurements[JOBS]
    assert serial["warnings"] == parallel["warnings"]
    assert len(serial["warnings"]) == 1  # the staircase's single finding
    assert "nonnull parameter p_ptr of sysutil_free" in serial["warnings"][0]
    assert serial["iterations"] == parallel["iterations"]


def test_runs_are_deterministic_solver_work(measurements):
    # UNKNOWNs are never cached, so any timeout would poison the
    # comparison; the corpus is tuned to produce none in either mode.
    assert measurements[1]["timeouts"] == 0
    assert measurements[JOBS]["timeouts"] == 0
    assert measurements[JOBS]["speculation_failures"] == 0


def test_parallel_mode_actually_speculated(measurements):
    parallel = measurements[JOBS]
    assert parallel["speculative_blocks"] > 0
    assert parallel["imported"] > 0
    # The same query stream either way; speculation only pre-answers.
    assert parallel["queries"] == measurements[1]["queries"]


def test_e16_serial_full_solve_ceiling(measurements):
    """Serial re-runs of a block reuse its earlier rounds' verdicts."""
    serial = measurements[1]
    assert serial["exact_hits"] > 0
    assert serial["full_solves"] <= SERIAL_FULL_SOLVES_CEILING, (
        f"--jobs 1 made {serial['full_solves']} full solves; ceiling is "
        f"{SERIAL_FULL_SOLVES_CEILING}"
    )


def test_report_parallel_table(measurements, capsys):
    serial, parallel = measurements[1], measurements[JOBS]
    speedup = serial["seconds"] / parallel["seconds"]
    rows = []
    for m in (serial, parallel):
        rows.append(
            [
                f"--jobs {m['jobs']}",
                f"{m['seconds']:.2f}",
                m["iterations"],
                m["blocks_run"],
                m["queries"],
                f"{m['hit_rate']:.0%}",
                m["full_solves"],
                m["speculative_blocks"],
                m["imported"],
                len(m["warnings"]),
            ]
        )
    title = (
        f"E16: parallel engine on the staircase corpus (depth {DEPTH}, "
        f"{len(PARALLEL_BLOCKS)} symbolic blocks; speedup {speedup:.2f}x)"
    )
    headers = [
        "mode",
        "seconds",
        "rounds",
        "blocks run",
        "queries",
        "hit rate",
        "full solves",
        "speculated",
        "imported",
        "warnings",
    ]
    with capsys.disabled():
        print_table(title, headers, rows)
    bench_json(
        "E16",
        {
            "title": title,
            "headers": headers,
            "rows": rows,
            "speedup": round(speedup, 2),
            "identical_warnings": serial["warnings"] == parallel["warnings"],
            "serial_full_solves_ceiling": SERIAL_FULL_SOLVES_CEILING,
        },
    )
