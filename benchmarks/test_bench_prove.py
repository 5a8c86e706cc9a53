"""E22 — property proving (`repro prove`) on the staircase corpus.

``property_staircase`` embeds one ``check`` obligation per staircase
worker block: six solver-heavy MIX(symbolic) blocks, re-analyzed every
fixpoint round as the session globals fall, each path additionally
discharging the feasibility query of its check's falsifying branch.
As in E16, block-scoped naming lets every ``--jobs`` answer a block's
re-run from the verdicts of its earlier rounds, and ``repro prove
--entry typed --jobs 4`` adds speculative warming of each new calling
context on top.

Rows reproduced: suite wall-clock seconds, full DPLL(T) solves, and
cache hit rates at ``--jobs 1`` vs ``--jobs 4``.  Acceptance bars:
bitwise-identical verdict lines at both ``--jobs`` (on the staircase
and on the shipped ``examples/properties/`` suite), and a ceiling on
the serial run's full solves (host-independent).  The wall-clock
speedup is reported, not gated (see E16).
"""

from __future__ import annotations

import glob
import itertools
import time

import pytest

from repro import smt
from repro.mixy.corpus_vsftpd import PARALLEL_BLOCKS, property_staircase
from repro.mixy.qual import QVar
from repro.prove import PROVED, prove_files, prove_source

from conftest import REPO_ROOT, bench_json, print_table

DEPTH = 4
JOBS = 4
#: Full solves of the cold ``--jobs 1`` proof (measured; host-independent).
SERIAL_FULL_SOLVES_CEILING = 1318

EXAMPLES = sorted(glob.glob(str(REPO_ROOT / "examples/properties/*")))


def _run(jobs: int):
    """Prove the staircase property file once, cold: the solver service
    and the process-global qualifier-variable counter are reset so both
    modes start from identical initial conditions (prove_source itself
    resets the per-request equivalence state)."""
    smt.reset_service()
    QVar._ids = itertools.count(1)
    source = property_staircase(depth=DEPTH)
    start = time.monotonic()
    result = prove_source(
        "mixy",
        source,
        {"entry": "typed", "jobs": jobs},
        name="property_staircase",
    )
    elapsed = time.monotonic() - start
    stats = smt.get_service().stats
    return {
        "jobs": jobs,
        "seconds": elapsed,
        "line": result.line(),
        "verdict": result.verdict,
        "queries": stats.queries,
        "cache_hits": stats.cache_hits,
        "exact_hits": stats.exact_hits,
        "hit_rate": stats.hit_rate,
        "full_solves": stats.full_solves,
        "speculative_blocks": stats.speculative_blocks,
        "imported": stats.cache_entries_imported,
        "timeouts": stats.query_timeouts,
    }


@pytest.fixture(scope="module")
def measurements():
    return {jobs: _run(jobs) for jobs in (1, JOBS)}


def test_staircase_suite_is_proved(measurements):
    # Every block's check holds on every path; nothing else warns.
    assert measurements[1]["verdict"] == PROVED
    assert measurements[JOBS]["verdict"] == PROVED


def test_verdict_lines_are_bitwise_identical(measurements):
    assert measurements[1]["line"] == measurements[JOBS]["line"]


def test_runs_are_deterministic_solver_work(measurements):
    # UNKNOWNs are never cached, so any timeout would poison the
    # comparison; the corpus is tuned to produce none in either mode.
    assert measurements[1]["timeouts"] == 0
    assert measurements[JOBS]["timeouts"] == 0


def test_parallel_mode_actually_speculated(measurements):
    parallel = measurements[JOBS]
    assert parallel["speculative_blocks"] > 0
    assert parallel["imported"] > 0
    assert parallel["queries"] == measurements[1]["queries"]


def test_e22_serial_full_solve_ceiling(measurements):
    """Serial re-runs of a block reuse its earlier rounds' verdicts."""
    serial = measurements[1]
    assert serial["exact_hits"] > 0
    assert serial["full_solves"] <= SERIAL_FULL_SOLVES_CEILING, (
        f"--jobs 1 made {serial['full_solves']} full solves; ceiling is "
        f"{SERIAL_FULL_SOLVES_CEILING}"
    )


def test_example_suite_verdicts_identical_across_jobs():
    """The shipped examples — valid, falsifiable (confirmed models),
    vacuous, backwards-solving — produce identical verdict lines under
    file-level fan-out."""
    assert len(EXAMPLES) >= 8
    serial: list[str] = []
    parallel: list[str] = []
    assert prove_files(EXAMPLES, {}, jobs=1, emit=serial.append) == 1
    assert prove_files(EXAMPLES, {}, jobs=JOBS, emit=parallel.append) == 1
    assert serial == parallel
    assert any(line.startswith("COUNTEREXAMPLE") for line in serial)
    assert any(line.startswith("PROVED") for line in serial)


def test_report_prove_table(measurements, capsys):
    serial, parallel = measurements[1], measurements[JOBS]
    speedup = serial["seconds"] / parallel["seconds"]
    rows = []
    for m in (serial, parallel):
        rows.append(
            [
                f"--jobs {m['jobs']}",
                f"{m['seconds']:.2f}",
                m["queries"],
                f"{m['hit_rate']:.0%}",
                m["full_solves"],
                m["speculative_blocks"],
                m["imported"],
                m["verdict"],
            ]
        )
    title = (
        f"E22: property proving on the staircase corpus (depth {DEPTH}, "
        f"{len(PARALLEL_BLOCKS)} checked blocks; speedup {speedup:.2f}x)"
    )
    headers = [
        "mode",
        "seconds",
        "queries",
        "hit rate",
        "full solves",
        "speculated",
        "imported",
        "verdict",
    ]
    with capsys.disabled():
        print_table(title, headers, rows)
    bench_json(
        "E22",
        {
            "title": title,
            "headers": headers,
            "rows": rows,
            "speedup": round(speedup, 2),
            "identical_verdicts": serial["line"] == parallel["line"],
            "examples": len(EXAMPLES),
            "serial_full_solves_ceiling": SERIAL_FULL_SOLVES_CEILING,
        },
    )
