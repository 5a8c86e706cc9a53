"""MIXY ``--jobs 1`` / ``--jobs N`` output equivalence.

The parallel engine's contract (docs/ARCHITECTURE.md §1.4) is that
speculation only warms the query cache — the authoritative serial pass
computes the same warnings, diagnostics, and witness classifications as
a cold run.  These tests run both modes on the same inputs and compare.

Warning texts embed qualifier-variable ids (``#N``) drawn from a
process-global counter, so two *serial* runs in one process already
differ in them; each run here resets that counter and the solver service
so the comparison can be exact.
"""

import itertools
import re

import pytest

from repro import smt
from repro.mixy import Mixy, MixyConfig
from repro.mixy.c import parse_program
from repro.mixy.corpus_vsftpd import (
    ANNOTATION_SITES,
    PARALLEL_BLOCKS,
    mini_vsftpd,
    parallel_vsftpd,
)
from repro.mixy.qual import QVar

JOBS = 4

#: Full DPLL(T) solves of a cold ``--jobs 1`` run on
#: ``parallel_vsftpd(depth=2)`` (measured; host-independent).  A serial
#: run that stops reusing a block's verdicts across fixpoint rounds
#: re-solves them: 1,900 solves.
SERIAL_FULL_SOLVES_DEPTH2 = 744
#: Theory conflicts of the same run (measured: 48).  A ceiling, not an
#: equality: the lazy loop meets atoms in memory-layout order, so the count
#: can drift.  Weaker theory cores re-learn conflicts and would exceed it.
SERIAL_THEORY_ROUNDS_DEPTH2 = 48
#: Full solves of a cold ``--jobs 1`` run on ``parallel_vsftpd(depth=4)``
#: (measured; host-independent).  Ever-advancing serial symbol names
#: re-solve every round: ~2,800 solves.
SERIAL_FULL_SOLVES_DEPTH4 = 1246


def _fresh_process_state():
    """Make a run independent of what earlier tests did in this process."""
    smt.reset_service()
    QVar._ids = itertools.count(1)


def _normalize(text: str) -> str:
    return re.sub(r"#\d+", "#N", text)


def _run_mixy(source: str, jobs: int, **config_kwargs):
    _fresh_process_state()
    program = parse_program(source)
    mixy = Mixy(program, config=MixyConfig(jobs=jobs, **config_kwargs))
    warnings = mixy.run()
    stats = smt.get_service().stats
    witness_counts = (
        stats.witnesses_confirmed,
        stats.witnesses_unconfirmed,
        stats.witnesses_diverged,
    )
    return [str(w) for w in warnings], witness_counts


SUBSETS = [frozenset()] + [frozenset({s}) for s in ANNOTATION_SITES] + [
    frozenset(ANNOTATION_SITES)
]


class TestMixyEquivalence:
    @pytest.mark.parametrize(
        "subset", SUBSETS, ids=["+".join(sorted(s)) or "plain" for s in SUBSETS]
    )
    def test_vsftpd_corpus_with_witness_validation(self, subset):
        source = mini_vsftpd(subset)
        serial, serial_witnesses = _run_mixy(
            source, jobs=1, validate_witnesses=True
        )
        parallel, parallel_witnesses = _run_mixy(
            source, jobs=JOBS, validate_witnesses=True
        )
        assert serial == parallel  # exact, including qualifier ids
        assert serial_witnesses == parallel_witnesses

    def test_parallel_corpus_single_deterministic_warning(self):
        source = parallel_vsftpd(depth=1)
        serial, _ = _run_mixy(source, jobs=1)
        parallel, _ = _run_mixy(source, jobs=JOBS)
        assert serial == parallel
        assert len(serial) == 1
        assert "nonnull parameter p_ptr of sysutil_free" in serial[0]

    def test_serial_runs_reuse_verdicts_across_rounds(self):
        """Names are block-scoped at every --jobs, so a serial re-run of
        a block in a later fixpoint round rebuilds the same formulas and
        the exact cache tier answers them.  The counters are
        host-independent; the ceiling is the measured full-solve count."""
        source = parallel_vsftpd(depth=2)
        serial, _ = _run_mixy(source, jobs=1)
        stats = smt.get_service().stats
        assert stats.query_timeouts == 0
        assert stats.exact_hits > 0
        assert stats.full_solves <= SERIAL_FULL_SOLVES_DEPTH2
        assert stats.theory_rounds <= SERIAL_THEORY_ROUNDS_DEPTH2
        parallel, _ = _run_mixy(source, jobs=2)
        assert serial == parallel
        assert len(serial) == 1

    def test_normalized_comparison_is_not_weaker_here(self):
        # The exact comparison above subsumes the normalized one; this
        # guards the normalizer itself for use on uncontrolled runs.
        assert _normalize("qual #12 flows to #3") == "qual #N flows to #N"


@pytest.fixture(scope="module")
def staircase_depth4():
    """One cold run of ``parallel_vsftpd(depth=4)`` at ``--jobs 1`` and at
    ``--jobs 4``, shared by every assertion in the class below."""
    runs = {}
    for jobs in (1, JOBS):
        _fresh_process_state()
        mixy = Mixy(
            parse_program(parallel_vsftpd(depth=4)),
            config=MixyConfig(jobs=jobs),
        )
        warnings = [str(w) for w in mixy.run()]
        runs[jobs] = (warnings, dict(mixy.stats), smt.get_service().stats)
    return runs


class TestStaircaseDepth4:
    """E16: six solver-heavy blocks whose calling contexts change every
    fixpoint round.  Speculation only pre-answers the authoritative
    pass's queries, and a serial re-run of a block reuses its earlier
    rounds' verdicts."""

    def test_corpus_has_enough_symbolic_blocks(self, staircase_depth4):
        _, serial, _ = staircase_depth4[1]
        assert len(PARALLEL_BLOCKS) >= 4
        # Every frontier block is re-analyzed across the rounds.
        assert serial["fixpoint_iterations"] >= 4
        assert serial["symbolic_blocks_run"] > len(PARALLEL_BLOCKS)

    def test_warning_output_is_bitwise_identical(self, staircase_depth4):
        serial, serial_stats, _ = staircase_depth4[1]
        parallel, parallel_stats, _ = staircase_depth4[JOBS]
        assert serial == parallel
        assert len(serial) == 1  # the staircase's single finding
        assert "nonnull parameter p_ptr of sysutil_free" in serial[0]
        assert (
            serial_stats["fixpoint_iterations"]
            == parallel_stats["fixpoint_iterations"]
        )

    def test_runs_are_deterministic_solver_work(self, staircase_depth4):
        # UNKNOWNs are never cached, so any timeout would poison the
        # comparison; the corpus is tuned to produce none in either mode.
        assert staircase_depth4[1][2].query_timeouts == 0
        assert staircase_depth4[JOBS][2].query_timeouts == 0
        assert staircase_depth4[JOBS][2].speculation_failures == 0

    def test_parallel_mode_actually_speculated(self, staircase_depth4):
        parallel = staircase_depth4[JOBS][2]
        assert parallel.speculative_blocks > 0
        assert parallel.cache_entries_imported > 0
        # The same query stream either way; speculation only pre-answers.
        assert parallel.queries == staircase_depth4[1][2].queries

    def test_serial_full_solve_ceiling(self, staircase_depth4):
        serial = staircase_depth4[1][2]
        assert serial.exact_hits > 0
        assert serial.full_solves <= SERIAL_FULL_SOLVES_DEPTH4, (
            f"--jobs 1 made {serial.full_solves} full solves; ceiling is "
            f"{SERIAL_FULL_SOLVES_DEPTH4}"
        )
