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
