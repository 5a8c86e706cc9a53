"""``--jobs 1`` / ``--jobs N`` output equivalence.

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
from repro.core import MixConfig, analyze_source
from repro.mixy import Mixy, MixyConfig
from repro.mixy.c import parse_program
from repro.mixy.corpus_vsftpd import (
    ANNOTATION_SITES,
    mini_vsftpd,
    parallel_vsftpd,
)
from repro.mixy.qual import QVar
from repro.typecheck import TypeEnv
from repro.typecheck.types import INT

JOBS = 4

#: Full DPLL(T) solves of a cold ``--jobs 1`` run on
#: ``parallel_vsftpd(depth=2)`` (measured; host-independent).  A serial
#: run that stops reusing a block's verdicts across fixpoint rounds
#: re-solves them: 1,900 solves.
SERIAL_FULL_SOLVES_DEPTH2 = 744


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
        parallel, _ = _run_mixy(source, jobs=2)
        assert serial == parallel
        assert len(serial) == 1

    def test_normalized_comparison_is_not_weaker_here(self):
        # The exact comparison above subsumes the normalized one; this
        # guards the normalizer itself for use on uncontrolled runs.
        assert _normalize("qual #12 flows to #3") == "qual #N flows to #N"


class TestScheduleEquivalence:
    """``--schedule waves|portfolio`` must stay bitwise-identical to
    fifo and to ``--jobs 1`` — the scheduler only redistributes
    *speculative* work (docs/ARCHITECTURE.md §1.6)."""

    @pytest.mark.parametrize("schedule", ["waves", "portfolio"])
    def test_scheduled_modes_match_serial(self, schedule):
        source = parallel_vsftpd(depth=2)
        serial, _ = _run_mixy(source, jobs=1)
        scheduled, _ = _run_mixy(source, jobs=JOBS, schedule=schedule)
        assert serial == scheduled
        assert len(serial) == 1

    def test_hinted_portfolio_matches_serial(self, tmp_path):
        # Hints steer dispatch (strategies, tier order, cold_only) but
        # must never steer verdicts; exercise every hint field plus a
        # stale entry that matches no current block.
        from repro.mixy.c import parse_program as _parse
        from repro.schedule import (
            BlockHint,
            ScheduleHints,
            block_content_hash,
        )

        source = parallel_vsftpd(depth=2)
        program = _parse(source)
        names = sorted(n for n in program.functions if n.startswith("crunch_"))
        hints = ScheduleHints()
        for rank, name in enumerate(names):
            chash = block_content_hash(program, name)
            hints.blocks[chash] = BlockHint(
                name=name,
                rank=rank,
                solver_seconds=1.0,
                queries=10,
                tier_order=("superset", "subset") if rank % 2 else None,
                strategy=("intfirst", "simplify", "flip", None)[rank % 4],
                cold_only=rank % 2 == 0,
            )
        hints.blocks["feedfacecafebeef"] = BlockHint(name="gone", rank=99)
        hints.hot = tuple(hints.blocks)
        path = tmp_path / "hints.json"
        hints.save(str(path))

        serial, _ = _run_mixy(source, jobs=1)
        hinted, _ = _run_mixy(
            source, jobs=JOBS, schedule="portfolio", sched_hints=str(path)
        )
        assert serial == hinted

    def test_corrupt_hints_degrade_to_unhinted(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        source = parallel_vsftpd(depth=1)
        serial, _ = _run_mixy(source, jobs=1)
        hinted, _ = _run_mixy(
            source, jobs=JOBS, schedule="waves", sched_hints=str(path)
        )
        assert serial == hinted


MIX_PROGRAMS = [
    # Symbolic block whose feasible failing paths give the MIX engine
    # multiple independent outcome queries to fan out.
    "{t if x < 3 then (if x < 1 then 1 + 1 else 4 + true) else 7 t}",
    # Nested blocks: typed inside symbolic inside typed.
    "{s ({t if x < 0 then {s 1 s} + 1 else 2 t}) + 3 s}",
    # Error-free: the fan-out must not invent diagnostics.
    "{t if x < 5 then x + 1 else x - 1 t}",
]


class TestMixEquivalence:
    @pytest.mark.parametrize("source", MIX_PROGRAMS)
    @pytest.mark.parametrize("schedule", ["fifo", "waves"])
    def test_reports_identical(self, source, schedule):
        env = TypeEnv({"x": INT})

        def run(jobs):
            _fresh_process_state()
            report = analyze_source(
                source,
                env=env,
                entry="typed",
                config=MixConfig(jobs=jobs, schedule=schedule),
            )
            return (
                report.ok,
                str(report),
                [str(d) for d in report.diagnostics],
                [str(w) for w in report.warnings],
            )

        assert run(1) == run(JOBS)
