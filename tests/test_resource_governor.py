"""The resource governor and its degradation ladder.

Every breach — a solver query timing out mid-block, the run deadline
passing mid-fork, the path budget running dry inside a loop unroll, a
memory log growing past its cap — must terminate the analysis with a
*documented conservative verdict*, never an unhandled exception and
never a verdict flip from "error" to "no error".  The
:class:`repro.smt.FaultInjector` makes the solver-side failures
deterministic so the whole ladder is exercisable in CI.
"""

from __future__ import annotations

import time

import pytest

from repro import smt
from repro.budget import Budget
from repro.core import MixConfig, SoundnessMode, analyze_source
from repro.core.analysis import MixReport
from repro.mixy import Mixy, MixyConfig
from repro.mixy.corpus_vsftpd import annotation_subsets, mini_vsftpd
from repro.smt import FaultInjector, SatResult, SolverError, SolverService
from repro.symexec import IfStrategy, SymConfig
from repro.symexec.executor import ErrKind
from repro.typecheck import TypeEnv
from repro.typecheck.types import BOOL, INT, RefType


@pytest.fixture
def fresh_service():
    """Isolate each test behind its own solver service."""
    service = SolverService()
    previous = smt.set_service(service)
    yield service
    smt.set_service(previous)


FORK_SOURCE = "{s (if p then 1 else 0) + (if q then 1 else 0) s}"
FORK_ENV = TypeEnv({"p": BOOL, "q": BOOL})

WHILE_SOURCE = "{s let i = ref 0 in while !i < 4 do i := !i + 1 done; !i s}"

# A loop over a *symbolic* bound: one exit path per unroll, so the path
# budget is genuinely chargeable inside the unroll.
SYM_WHILE_SOURCE = "{s let i = ref 0 in while !i < n do i := !i + 1 done; !i s}"
SYM_WHILE_ENV = TypeEnv({"n": INT})

WRITES_SOURCE = "{s r := 1; r := 2; r := 3; !r s}"
WRITES_ENV = TypeEnv({"r": RefType(INT)})


def good_enough(**budget_kwargs) -> MixConfig:
    return MixConfig(
        soundness=SoundnessMode.GOOD_ENOUGH, budget=Budget(**budget_kwargs)
    )


def sound(**budget_kwargs) -> MixConfig:
    return MixConfig(soundness=SoundnessMode.SOUND, budget=Budget(**budget_kwargs))


# ---------------------------------------------------------------------------
# Budget unit behavior
# ---------------------------------------------------------------------------


class TestBudget:
    def test_unbounded_by_default(self):
        budget = Budget()
        assert not budget.expired()
        assert budget.remaining() is None
        assert budget.query_deadline_at() is None
        assert budget.charge_path()
        assert not budget.memlog_exceeded(10**6)

    def test_deadline_expires(self):
        budget = Budget(deadline=0.0).start()
        assert budget.expired()
        assert budget.remaining() <= 0.0

    def test_clock_arms_lazily_and_idempotently(self):
        budget = Budget(deadline=100.0)
        assert budget._started is None
        assert not budget.expired()  # first question arms the clock
        first = budget._started
        assert first is not None
        budget.start()
        assert budget._started == first

    def test_query_deadline_capped_by_run_deadline(self):
        budget = Budget(deadline=0.0, query_timeout=100.0).start()
        assert budget.query_deadline_at() <= time.monotonic()

    def test_query_deadline_without_run_deadline(self):
        budget = Budget(query_timeout=100.0).start()
        assert budget.query_deadline_at() > time.monotonic() + 50

    def test_charge_path_breaches_past_cap(self):
        budget = Budget(max_paths=2)
        assert budget.charge_path()
        assert budget.charge_path()
        assert not budget.charge_path()
        assert budget.paths_exhausted()

    def test_restart_resets(self):
        budget = Budget(deadline=0.0, max_paths=1).start()
        budget.charge_path()
        budget.charge_path()
        budget.restart()
        assert budget.paths_used == 0

    def test_memlog_cap(self):
        budget = Budget(max_memlog_depth=3)
        assert not budget.memlog_exceeded(3)
        assert budget.memlog_exceeded(4)


# ---------------------------------------------------------------------------
# FaultInjector determinism
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_at_query_fires_exactly_once(self):
        injector = FaultInjector.at_query(3)
        fired = [injector.next_fault() for _ in range(6)]
        assert fired == [None, None, FaultInjector.TIMEOUT, None, None, None]
        assert injector.injected == 1

    def test_seeded_rate_is_reproducible(self):
        a = FaultInjector(seed=7, rate=0.3, kind=FaultInjector.ERROR)
        b = FaultInjector(seed=7, rate=0.3, kind=FaultInjector.ERROR)
        assert [a.next_fault() for _ in range(50)] == [
            b.next_fault() for _ in range(50)
        ]
        assert a.injected > 0  # the rate actually fires at this seed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(kind="segfault")
        with pytest.raises(ValueError):
            FaultInjector(faults={1: "segfault"})

    @pytest.mark.parametrize(
        "spec",
        [
            {"faults": {0: FaultInjector.CRASH}},
            {"faults": {-2: FaultInjector.TIMEOUT}},
            {"rate": 1.0},  # a rate with no seed never fires
            {"seed": 1, "rate": 1.5},
            {"seed": 1, "rate": -0.1},
            {"seed": 1, "rate": float("nan")},
        ],
    )
    def test_schedule_that_never_fires_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultInjector(**spec)

    def test_edges_of_a_firing_schedule_accepted(self):
        assert FaultInjector(seed=1, rate=1.0).next_fault() == FaultInjector.TIMEOUT
        assert FaultInjector(faults={1: FaultInjector.ERROR}).next_fault() == "error"
        FaultInjector(seed=1, rate=0.0)

    def test_injected_timeout_counts_and_skips_cache(self, fresh_service):
        x = smt.var("x", smt.INT)
        formula = smt.gt(x, smt.int_const(0))
        fresh_service.fault_injector = FaultInjector.at_query(1)
        assert fresh_service.check_sat([formula]) is SatResult.UNKNOWN
        assert fresh_service.stats.query_timeouts == 1
        assert fresh_service.stats.injected_faults == 1
        # The UNKNOWN was not cached: the retry gets the true verdict.
        assert fresh_service.check_sat([formula]) is SatResult.SAT

    def test_injected_error_contained_as_unknown(self, fresh_service):
        # Regression: error-kind faults used to escape check_sat() as raw
        # SolverErrors; they are now contained like timeouts (uncached
        # UNKNOWN + solver_errors_contained), so no caller can crash on
        # a solver-internal failure.
        p = smt.var("p", smt.BOOL)
        fresh_service.fault_injector = FaultInjector.at_query(1, FaultInjector.ERROR)
        assert fresh_service.check_sat([p]) is SatResult.UNKNOWN
        assert fresh_service.stats.solver_errors_contained == 1
        assert fresh_service.stats.injected_faults == 1
        # Not cached: the retry reaches the solver and gets the verdict.
        assert fresh_service.check_sat([p]) is SatResult.SAT

    def test_injected_error_in_model_still_raises(self, fresh_service):
        # model() has no UNKNOWN channel; SolverError *is* its contained
        # degradation path and every caller already handles it.
        fresh_service.fault_injector = FaultInjector.at_query(1, FaultInjector.ERROR)
        with pytest.raises(SolverError):
            fresh_service.model(smt.var("p", smt.BOOL))
        assert fresh_service.stats.solver_errors_contained == 1


# ---------------------------------------------------------------------------
# Degradation: injected solver faults mid-block (MIX)
# ---------------------------------------------------------------------------


def count_queries(source, env, config=None):
    service = SolverService()
    previous = smt.set_service(service)
    try:
        analyze_source(source, env=env, config=config or MixConfig())
    finally:
        smt.set_service(previous)
    return service.stats.queries


class TestInjectedFaultsMix:
    """Sweep a single injected fault over *every* query position of an
    analysis: whatever it hits, analyze() returns a report — conservative
    at worst, never an unhandled exception."""

    @pytest.mark.parametrize("kind", FaultInjector.KINDS)
    @pytest.mark.parametrize("source,env", [(FORK_SOURCE, FORK_ENV), (WHILE_SOURCE, TypeEnv())])
    def test_single_fault_sweep_terminates(self, kind, source, env, tmp_path):
        total = count_queries(source, env)
        assert total > 0
        # A CRASH fault is contained and writes a repro: keep it here.
        config = MixConfig(crash_dir=str(tmp_path))
        for n in range(1, total + 1):
            service = SolverService()
            service.fault_injector = FaultInjector.at_query(n, kind)
            previous = smt.set_service(service)
            try:
                report = analyze_source(source, env=env, config=config)
            finally:
                smt.set_service(previous)
            assert isinstance(report, MixReport)
            if report.ok:
                # A fault may be absorbed (e.g. a conservative feasibility
                # keep), but it can never invent a wrong accepting type.
                assert str(report.type) == "int"

    def test_fault_on_accepting_program_never_flips_to_wrong_type(self, fresh_service):
        fresh_service.fault_injector = FaultInjector(
            seed=11, rate=0.5, kind=FaultInjector.TIMEOUT
        )
        report = analyze_source(FORK_SOURCE, env=FORK_ENV)
        assert isinstance(report, MixReport)
        if report.ok:
            assert str(report.type) == "int"


# ---------------------------------------------------------------------------
# Degradation: deadline breach mid-fork (MIX)
# ---------------------------------------------------------------------------


class TestDeadlineBreach:
    def test_sound_mode_rejects_with_budget_diagnostic(self, fresh_service):
        report = analyze_source(FORK_SOURCE, env=FORK_ENV, config=sound(deadline=0.0))
        assert not report.ok
        assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)
        assert any("deadline" in d.message for d in report.diagnostics)
        assert fresh_service.stats.deadline_breaches >= 1

    def test_good_enough_mode_terminates_conservatively(self, fresh_service):
        report = analyze_source(
            FORK_SOURCE, env=FORK_ENV, config=good_enough(deadline=0.0)
        )
        # The whole frontier was abandoned, so even good-enough mode has
        # no result type to offer — it reports the breach rather than
        # silently accepting.
        assert not report.ok
        assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)

    def test_generous_deadline_changes_nothing(self, fresh_service):
        governed = analyze_source(
            FORK_SOURCE, env=FORK_ENV, config=sound(deadline=3600.0)
        )
        assert governed.ok and str(governed.type) == "int"
        assert fresh_service.stats.deadline_breaches == 0
        assert governed.warnings == []


# ---------------------------------------------------------------------------
# Degradation: path budget breach inside a While unroll (MIX)
# ---------------------------------------------------------------------------


class TestPathBudgetBreach:
    def test_sound_mode_rejects_inside_while_unroll(self, fresh_service):
        config = MixConfig(
            soundness=SoundnessMode.SOUND,
            sym=SymConfig(max_loop_unroll=6),
            budget=Budget(max_paths=1),
        )
        report = analyze_source(SYM_WHILE_SOURCE, env=SYM_WHILE_ENV, config=config)
        assert not report.ok
        assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)
        assert any("path budget" in d.message for d in report.diagnostics)
        assert fresh_service.stats.path_budget_breaches >= 1

    def test_good_enough_mode_truncates_with_warning(self, fresh_service):
        # 4 paths exist through the fork program; allow 2 and truncate.
        source = "{s (if p then 1 else 0) + (if q then 1 else 0) s}"
        report = analyze_source(source, env=FORK_ENV, config=good_enough(max_paths=2))
        assert report.ok  # the surviving paths already fix the type
        assert str(report.type) == "int"
        assert any("path budget" in w for w in report.warnings)
        assert report.stats["budget_breaches"] >= 1
        assert fresh_service.stats.path_budget_breaches >= 1

    def test_budget_spans_blocks(self, fresh_service):
        # One global cap across sequential blocks: the second block pays
        # for paths the first already used.
        source = "{s (if p then 1 else 0) s} + {s (if q then 1 else 0) s}"
        report = analyze_source(source, env=FORK_ENV, config=sound(max_paths=3))
        assert not report.ok
        assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)


# ---------------------------------------------------------------------------
# Degradation: memory-log depth breach (MIX)
# ---------------------------------------------------------------------------


class TestMemlogBreach:
    def test_deep_write_log_breaches(self, fresh_service):
        report = analyze_source(
            WRITES_SOURCE, env=WRITES_ENV, config=sound(max_memlog_depth=2)
        )
        assert not report.ok
        assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)
        assert any("memory log" in d.message for d in report.diagnostics)
        assert fresh_service.stats.memlog_breaches >= 1

    def test_cap_above_depth_is_inert(self, fresh_service):
        report = analyze_source(
            WRITES_SOURCE, env=WRITES_ENV, config=sound(max_memlog_depth=64)
        )
        assert report.ok and str(report.type) == "int"
        assert fresh_service.stats.memlog_breaches == 0


# ---------------------------------------------------------------------------
# Degradation: MIXY falls back to pure qualifier inference
# ---------------------------------------------------------------------------


MIXY_PROGRAM = """
void sysutil_free(int *p) {
  if (p == 0) { return; }
  *p = 0;
}
void helper(int *p, int flag) MIX(symbolic) {
  if (flag) { *p = 1; }
  sysutil_free(p);
}
int main(void) {
  int x;
  helper(&x, 1);
  helper(0, 0);
  return 0;
}
"""


class TestMixyDegradation:
    def test_deadline_breach_falls_back_to_quals(self):
        config = MixyConfig(budget=Budget(deadline=0.0))
        mixy = Mixy(MIXY_PROGRAM, config)
        warnings = mixy.run()  # must terminate, not raise
        assert mixy.stats["budget_fallbacks"] >= 1
        assert mixy.executor.stats["budget_breaches"] >= 1
        # The breach is visible to the caller as a symbolic warning…
        assert any("resource budget exceeded" in str(w) for w in warnings)
        # …and the offending function was still analyzed (pure inference).
        assert "helper" in mixy.qual.constrained_functions

    def test_ungoverned_run_unchanged(self):
        baseline = Mixy(MIXY_PROGRAM)
        baseline_warnings = baseline.run()
        governed = Mixy(MIXY_PROGRAM, MixyConfig(budget=Budget(deadline=3600.0)))
        governed_warnings = governed.run()
        assert sorted(map(str, governed_warnings)) == sorted(
            map(str, baseline_warnings)
        )
        assert governed.stats["budget_fallbacks"] == 0

    def test_path_budget_breach_terminates(self):
        config = MixyConfig(budget=Budget(max_paths=1))
        mixy = Mixy(MIXY_PROGRAM, config)
        mixy.run()
        assert mixy.stats["budget_fallbacks"] >= 1

    def test_breached_block_is_not_cached(self):
        config = MixyConfig(budget=Budget(deadline=0.0))
        mixy = Mixy(MIXY_PROGRAM, config)
        mixy.run()
        assert not any(key[0] == "helper" for key in mixy._cache)

    @pytest.mark.parametrize("kind", FaultInjector.KINDS)
    def test_injected_faults_never_escape(self, kind, fresh_service, tmp_path):
        fresh_service.fault_injector = FaultInjector(seed=3, rate=0.4, kind=kind)
        mixy = Mixy(MIXY_PROGRAM, MixyConfig(crash_dir=str(tmp_path)))
        warnings = mixy.run()  # every degradation path is handled
        assert isinstance(warnings, list)


# ---------------------------------------------------------------------------
# E14: the wall-clock contract under load
# ---------------------------------------------------------------------------

#: With ``--deadline D`` a governed run ends within ``2 * D``.
DEADLINE = 0.05


def _fork_k(k: int, soundness: SoundnessMode, budget):
    """2^k forked paths: seconds of work ungoverned."""
    source = "{s " + " + ".join(f"(if p{i} then 1 else 0)" for i in range(k)) + " s}"
    config = MixConfig(
        sym=SymConfig(if_strategy=IfStrategy.FORK),
        soundness=soundness,
        budget=budget,
    )
    return analyze_source(
        source, env=TypeEnv({f"p{i}": BOOL for i in range(k)}), config=config
    )


def _timed(workload):
    """Run ``workload`` on a fresh service; return (result, stats, secs)."""
    service = SolverService()
    previous = smt.set_service(service)
    started = time.perf_counter()
    try:
        result = workload()
    finally:
        elapsed = time.perf_counter() - started
        smt.set_service(previous)
    return result, service.stats, elapsed


def _fully_annotated_vsftpd(budget=None):
    mixy = Mixy(
        mini_vsftpd(annotation_subsets()[-1]), MixyConfig(budget=budget)
    )
    return mixy, mixy.run()


class TestDeadlineContract:
    """The governed analyses terminate within twice their deadline (plus
    the fixed cost of parsing and report assembly) with a conservative
    verdict: a ``BUDGET`` rejection in SOUND mode, a truncation warning
    in GOOD_ENOUGH, never a hang or a silently wrong acceptance."""

    # 2^10 paths take a few times DEADLINE ungoverned, 2^12 tens of times;
    # 2^8 finishes inside it, so it cannot exercise the contract.
    @pytest.mark.parametrize("k", [10, 12])
    @pytest.mark.parametrize(
        "soundness", [SoundnessMode.SOUND, SoundnessMode.GOOD_ENOUGH]
    )
    def test_fork_terminates_within_twice_deadline(self, k, soundness):
        ungoverned, _, _ = _timed(lambda: _fork_k(k, soundness, None))
        assert ungoverned.ok  # the program itself is fine

        report, stats, elapsed = _timed(
            lambda: _fork_k(k, soundness, Budget(deadline=DEADLINE))
        )
        assert elapsed <= 2 * DEADLINE, (
            f"fork k={k} took {elapsed:.3f}s under a {DEADLINE}s deadline"
        )
        if soundness is SoundnessMode.SOUND:
            assert not report.ok
            assert any(d.kind is ErrKind.BUDGET for d in report.diagnostics)
        else:
            assert report.warnings or any(
                d.kind is ErrKind.BUDGET for d in report.diagnostics
            )
        assert stats.deadline_breaches >= 1

    def test_fork_with_query_timeout_still_converges(self):
        report, _, elapsed = _timed(
            lambda: _fork_k(
                8,
                SoundnessMode.SOUND,
                Budget(deadline=DEADLINE, query_timeout=0.01),
            )
        )
        assert elapsed <= 2 * DEADLINE
        assert not report.ok

    def test_exhaustiveness_check_cut_by_budget_reports_the_breach(self):
        """Every path completes, but the budget leaves the final validity
        query undecided: the rejection names the breach, not a coverage
        gap the paths do not have."""
        report, _, _ = _timed(
            lambda: _fork_k(
                2, SoundnessMode.SOUND, Budget(query_timeout=1e-9)
            )
        )
        assert not report.ok
        assert [d.kind for d in report.diagnostics] == [ErrKind.BUDGET]
        assert "exhaustiveness check was cut short" in str(
            report.diagnostics[0]
        )

    def test_vsftpd_degrades_with_fallbacks(self):
        """A deadline far below mini-vsftpd's ungoverned runtime: the
        driver falls back to pure qualifier inference per breached block.
        That inference is deliberately ungoverned (it *is* the fallback),
        so the bound here is an absolute one, not 2 x deadline."""
        (mixy, warnings), stats, elapsed = _timed(
            lambda: _fully_annotated_vsftpd(Budget(deadline=0.002))
        )
        assert elapsed <= 2.0
        assert mixy.stats["budget_fallbacks"] >= 1
        assert stats.deadline_breaches >= 1
        # The breach surfaces to the caller rather than vanishing.
        assert any("resource budget exceeded" in str(w) for w in warnings)

    def test_vsftpd_generous_deadline_is_invisible(self):
        (_, governed), governed_stats, _ = _timed(
            lambda: _fully_annotated_vsftpd(Budget(deadline=3600.0))
        )
        (_, baseline), _, _ = _timed(_fully_annotated_vsftpd)
        assert sorted(map(str, governed)) == sorted(map(str, baseline))
        assert governed_stats.deadline_breaches == 0


# ---------------------------------------------------------------------------
# Per-query timeouts reach the DPLL(T) core
# ---------------------------------------------------------------------------


class TestQueryTimeout:
    def test_expired_deadline_returns_unknown_without_solving(self, fresh_service):
        x = smt.var("x", smt.INT)
        with fresh_service.governed(Budget(deadline=0.0).start()):
            verdict = fresh_service.check_sat(
                [smt.gt(x, smt.int_const(0)), smt.lt(x, smt.int_const(10))]
            )
        assert verdict is SatResult.UNKNOWN
        assert fresh_service.stats.deadline_breaches == 1
        assert fresh_service.stats.full_solves == 0

    def test_syntactic_tier_still_answers_after_deadline(self, fresh_service):
        # Cheap verdicts keep flowing after the deadline: degradation
        # never makes trivially-decidable queries undecided.
        with fresh_service.governed(Budget(deadline=0.0).start()):
            assert fresh_service.check_sat([smt.false()]) is SatResult.UNSAT
            assert fresh_service.check_sat([]) is SatResult.SAT

    def test_timeout_unknown_is_never_cached(self, fresh_service):
        x = smt.var("x", smt.INT)
        formula = smt.gt(x, smt.int_const(0))
        with fresh_service.governed(Budget(deadline=0.0).start()):
            assert fresh_service.check_sat([formula]) is SatResult.UNKNOWN
        # Outside the governed scope the same query resolves for real.
        assert fresh_service.check_sat([formula]) is SatResult.SAT


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestStatsSurface:
    def test_breach_counters_in_stats_table(self, fresh_service):
        analyze_source(FORK_SOURCE, env=FORK_ENV, config=good_enough(deadline=0.0))
        table = fresh_service.stats.format_table()
        for counter in (
            "query_timeouts",
            "deadline_breaches",
            "path_budget_breaches",
            "memlog_breaches",
            "injected_faults",
        ):
            assert counter in table
        assert fresh_service.stats.as_dict()["deadline_breaches"] >= 1


class TestCliFlags:
    def test_mix_budget_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.mix"
        path.write_text(FORK_SOURCE)
        code = main(
            [
                "mix",
                str(path),
                "--env",
                "p:bool,q:bool",
                "--deadline",
                "0",
                "--solver-stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # conservative rejection, not a crash
        assert "deadline_breaches" in out

    def test_mix_max_paths_flag_good_enough(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.mix"
        path.write_text(FORK_SOURCE)
        code = main(
            [
                "mix",
                str(path),
                "--env",
                "p:bool,q:bool",
                "--good-enough",
                "--max-paths",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted: int" in out
        assert "path budget" in out  # the truncation warning is printed

    def test_mixy_budget_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.c"
        path.write_text(MIXY_PROGRAM)
        code = main(["mixy", str(path), "--deadline", "0", "--solver-stats"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # terminated with a verdict either way
        assert "deadline_breaches" in out

    def test_query_timeout_flag_parses(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "p.mix"
        path.write_text("{s 1 + 1 s}")
        assert main(["mix", str(path), "--query-timeout-ms", "5000"]) == 0
