"""Trust ring 3: per-block crash containment and the repro shrinker.

An unexpected exception inside a typed/symbolic block's analysis — a
bug of ours, or an injected solver crash — must degrade that one block
(exactly like a budget breach), bump ``blocks_contained``, and leave a
minimized repro in the crash directory.  It must never take down the
whole analysis or the CLI.
"""

import json
import os

import pytest

from repro import smt
from repro.core import MixConfig, analyze_source
from repro.core.mix import Mix
from repro.crash import record_crash
from repro.lang.ast import BinOp, BoolLit, IntLit, Var
from repro.lang.parser import parse_type
from repro.mixy import Mixy, MixyConfig
from repro.mixy.symexec import CErrKind, CSymExecutor
from repro.shrink import ProbeBudget, node_count, shrink_c_program, shrink_expr
from repro.smt.service import FaultInjector, InjectedCrash, SolverService
from repro.typecheck.types import TypeEnv


@pytest.fixture(autouse=True)
def fresh_service():
    saved = smt.get_service()
    smt.set_service(SolverService())
    yield
    smt.set_service(saved)


class TestMixContainment:
    SOURCE = "let x = 5 in {s if x < 3 then 1 else 2 s} + 1"

    def _crash_explore(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise ZeroDivisionError("synthetic analysis crash")

        monkeypatch.setattr(Mix, "_explore", boom)

    def test_crash_degrades_to_type_checker(self, monkeypatch, tmp_path):
        self._crash_explore(monkeypatch)
        report = analyze_source(
            self.SOURCE, config=MixConfig(crash_dir=str(tmp_path))
        )
        # The block degraded to the type checker, which accepts it.
        assert report.ok
        assert any("crashed" in w for w in report.warnings)
        assert smt.get_service().stats.blocks_contained == 1

    def test_crash_report_written_and_shrunk(self, monkeypatch, tmp_path):
        self._crash_explore(monkeypatch)
        analyze_source(self.SOURCE, config=MixConfig(crash_dir=str(tmp_path)))
        (name,) = os.listdir(tmp_path)
        report = json.loads((tmp_path / name).read_text())
        assert report["exception_type"] == "ZeroDivisionError"
        assert report["phase"] == "mix:symbolic-block"
        assert report["source"]
        # The probe re-crashes on any symbolic block, so the shrunk
        # repro is no larger than the original block body.
        assert len(report["shrunk_source"]) <= len(report["source"])

    def test_containment_can_be_disabled(self, monkeypatch, tmp_path):
        self._crash_explore(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            analyze_source(
                self.SOURCE,
                config=MixConfig(
                    crash_dir=str(tmp_path), contain_crashes=False
                ),
            )

    def test_analysis_findings_are_not_contained(self, tmp_path):
        # A genuine rejection must surface as a diagnostic, not a crash.
        report = analyze_source(
            "{s 1 + true s}", config=MixConfig(crash_dir=str(tmp_path))
        )
        assert not report.ok
        assert smt.get_service().stats.blocks_contained == 0
        assert not os.listdir(tmp_path)


class TestMixyContainment:
    SOURCE = """
    int *gp;
    void bad(int *p) MIX(symbolic) { *p = 1; }
    void main() { bad(gp); }
    """

    def _crash_resolver(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise ZeroDivisionError("synthetic analysis crash")

        monkeypatch.setattr(CSymExecutor, "_resolve_pointer", boom)

    def test_crash_degrades_to_qualifier_inference(self, monkeypatch, tmp_path):
        self._crash_resolver(monkeypatch)
        mixy = Mixy(self.SOURCE, MixyConfig(crash_dir=str(tmp_path)))
        warnings = mixy.run()
        assert any(w.kind is CErrKind.CRASH for w in mixy.executor.warnings)
        assert smt.get_service().stats.blocks_contained >= 1
        assert os.listdir(tmp_path)
        # The run terminated with an answer despite the crash.
        assert isinstance(warnings, list)

    def test_crash_report_content(self, monkeypatch, tmp_path):
        self._crash_resolver(monkeypatch)
        Mixy(self.SOURCE, MixyConfig(crash_dir=str(tmp_path))).run()
        (name,) = os.listdir(tmp_path)
        report = json.loads((tmp_path / name).read_text())
        assert report["exception_type"] == "ZeroDivisionError"
        assert report["phase"].startswith("mixy:symbolic-block:")
        assert "MIX(symbolic)" in report["source"]

    def test_injected_crash_fault_contained(self, tmp_path):
        service = SolverService()
        service.fault_injector = FaultInjector(faults={1: FaultInjector.CRASH})
        smt.set_service(service)
        source = """
        void ok(int *p) MIX(symbolic) { if (p != NULL) { *p = 1; } }
        void main() { ok(NULL); }
        """
        mixy = Mixy(source, MixyConfig(crash_dir=str(tmp_path)))
        mixy.run()
        assert service.stats.blocks_contained >= 1
        (name,) = os.listdir(tmp_path)
        report = json.loads((tmp_path / name).read_text())
        assert report["exception_type"] == "InjectedCrash"
        assert report["fault_injection"] is not None

    def test_containment_can_be_disabled(self, monkeypatch, tmp_path):
        self._crash_resolver(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            Mixy(
                self.SOURCE,
                MixyConfig(crash_dir=str(tmp_path), contain_crashes=False),
            ).run()


class TestCli:
    GUARDED = """
    void ok(int *p) MIX(symbolic) { if (p != NULL) { *p = 1; } }
    void main() { ok(NULL); }
    """

    def test_injected_crash_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "guarded.c"
        source.write_text(self.GUARDED)
        crash_dir = tmp_path / "crashes"
        code = main(
            [
                "mixy",
                str(source),
                "--inject-fault",
                "1:crash",
                "--crash-dir",
                str(crash_dir),
            ]
        )
        assert code == 0
        assert os.listdir(crash_dir)
        out = capsys.readouterr().out
        assert "crash contained" in out

    def test_clean_run_unaffected(self, tmp_path):
        from repro.cli import main

        source = tmp_path / "guarded.c"
        source.write_text(self.GUARDED)
        assert main(["mixy", str(source)]) == 0

    def test_bad_inject_fault_spec_is_usage_error(self, tmp_path):
        from repro.cli import main

        source = tmp_path / "guarded.c"
        source.write_text(self.GUARDED)
        assert main(["mixy", str(source), "--inject-fault", "nope"]) == 2

    @pytest.mark.parametrize("spec", ["0:crash", "-1:timeout"])
    def test_fault_position_below_one_is_usage_error(self, tmp_path, capsys, spec):
        # Queries count from 1: such a fault would never fire, and the
        # run would pass for a faulted one.
        from repro.cli import main

        source = tmp_path / "guarded.c"
        source.write_text(self.GUARDED)
        assert main(["mixy", str(source), f"--inject-fault={spec}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "count queries from 1" in err


class TestShrinker:
    def test_shrinks_to_the_crashing_node(self):
        # Crash requires the variable "bomb" somewhere in the tree.
        expr = BinOp("+", BinOp("*", Var("bomb"), IntLit(2)), IntLit(3))

        def crashes(candidate):
            return "bomb" in repr(candidate)

        shrunk = shrink_expr(expr, crashes)
        assert shrunk == Var("bomb")

    def test_unreproducible_crash_keeps_original(self):
        expr = BinOp("+", IntLit(1), IntLit(2))
        assert shrink_expr(expr, lambda _c: False) == expr

    def test_probe_exceptions_do_not_escape(self):
        expr = BinOp("+", Var("bomb"), IntLit(1))
        calls = {"n": 0}

        def crashes(candidate):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("probe blew up")
            return True

        shrunk = shrink_expr(expr, crashes)  # must not raise
        assert node_count(shrunk) <= node_count(expr)

    def test_probe_budget_caps_probes(self):
        budget = ProbeBudget(max_probes=3, max_seconds=60.0)
        assert [budget.take() for _ in range(5)] == [
            True,
            True,
            True,
            False,
            False,
        ]

    def test_c_program_shrinks_to_crashing_function(self):
        from repro.mixy.c.parser import parse_program

        program = parse_program(
            """
            int *gp;
            void helper(int x) { }
            void bad(int *p) MIX(symbolic) { *p = 1; if (p) { *p = 2; } }
            void main() { helper(1); bad(gp); }
            """
        )

        def crashes(candidate):
            bad = candidate.functions.get("bad")
            return bad is not None and bad.body is not None and bad.body.stmts

        shrunk = shrink_c_program(program, crashes)
        assert "bad" in shrunk.functions
        # The irrelevant declarations and statements were stripped.
        assert "helper" not in shrunk.functions
        assert len(shrunk.functions["bad"].body.stmts) == 1


class TestRecordCrash:
    def test_content_addressed(self, tmp_path):
        error = ValueError("boom")
        p1 = record_crash(error, "phase", "src", "src", str(tmp_path))
        p2 = record_crash(error, "phase", "src", "src", str(tmp_path))
        assert p1 == p2
        assert len(os.listdir(tmp_path)) == 1

    def test_different_sources_get_different_files(self, tmp_path):
        error = ValueError("boom")
        p1 = record_crash(error, "phase", "src-a", "src-a", str(tmp_path))
        p2 = record_crash(error, "phase", "src-b", "src-b", str(tmp_path))
        assert p1 != p2

    def test_unwritable_directory_swallowed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        path = record_crash(ValueError("x"), "phase", "s", "s", str(target))
        assert path is None
