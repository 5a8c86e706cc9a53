"""Tests for the DART-style concolic driver."""

import random

import pytest

from repro.lang import parse, run
from repro.lang.interp import RuntimeTypeError
from repro.symexec.concolic import ConcolicDriver
from repro.typecheck.types import BOOL, INT, STR, RefType


def explore(source, inputs, **kwargs):
    driver = ConcolicDriver(parse(source), inputs, **kwargs)
    return driver.explore()


class TestPathEnumeration:
    def test_straightline_is_one_run(self):
        report = explore("x + 1", {"x": INT})
        assert len(report.runs) == 1 and report.paths_covered == 1
        assert report.exhausted

    def test_two_branches_two_paths(self):
        report = explore("if x < 0 then 1 else 2", {"x": INT})
        assert report.paths_covered == 2
        assert report.exhausted

    def test_nested_branches_enumerate(self):
        source = """
        if x < 0 then (if p then 1 else 2)
        else (if x = 0 then 3 else 4)
        """
        report = explore(source, {"x": INT, "p": BOOL})
        assert report.paths_covered == 4

    def test_deep_guard_found(self):
        """The classic DART pitch: random testing almost never hits
        x = 42; concolic derives it from the branch condition."""
        source = "if x = 42 then (if p then 1 else 2) else 0"
        report = explore(source, {"x": INT, "p": BOOL})
        assert report.paths_covered == 3  # else-branch has no nested split
        assert any(r.inputs["x"] == 42 for r in report.runs)

    def test_loop_paths(self):
        source = "let r = ref 0 in while !r < x do r := !r + 1 done; !r"
        report = explore(source, {"x": INT}, max_runs=6)
        # Different x values drive different iteration counts.
        iteration_counts = {len(r.decisions) for r in report.runs}
        assert len(iteration_counts) >= 2

    def test_run_budget_respected(self):
        source = "if x = 1 then 1 else if x = 2 then 2 else if x = 3 then 3 else 0"
        report = explore(source, {"x": INT}, max_runs=2)
        assert len(report.runs) == 2


class TestErrorFinding:
    def test_finds_guarded_type_error(self):
        source = 'if x = 7 then 1 + true else 0'
        report = explore(source, {"x": INT})
        assert report.failures
        inputs, message = report.failures[0]
        assert inputs["x"] == 7
        # The found inputs really do crash the concrete program.
        with pytest.raises(RuntimeTypeError):
            run(parse(source.replace("1 + true", "1 + true")), inputs)

    def test_clean_program_has_no_failures(self):
        report = explore("if x < 0 then 0 - x else x", {"x": INT})
        assert not report.failures

    def test_failure_behind_two_guards(self):
        source = "if 10 < x then (if x < 12 then 1 + true else 1) else 2"
        report = explore(source, {"x": INT})
        assert report.failures
        (inputs, _message) = report.failures[0]
        assert inputs["x"] == 11

    def test_division_guard(self):
        """Division introduces definition-bound helpers; branch decisions
        over them still resolve via the solver."""
        source = "if x / 2 = 3 then 1 + true else 0"
        report = explore(source, {"x": INT})
        assert report.failures
        inputs = report.failures[0][0]
        assert inputs["x"] // 2 == 3


class TestRunsAgreeWithInterpreter:
    def test_directed_value_matches_concrete(self):
        source = "if p then x + 1 else x - 1"
        driver = ConcolicDriver(parse(source), {"x": INT, "p": BOOL})
        report = driver.explore()
        for r in report.runs:
            concrete = run(parse(source), r.inputs).value
            from repro.symexec.valuation import Valuation, check_outcome_abstracts

            valuation = Valuation.from_inputs(driver._sym_env, r.inputs)
            assert check_outcome_abstracts(r.outcome, valuation, concrete)


class TestValidation:
    def test_ref_inputs_rejected(self):
        with pytest.raises(ValueError):
            ConcolicDriver(parse("!r"), {"r": RefType(INT)})

    def test_string_inputs_allowed(self):
        report = explore('if s = "" then 1 else 2', {"s": STR})
        assert report.paths_covered >= 1


def _runs_to_find(magic: int) -> int:
    """Runs the concolic driver needs to hit the bug behind ``x = magic``."""
    report = explore(f"if x = {magic} then 1 + true else 0", {"x": INT})
    assert report.failures and report.failures[0][0]["x"] == magic
    return len(report.runs)


class TestConcolicVersusRandom:
    """E12: random sampling almost never reaches a deep equality guard;
    concolic exploration reaches it in a handful of runs."""

    @pytest.mark.parametrize("magic", [7, 42, 4242, 123_456, 987_654])
    def test_concolic_finds_the_guarded_bug_quickly(self, magic):
        assert _runs_to_find(magic) <= 3

    def test_random_testing_never_hits_it(self):
        rng = random.Random(7)
        program = parse("if x = 987654 then 1 + true else 0")
        hits = 0
        for _ in range(2_000):
            try:
                run(program, {"x": rng.randint(-(10**6), 10**6)})
            except RuntimeTypeError:
                hits += 1
        assert hits == 0
