"""Language-level property proving: ``symbolic()`` / ``assume`` /
``check`` in both frontends, and the ``repro prove`` classifier.

The contract under test (see ``repro.prove``):

- verdicts follow the lattice PROVED / COUNTEREXAMPLE / UNCONFIRMED /
  BUDGET / ERROR, and a COUNTEREXAMPLE is *demonstrated*: its model,
  replayed through the concrete interpreter, concretely fails the
  property (counterexample fidelity);
- verdict lines are byte-identical across ``--jobs 1`` / ``--jobs 4``,
  across daemon and one-shot runs, and across ``PYTHONHASHSEED``
  values;
- suite exit codes: 0 all proved, 1 any counterexample, 2 any error
  (no counterexample), 3 incomplete (budget/unconfirmed only).
"""

import glob
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.lang.interp import CheckFailure, Interpreter
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.mixy.c.interp import CCheckFailure, CInterpreter
from repro.mixy.c.parser import parse_program
from repro.mixy.c.pretty import pretty_program
from repro.prove import (
    BUDGET,
    COUNTEREXAMPLE,
    ERROR,
    EXIT_COUNTEREXAMPLE,
    EXIT_ERROR,
    EXIT_INCOMPLETE,
    EXIT_PROVED,
    PROVED,
    PropertyResult,
    exit_code,
    language_for,
    prove_files,
    prove_source,
)

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])
EXAMPLES = sorted(
    glob.glob(
        str(pathlib.Path(__file__).resolve().parents[1] / "examples/properties/*")
    )
)

ML_FALSIFIABLE = "let x = symbolic() in check(x < 10)"
ML_VALID = "let x = symbolic() in let _ = assume(x < 5) in check(x < 10)"
ML_BACKSOLVE = (
    "let x = symbolic() in let y = symbolic() in check(not (x + y = 100))"
)
ML_VACUOUS = "let x = symbolic() in let _ = assume(x < x) in check(1 = 2)"

C_FALSIFIABLE = """
int main() {
  int x;
  x = symbolic();
  check(x < 10);
  return 0;
}
"""
C_VALID = """
int main() {
  int x;
  x = symbolic();
  assume(x < 5);
  check(x < 10);
  return 0;
}
"""


def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _model_feed(result: PropertyResult) -> list[int]:
    """The counterexample model as a ``symbolic()`` feed, in program
    order (inputs are named ``symbolic!N`` with N ascending in draw
    order)."""
    sym = [
        (int(name.rsplit("!", 1)[1]), int(value))
        for name, value in result.inputs
        if name.startswith("symbolic!")
    ]
    return [value for _, value in sorted(sym)]


# ---------------------------------------------------------------------------
# The constructs themselves
# ---------------------------------------------------------------------------


class TestConstructs:
    def test_ml_parse_pretty_round_trip(self):
        source = "let x = symbolic() in let _ = assume(x < 5) in check(x < 10)"
        assert pretty(parse(pretty(parse(source)))) == pretty(parse(source))

    def test_ml_interp_draws_the_feed_in_order(self):
        program = parse("let x = symbolic() in let y = symbolic() in x - y")
        interp = Interpreter(symbolic_inputs=[7, 2])
        assert interp.eval(program, {}) == 5

    def test_ml_interp_check_failure(self):
        program = parse("let x = symbolic() in check(x < 10)")
        with pytest.raises(CheckFailure):
            Interpreter(symbolic_inputs=[10]).eval(program, {})

    def test_c_parse_pretty_round_trip(self):
        once = pretty_program(parse_program(C_VALID))
        assert pretty_program(parse_program(once)) == once

    def test_c_interp_check_failure(self):
        program = parse_program(C_FALSIFIABLE)
        with pytest.raises(CCheckFailure):
            CInterpreter(program, symbolic_inputs=[10]).call("main")

    def test_c_interp_passing_run(self):
        program = parse_program(C_VALID)
        assert CInterpreter(program, symbolic_inputs=[3]).call("main") == 0


# ---------------------------------------------------------------------------
# Verdict classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_ml_valid_is_proved(self):
        assert prove_source("mix", ML_VALID, {}).verdict == PROVED

    def test_ml_falsifiable_is_a_confirmed_counterexample(self):
        result = prove_source("mix", ML_FALSIFIABLE, {})
        assert result.verdict == COUNTEREXAMPLE
        assert result.inputs  # the model is printed

    def test_ml_vacuous_is_proved_with_a_vacuity_note(self):
        result = prove_source("mix", ML_VACUOUS, {})
        assert result.verdict == PROVED
        assert "vacuous" in result.detail

    def test_ml_backwards_solving_finds_the_sum(self):
        result = prove_source("mix", ML_BACKSOLVE, {})
        assert result.verdict == COUNTEREXAMPLE
        assert sum(_model_feed(result)) == 100

    def test_ml_path_budget_is_budget_not_proved(self):
        source = (
            "let x = symbolic() in "
            "let y = if x < 0 then 0 - x else x in check(not (y < 0))"
        )
        assert prove_source("mix", source, {"max_paths": 1}).verdict == BUDGET

    def test_ml_parse_error_is_error(self):
        assert prove_source("mix", "let let", {}).verdict == ERROR

    def test_c_valid_is_proved(self):
        assert prove_source("mixy", C_VALID, {}).verdict == PROVED

    def test_c_falsifiable_is_a_confirmed_counterexample(self):
        result = prove_source("mixy", C_FALSIFIABLE, {})
        assert result.verdict == COUNTEREXAMPLE
        assert result.inputs

    def test_c_loop_bound_is_budget(self):
        source = """
        int main() {
          int n; int i;
          n = symbolic();
          assume(n > 0);
          i = 0;
          while (i < n) { i = i + 1; }
          check(i == n);
          return 0;
        }
        """
        assert prove_source("mixy", source, {}).verdict == BUDGET

    def test_c_parse_error_is_error(self):
        assert prove_source("mixy", "int main( {", {}).verdict == ERROR

    def test_c_missing_entry_is_error(self):
        assert prove_source("mixy", "int f() { return 0; }", {}).verdict == ERROR

    def test_language_by_extension(self):
        assert language_for("p.c") == "mixy"
        assert language_for("p.mix") == "mix"
        assert language_for("p.ml") == "mix"


# ---------------------------------------------------------------------------
# Counterexample fidelity: a reported model concretely fails the check
# ---------------------------------------------------------------------------


class TestCounterexampleFidelity:
    def test_ml_models_concretely_fail_their_property(self):
        for source in (ML_FALSIFIABLE, ML_BACKSOLVE):
            result = prove_source("mix", source, {})
            assert result.verdict == COUNTEREXAMPLE
            with pytest.raises(CheckFailure):
                Interpreter(symbolic_inputs=_model_feed(result)).eval(
                    parse(source), {}
                )

    def test_c_model_concretely_fails_its_property(self):
        result = prove_source("mixy", C_FALSIFIABLE, {})
        assert result.verdict == COUNTEREXAMPLE
        with pytest.raises(CCheckFailure):
            CInterpreter(
                parse_program(C_FALSIFIABLE),
                symbolic_inputs=_model_feed(result),
            ).call("main")

    def test_every_example_counterexample_replays_to_a_failure(self):
        for path in EXAMPLES:
            with open(path) as handle:
                source = handle.read()
            result = prove_source(language_for(path), source, {}, name=path)
            if result.verdict != COUNTEREXAMPLE:
                continue
            feed = _model_feed(result)
            if path.endswith(".c"):
                with pytest.raises(CCheckFailure):
                    CInterpreter(
                        parse_program(source), symbolic_inputs=feed
                    ).call("main")
            else:
                with pytest.raises(CheckFailure):
                    Interpreter(symbolic_inputs=feed).eval(parse(source), {})


# ---------------------------------------------------------------------------
# Suite driver: exit codes, ordering, jobs identity
# ---------------------------------------------------------------------------


class TestSuiteDriver:
    def test_exit_code_lattice(self):
        mk = lambda v: PropertyResult("p", v)
        assert exit_code([mk(PROVED)]) == EXIT_PROVED
        assert exit_code([mk(PROVED), mk(COUNTEREXAMPLE)]) == EXIT_COUNTEREXAMPLE
        assert exit_code([mk(COUNTEREXAMPLE), mk(ERROR)]) == EXIT_COUNTEREXAMPLE
        assert exit_code([mk(PROVED), mk(ERROR)]) == EXIT_ERROR
        assert exit_code([mk(PROVED), mk(BUDGET)]) == EXIT_INCOMPLETE

    def test_examples_suite_lines_and_exit(self):
        lines: list[str] = []
        code = prove_files(EXAMPLES, {}, jobs=1, emit=lines.append)
        assert code == EXIT_COUNTEREXAMPLE  # the suite includes refutations
        assert len(lines) == len(EXAMPLES) + 1  # one per file + summary
        # Emitted in sorted-file order regardless of input order.
        assert [line.split(": ", 1)[1].split(" ")[0] for line in lines[:-1]] == EXAMPLES
        reversed_lines: list[str] = []
        prove_files(list(reversed(EXAMPLES)), {}, jobs=1, emit=reversed_lines.append)
        assert reversed_lines == lines

    def test_jobs4_output_is_identical_to_jobs1(self):
        serial: list[str] = []
        parallel: list[str] = []
        prove_files(EXAMPLES, {}, jobs=1, emit=serial.append)
        prove_files(EXAMPLES, {}, jobs=4, emit=parallel.append)
        assert parallel == serial

    def test_unreadable_file_is_an_error(self):
        lines: list[str] = []
        code = prove_files(["/nonexistent/property.mix"], {}, emit=lines.append)
        assert code == EXIT_ERROR
        assert lines[0].startswith("ERROR: ")


# ---------------------------------------------------------------------------
# Cross-process identity: CLI, seeds, daemon
# ---------------------------------------------------------------------------


def _run_cli(args, tmp_path, **env_extra):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(**env_extra),
        cwd=tmp_path,
        timeout=300,
    )


class TestCrossProcessIdentity:
    def test_prove_cli_exit_codes(self, tmp_path):
        good = tmp_path / "good.mix"
        good.write_text(ML_VALID)
        bad = tmp_path / "bad.mix"
        bad.write_text(ML_FALSIFIABLE)
        assert _run_cli(["prove", str(good)], tmp_path).returncode == EXIT_PROVED
        assert (
            _run_cli(["prove", str(good), str(bad)], tmp_path).returncode
            == EXIT_COUNTEREXAMPLE
        )
        budget = tmp_path / "budget.c"
        budget.write_text(
            "int main() { int n; n = symbolic(); assume(n > 0);\n"
            "  int i; i = 0; while (i < n) { i = i + 1; }\n"
            "  check(i == n); return 0; }\n"
        )
        assert (
            _run_cli(["prove", str(budget)], tmp_path).returncode
            == EXIT_INCOMPLETE
        )

    def test_verdicts_identical_across_hash_seeds(self, tmp_path):
        for name, text in (
            ("bad.mix", ML_BACKSOLVE),
            ("prop.c", C_FALSIFIABLE),
            ("good.mix", ML_VALID),
        ):
            (tmp_path / name).write_text(text)
        args = ["prove", "bad.mix", "prop.c", "good.mix"]
        first = _run_cli(args, tmp_path, PYTHONHASHSEED="1")
        second = _run_cli(args, tmp_path, PYTHONHASHSEED="7")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == EXIT_COUNTEREXAMPLE

    def test_analysis_output_identical_across_hash_seeds(self, tmp_path):
        """The satellite regression for seed-independent rendering: a
        full MIXY analysis (qualifier ids and all) is byte-identical
        under different PYTHONHASHSEED values.  The wall time is in the
        perf summary on stderr, so stdout compares whole."""
        from repro.mixy.corpus import CASES

        path = tmp_path / "case1.c"
        path.write_text(CASES["case1"].source(False))
        args = ["mixy", str(path), "--jobs", "1"]
        first = _run_cli(args, tmp_path, PYTHONHASHSEED="3")
        second = _run_cli(args, tmp_path, PYTHONHASHSEED="91")
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n1 warning(s)\n")
        assert first.returncode == second.returncode
        timing = re.compile(r"^1 warning\(s\); .* solver call\(s\); \d+\.\d+s$")
        for run in (first, second):
            assert timing.match(run.stderr.strip()), run.stderr
            assert "solver call" not in run.stdout


class TestDaemonProve:
    def test_daemon_prove_matches_one_shot(self, tmp_path):
        from repro.serve import request

        bad = tmp_path / "bad.mix"
        bad.write_text(ML_FALSIFIABLE)
        one_shot = _run_cli(["prove", str(bad)], tmp_path)
        assert one_shot.returncode == EXIT_COUNTEREXAMPLE

        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0", "--no-store",
                "--max-requests", "2",
            ],
            cwd=tmp_path, env=_subprocess_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            announce = daemon.stdout.readline()
            assert "listening on tcp:" in announce, announce
            address = announce.rsplit(" ", 1)[-1].strip()
            replies = [
                request(
                    address,
                    {
                        "cmd": "prove",
                        "lang": "mix",
                        "source": ML_FALSIFIABLE,
                        "options": {"name": str(bad)},
                    },
                    timeout=300.0,
                )
                for _ in range(2)
            ]
        finally:
            try:
                daemon.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.communicate()
        for reply in replies:
            assert reply["ok"], reply
            result = reply["result"]
            assert result["verdict"] == COUNTEREXAMPLE
            assert result["exit"] == EXIT_COUNTEREXAMPLE
            # Byte-identical to the one-shot CLI's verdict line.
            assert result["lines"][0] == one_shot.stdout.splitlines()[0]

    def test_client_prove_c_matches_one_shot(self, tmp_path):
        """`repro client mixy FILE --prove` goes through the client's own
        option construction — it must default to the prover's symbolic
        entry, not the analyzer's typed entry (which would skip every
        check in a symbolic()-calling main and report PROVED)."""
        bad = tmp_path / "bad.c"
        bad.write_text(C_FALSIFIABLE)
        one_shot = _run_cli(["prove", str(bad)], tmp_path)
        assert one_shot.returncode == EXIT_COUNTEREXAMPLE

        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0", "--no-store",
                "--max-requests", "1",
            ],
            cwd=tmp_path, env=_subprocess_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            announce = daemon.stdout.readline()
            assert "listening on tcp:" in announce, announce
            address = announce.rsplit(" ", 1)[-1].strip()
            client = _run_cli(
                ["client", "mixy", str(bad), "--prove", "--connect", address],
                tmp_path,
            )
        finally:
            try:
                daemon.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.communicate()
        assert client.returncode == EXIT_COUNTEREXAMPLE, client.stderr
        assert client.stdout.splitlines() == one_shot.stdout.splitlines()[:1]
