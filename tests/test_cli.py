"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.cli import main


@pytest.fixture
def mix_file(tmp_path):
    def write(source):
        path = tmp_path / "program.mix"
        path.write_text(source)
        return str(path)

    return write


@pytest.fixture
def c_file(tmp_path):
    def write(source):
        path = tmp_path / "program.c"
        path.write_text(source)
        return str(path)

    return write


class TestMixCommand:
    def test_accepting_program(self, mix_file, capsys):
        assert main(["mix", mix_file("{s 1 + 1 s}")]) == 0
        assert "accepted: int" in capsys.readouterr().out

    def test_rejecting_program(self, mix_file, capsys):
        assert main(["mix", mix_file('{s 1 + true s}')]) == 1
        assert "rejected" in capsys.readouterr().out

    def test_env_option(self, mix_file, capsys):
        code = main(["mix", mix_file("{s x + 1 s}"), "--env", "x:int"])
        assert code == 0

    def test_env_with_ref_type(self, mix_file):
        assert main(["mix", mix_file("{s !r + 1 s}"), "--env", "r:int ref"]) == 0

    def test_bad_env_spec(self, mix_file, capsys):
        assert main(["mix", mix_file("1"), "--env", "nonsense"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, mix_file, capsys):
        assert main(["mix", mix_file("let = ")]) == 2

    def test_missing_file(self, capsys):
        assert main(["mix", "/definitely/not/here.mix"]) == 2

    def test_symbolic_entry(self, mix_file):
        assert main(["mix", mix_file("{t 1 t}"), "--entry", "symbolic"]) == 0

    def test_defer_flag(self, mix_file):
        code = main(
            ["mix", mix_file("{s if p then 1 else 2 s}"), "--env", "p:bool", "--defer"]
        )
        assert code == 0

    def test_good_enough_flag(self, mix_file):
        loop = "{s let i = ref 0 in while !i < n do i := !i + 1 done; !i s}"
        strict = main(["mix", mix_file(loop), "--env", "n:int", "--max-unroll", "4"])
        relaxed = main(
            [
                "mix",
                mix_file(loop),
                "--env",
                "n:int",
                "--max-unroll",
                "4",
                "--good-enough",
            ]
        )
        assert strict == 1 and relaxed == 0

    def test_auto_refine(self, mix_file, capsys):
        code = main(["mix", mix_file('if true then 5 else "foo" + 3'), "--auto-refine"])
        out = capsys.readouterr().out
        assert code == 0
        assert "refinement step 1" in out and "annotated program" in out


class TestMixyCommand:
    BUGGY = """
    void free(int *nonnull x);
    int main(void) { int *x = NULL; free(x); return 0; }
    """
    CLEAN = """
    void free(int *nonnull x);
    int main(void) { free((int *) malloc(sizeof(int))); return 0; }
    """

    def test_warning_exit_code(self, c_file, capsys):
        assert main(["mixy", c_file(self.BUGGY)]) == 1
        out = capsys.readouterr().out
        assert "NULL" in out and "warning(s)" in out

    def test_clean_exit_code(self, c_file, capsys):
        assert main(["mixy", c_file(self.CLEAN)]) == 0
        assert "0 warning(s)" in capsys.readouterr().out

    def test_symbolic_entry(self, c_file):
        assert main(["mixy", c_file(self.BUGGY), "--entry", "symbolic"]) == 1

    def test_strict_deref(self, c_file):
        source = "int main(void) { int *p = NULL; return *p; }"
        assert main(["mixy", c_file(source)]) == 0  # no annotation: silent
        assert main(["mixy", c_file(source), "--strict-deref"]) == 1

    def test_parse_error(self, c_file, capsys):
        assert main(["mixy", c_file("int main( {")]) == 2

    def test_non_ascii_digit_is_a_parse_error(self, tmp_path, capsys):
        # An int literal starts only on an ASCII digit: "²" is a parse
        # error (exit 2), not an int() crash.
        path = tmp_path / "digit.c"
        path.write_text("int main(void) { return ²; }\n", encoding="utf-8")
        assert main(["mixy", str(path)]) == 2
        assert "unexpected character '²' at line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            ('"char" *q;\n', "expected a type, got '\"char\"' at line 1"),
            (
                'void g(void) MIX("typed");\n',
                "MIX annotation must be typed or symbolic, got '\"typed\"'",
            ),
        ],
    )
    def test_string_literal_is_not_a_type_or_annotation(
        self, tmp_path, capsys, source, message
    ):
        # A string literal is neither a type name nor a MIX annotation.
        path = tmp_path / "literal.c"
        path.write_text(source + "int main(void) { return 0; }\n")
        assert main(["mixy", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_entry_function(self, c_file):
        assert main(["mixy", c_file("int helper(void) { return 0; }")]) == 2


class TestArgumentValidation:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["mixy", "prove"])
    def test_jobs_below_one_exits_2(self, command, jobs, c_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, c_file("int main(void) { return 0; }"), "--jobs", jobs])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs" in err and "must be >= 1" in err

    @pytest.mark.parametrize(
        "command, option, value",
        [("mix", "jobs", "2"), ("mix", "profile", "5"), ("mixy", "profile", "5")],
    )
    def test_retired_options_exit_2(self, command, option, value, tmp_path, capsys):
        """MIX has no parallel path, and neither subcommand profiles:
        ``python -m cProfile`` covers serial runs and ``--trace`` covers
        workers."""
        path = tmp_path / "program"
        path.write_text("{s 1 s}" if command == "mix" else "int main(void) { return 0; }")
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), f"--{option}", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStoreCounters:
    """With ``--store``, a one-shot run prints the run's store-counter
    delta on stderr (the dict a daemon reply carries in
    ``served.store``); stdout stays the analysis result alone."""

    def _run(self, tmp_path, *args):
        env = dict(os.environ)
        # Witness validation stands the block memo down.
        env.pop("REPRO_VALIDATE_WITNESSES", None)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args,
             "--store", str(tmp_path / "store")],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )

    def _counters(self, proc) -> dict:
        lines = [
            line for line in proc.stderr.splitlines()
            if line.startswith("store: ")
        ]
        assert len(lines) == 1, proc.stderr
        return json.loads(lines[0][len("store: "):])

    @pytest.mark.parametrize(
        "lang,source,args,hits",
        [
            ("mix", "{s if 0 < x then x + 1 else 0 - x s}",
             ["--env", "x:int"], "mix_hits"),
            ("mixy", "STAIRCASE", [], "mixy_hits"),
        ],
    )
    def test_warm_run_prints_memo_hits(self, tmp_path, lang, source, args, hits):
        if source == "STAIRCASE":
            from repro.mixy.corpus_vsftpd import parallel_vsftpd

            source = parallel_vsftpd(depth=1)
        path = tmp_path / ("program.c" if lang == "mixy" else "program.mix")
        path.write_text(source)
        cold = self._run(tmp_path, lang, str(path), *args)
        warm = self._run(tmp_path, lang, str(path), *args)
        assert cold.returncode == warm.returncode != 2, cold.stderr
        assert cold.stdout == warm.stdout
        assert "store:" not in warm.stdout
        assert self._counters(cold).get(hits, 0) == 0
        assert self._counters(warm).get(hits, 0) > 0
