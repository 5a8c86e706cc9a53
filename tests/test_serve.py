"""The ``repro serve`` daemon: protocol, determinism, durability.

The contract under test (see ``repro.serve``): ``result`` — exit
status plus diagnostic lines — is bitwise-identical between a cold
request, a warm request, a request after a daemon restart, and a fresh
one-shot CLI run.  The warm cache only ever changes ``served`` (the
timing/counters side channel).  End-to-end tests run the real daemon
as a subprocess over TCP (loopback, port 0) so they exercise the same
path as the CI smoke job, including ``kill -9`` durability.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.mixy.corpus import CASES
from repro.mixy.corpus_vsftpd import parallel_vsftpd
from repro.serve import (
    ClientError,
    ReproDaemon,
    TERMINAL_STATUSES,
    analyze_source,
    request,
    request_with_retry,
)

#: Fast corpus (qualifier inference only — no symbolic blocks).
SOURCE = CASES["case1"].source(False)
#: Corpus whose symbolic blocks are mostly pure, i.e. memoizable —
#: what the warm-hit assertions need.
STAIRCASE = parallel_vsftpd(depth=1)
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


# ---------------------------------------------------------------------------
# analyze_source: the deterministic result contract, in process
# ---------------------------------------------------------------------------


class TestAnalyzeSource:
    def test_mixy_result_shape(self):
        result = analyze_source("mixy", SOURCE, {}).result
        assert result["exit"] == 1
        assert result["lines"][-1].endswith("warning(s)")
        assert any("sysutil_free" in line for line in result["lines"])

    def test_mixy_is_deterministic_across_runs(self):
        first = analyze_source("mixy", SOURCE, {}).result
        second = analyze_source("mixy", SOURCE, {}).result
        assert first == second

    def test_retired_scheduling_options_do_not_change_the_reply(self):
        # Clients written against older daemons may still send one.
        for options in ({}, {"jobs": 2}):
            retired = {**options, "schedule": "portfolio"}
            assert analyze_source("mixy", SOURCE, retired).result == (
                analyze_source("mixy", SOURCE, options).result
            )
        # MIX has no parallel path: a request's ``jobs`` is ignored.
        mix = "{s if x < 5 then x + 1 else (if x < 9 then 1 + true else 0) s}"
        env = {"env": "x:int"}
        assert analyze_source("mix", mix, {**env, "jobs": 2}).result == (
            analyze_source("mix", mix, env).result
        )

    def test_mixy_parse_error_is_exit_2(self):
        result = analyze_source("mixy", "int main( {", {}).result
        assert result["exit"] == 2
        assert result["lines"][0].startswith("error:")

    def test_mix_accept_and_reject(self):
        assert analyze_source("mix", "{s 1 + 1 s}", {}).result == {
            "exit": 0,
            "lines": ["accepted: int"],
        }
        rejected = analyze_source("mix", "{s 1 + true s}", {}).result
        assert rejected["exit"] == 1

    def test_mix_env_and_parse_errors_are_exit_2(self):
        assert analyze_source("mix", "x", {"env": "x-int"}).result["exit"] == 2
        assert analyze_source("mix", "let let", {}).result["exit"] == 2

    def test_unknown_lang_raises(self):
        with pytest.raises(ValueError, match="unknown lang"):
            analyze_source("cobol", "", {})

    def test_budgeted_request_builds_a_budget(self):
        # A generous deadline changes nothing about the result...
        result = analyze_source("mixy", SOURCE, {"deadline": 3600.0}).result
        assert result == analyze_source("mixy", SOURCE, {}).result


class TestCrashDir:
    """A contained block crash writes its repro under the daemon's own
    ``crash_dir`` — never into the daemon's working directory."""

    def test_block_crash_repro_lands_in_the_crash_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        crash_dir = tmp_path / "crashes"
        daemon = ReproDaemon(
            socket_path="unused.sock", store_dir=None,
            pool_size=1, crash_dir=str(crash_dir),
        )
        try:
            response = daemon.handle_line(json.dumps({
                "cmd": "analyze", "lang": "mixy", "source": STAIRCASE,
                "options": {"inject_fault": ["1:crash"]},
            }))
        finally:
            if daemon._pool is not None:
                daemon._pool.close()
        assert response["status"] == "ok", response
        contained = [
            line for line in response["result"]["lines"]
            if "crash contained" in line
        ]
        assert contained
        (name,) = os.listdir(crash_dir)
        assert contained[0].endswith(f"repro at {name}")
        assert not (tmp_path / ".repro-crashes").exists()

    #: Programs whose first solver query is inside a symbolic block.
    CRASHING = {
        "mixy": "void ok(int *p) MIX(symbolic) { if (p != NULL) { *p = 1; } }\n"
                "void main() { ok(NULL); }\n",
        "mix": "let x = 5 in {s if x < 3 then 1 else 2 s} + 1",
    }

    @pytest.mark.parametrize("lang", ["mixy", "mix"])
    def test_crash_line_is_the_same_in_every_crash_dir_and_front_door(
        self, tmp_path, monkeypatch, lang
    ):
        """The warning names the repro by its content-addressed file
        name, so the ``result`` does not depend on ``--crash-dir`` or on
        which front door served the request."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / f"input.{'c' if lang == 'mixy' else 'mix'}"
        path.write_text(self.CRASHING[lang])
        env = _subprocess_env()
        for name in ("REPRO_JOBS", "REPRO_VALIDATE_WITNESSES"):
            env.pop(name, None)
        request_line = json.dumps({
            "cmd": "analyze", "lang": lang, "source": self.CRASHING[lang],
            "options": {"inject_fault": ["1:crash"]},
        })
        results = {}
        for run in (1, 2):
            crash_dir = tmp_path / f"one-shot-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", lang, str(path),
                 "--inject-fault", "1:crash", "--crash-dir", str(crash_dir)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                timeout=300,
            )
            results[crash_dir] = {
                "exit": proc.returncode, "lines": proc.stdout.splitlines(),
            }
            crash_dir = tmp_path / f"pooled-{run}"
            daemon = ReproDaemon(
                socket_path="unused.sock", store_dir=None,
                pool_size=1, crash_dir=str(crash_dir),
            )
            try:
                reply = daemon.handle_line(request_line)
            finally:
                if daemon._pool is not None:
                    daemon._pool.close()
            assert reply["status"] == "ok", reply
            results[crash_dir] = reply["result"]
        first = next(iter(results.values()))
        assert all(result == first for result in results.values()), results
        named = re.findall(r"repro at (crash-[0-9a-f]+\.json)", "\n".join(first["lines"]))
        assert named
        for crash_dir in results:
            assert set(named) <= set(os.listdir(crash_dir)), crash_dir


EXAMPLE_FILES = sorted(
    path
    for pattern in ("**/*.mix", "**/*.c")
    for path in (pathlib.Path(SRC_DIR).parent / "examples").glob(pattern)
)


class TestOneShotIsTheDaemonResult:
    """``repro mix`` / ``repro mixy`` print the daemon's ``result``
    verbatim: a fresh one-shot process's stdout (stderr for exit 2) and
    exit code equal the pooled daemon's reply to the same request, for
    every example program at both entries."""

    def test_every_example_at_both_entries(self, tmp_path, monkeypatch):
        assert EXAMPLE_FILES
        monkeypatch.chdir(tmp_path)
        env = _subprocess_env()
        # The same request: no environment default may change the
        # one-shot run's options.
        for name in ("REPRO_JOBS", "REPRO_VALIDATE_WITNESSES"):
            env.pop(name, None)
        daemon = ReproDaemon(
            socket_path="unused.sock", store_dir=None,
            pool_size=1, crash_dir=str(tmp_path / "crashes"),
        )
        try:
            for path in EXAMPLE_FILES:
                lang = "mixy" if path.suffix == ".c" else "mix"
                for entry in ("typed", "symbolic"):
                    proc = subprocess.run(
                        [sys.executable, "-m", "repro.cli", lang, str(path),
                         "--entry", entry],
                        capture_output=True, text=True, env=env,
                        cwd=tmp_path, timeout=300,
                    )
                    out = proc.stderr if proc.returncode == 2 else proc.stdout
                    one_shot = {
                        "exit": proc.returncode, "lines": out.splitlines(),
                    }
                    request_line = json.dumps({
                        "cmd": "analyze", "lang": lang,
                        "source": path.read_text(),
                        "options": {"entry": entry},
                    })
                    reply = daemon.handle_line(request_line)
                    assert reply["status"] == "ok", (path, entry, reply)
                    assert reply["result"] == one_shot, (path, entry)
        finally:
            if daemon._pool is not None:
                daemon._pool.close()


# ---------------------------------------------------------------------------
# Request handling without sockets
# ---------------------------------------------------------------------------


def _line_daemon() -> ReproDaemon:
    return ReproDaemon(socket_path="unused.sock", store_dir=None)


class TestHandleLine:
    def test_ping(self):
        response = _line_daemon().handle_line('{"cmd": "ping"}')
        assert response["ok"] and response["pong"]

    def test_bad_json_is_an_error_response(self):
        response = _line_daemon().handle_line("{nope")
        assert response["ok"] is False and "bad request" in response["error"]

    def test_non_object_request_is_an_error_response(self):
        response = _line_daemon().handle_line("[1, 2]")
        assert response["ok"] is False

    def test_unknown_cmd(self):
        response = _line_daemon().handle_line('{"cmd": "frobnicate"}')
        assert response["ok"] is False and "unknown cmd" in response["error"]

    def test_analyze_needs_a_source(self):
        response = _line_daemon().handle_line('{"cmd": "analyze"}')
        assert response["ok"] is False and "source" in response["error"]

    def test_analyzer_failures_do_not_kill_the_daemon(self):
        daemon = _line_daemon()
        bad = daemon.handle_line(
            '{"cmd": "analyze", "lang": "cobol", "source": ""}'
        )
        assert bad["ok"] is False and "unknown lang" in bad["error"]
        # The daemon still serves the next request.
        assert daemon.handle_line('{"cmd": "ping"}')["ok"]

    def test_shutdown_stops_the_loop(self):
        daemon = _line_daemon()
        assert daemon.handle_line('{"cmd": "shutdown"}')["bye"]
        assert daemon._stop

    def test_stats_reports_counters(self):
        daemon = _line_daemon()
        daemon.handle_line('{"cmd": "ping"}')
        response = daemon.handle_line('{"cmd": "stats"}')
        assert response["stats"]["requests_served"] == 2
        assert "queries" in response["stats"]["solver"]


# ---------------------------------------------------------------------------
# End to end: the real daemon over TCP
# ---------------------------------------------------------------------------


def _subprocess_env():
    """Environment for daemon / baseline subprocesses.  No hash-seed
    pinning: qualifier-id rendering is seed-independent (per-analyzer
    ordinals), so cross-process bitwise identity holds under any
    PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_daemon(tmp_path, *extra, store="store"):
    """Launch ``repro serve`` on a loopback port; returns (proc, addr)."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--listen", "127.0.0.1:0", "--store", str(tmp_path / store), *extra,
    ]
    env = _subprocess_env()
    proc = subprocess.Popen(
        argv, cwd=tmp_path, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    announce = proc.stdout.readline()
    assert "listening on tcp:" in announce, announce
    return proc, announce.rsplit(" ", 1)[-1].strip()


def _finish(proc) -> str:
    """Collect the daemon's stderr after it exited (or kill it)."""
    try:
        _, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        raise AssertionError(f"daemon did not exit; stderr: {err}")
    return err


def _analyze_request(address, source=SOURCE, **options):
    return request(
        address,
        {"cmd": "analyze", "lang": "mixy", "source": source,
         "options": options},
        timeout=300.0,
    )


def _fresh_cli_result(tmp_path, source=SOURCE):
    """The result a fresh one-shot ``repro mixy --jobs 1`` process
    prints: its stdout lines verbatim and its exit code — the identity
    baseline the daemon must match.  (An in-process run is NOT a valid
    baseline here: earlier tests in this pytest process leave warmed
    global caches that shift qualifier ids, exactly the state leak the
    daemon's per-request reset guards against.)"""
    path = tmp_path / "baseline.c"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "mixy", str(path), "--jobs", "1"],
        capture_output=True, text=True, env=_subprocess_env(),
        cwd=tmp_path, timeout=300,
    )
    return {"exit": proc.returncode, "lines": proc.stdout.splitlines()}


class TestDaemonEndToEnd:
    def test_cold_warm_identity_and_memo_hits(self, tmp_path):
        proc, address = _start_daemon(tmp_path, "--max-requests", "3")
        cold = _analyze_request(address, source=STAIRCASE)
        warm = _analyze_request(address, source=STAIRCASE)
        stats = request(address, {"cmd": "stats"})
        _finish(proc)
        assert cold["ok"] and warm["ok"]
        # The deterministic payload is identical; only `served` differs.
        assert cold["result"] == warm["result"]
        assert cold["result"] == _fresh_cli_result(tmp_path, STAIRCASE)
        assert warm["served"]["store"].get("mixy_hits", 0) > 0
        assert stats["stats"]["store"]["mixy_records"] > 0

    def test_restart_starts_warm_from_the_persisted_store(self, tmp_path):
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        cold = _analyze_request(address, source=STAIRCASE)
        _finish(proc)
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        warm = _analyze_request(address, source=STAIRCASE)
        err = _finish(proc)
        assert warm["result"] == cold["result"]
        assert warm["served"]["store"].get("mixy_hits", 0) > 0
        assert "warmed" in err  # solver cache loaded at startup

    def test_concurrent_clients_serialize_deterministically(self, tmp_path):
        proc, address = _start_daemon(tmp_path, "--max-requests", "4")
        responses = [None] * 4

        def client(i):
            responses[i] = _analyze_request(address)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        _finish(proc)
        assert all(r is not None and r["ok"] for r in responses)
        results = {json.dumps(r["result"], sort_keys=True) for r in responses}
        assert len(results) == 1  # every client saw the same analysis

    def test_kill9_then_restart_serves_cold_but_correct(self, tmp_path):
        proc, address = _start_daemon(tmp_path)
        expected = _analyze_request(address)["result"]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=20)
        proc.stdout.close()
        proc.stderr.close()
        # Whatever the store directory now holds (complete files or a
        # pre-crash subset — atomic_write forbids torn files), a new
        # daemon must come up and answer identically.
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        after = _analyze_request(address)
        _finish(proc)
        assert after["ok"] and after["result"] == expected

    def test_corrupt_store_degrades_to_cold_service(self, tmp_path):
        # A v2 store whose only recorded generation fails its checksum in
        # every section: the daemon must note the corruption, start cold,
        # and still answer identically to a fresh one-shot run.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "solver-cache.1.pkl").write_bytes(b"garbage")
        (store_dir / "blocks.1.pkl").write_bytes(b"\x80")
        (store_dir / "meta.json").write_text(json.dumps({
            "schema": "repro-store", "version": 2, "generation": 1,
            "sections": {
                "solver-cache": {
                    "file": "solver-cache.1.pkl", "crc32": 1, "size": 7,
                },
                "blocks": {"file": "blocks.1.pkl", "crc32": 1, "size": 1},
            },
            "previous": None,
        }))
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        response = _analyze_request(address)
        err = _finish(proc)
        assert "note:" in err and "corrupt" in err
        assert response["result"] == _fresh_cli_result(tmp_path)

    def test_corrupt_current_generation_rolls_back_to_previous(self, tmp_path):
        # Two daemon lives build two store generations; flipping bytes in
        # the newest generation's sections must roll the next life back to
        # the previous generation — warm, not cold.
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        expected = _analyze_request(address, source=STAIRCASE)["result"]
        _finish(proc)
        # The second life must learn something: a save with nothing new
        # writes no generation.
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        _analyze_request(address, source=parallel_vsftpd(depth=2))
        _finish(proc)
        store_dir = tmp_path / "store"
        meta = json.loads((store_dir / "meta.json").read_text())
        assert meta["generation"] >= 2 and meta["previous"] is not None
        for record in meta["sections"].values():
            path = store_dir / record["file"]
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        response = _analyze_request(address, source=STAIRCASE)
        err = _finish(proc)
        assert "rolled back to last-known-good generation" in err
        assert response["result"] == expected
        assert response["served"]["store"].get("mixy_hits", 0) > 0

    def test_reply_persists_solver_entries_learned_without_memos(
        self, tmp_path
    ):
        # A budgeted request records no block memo, only solver entries;
        # its merge is saved before its reply, so the store is on disk
        # the moment the reply arrives and survives a kill -9.
        proc, address = _start_daemon(tmp_path)
        meta = tmp_path / "store" / "meta.json"
        assert not meta.exists()
        budgeted = _analyze_request(address, source=STAIRCASE, deadline=300)
        assert meta.exists()
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=20)
        proc.stdout.close()
        proc.stderr.close()
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        request(address, {"cmd": "ping"})
        err = _finish(proc)
        assert budgeted["ok"]
        assert "warmed" in err

    def test_saves_write_a_generation_only_on_change(self, tmp_path):
        # A repeated warm analyze learns nothing and leaves the store's
        # generation alone; an edit learns a new cone and bumps it.
        proc, address = _start_daemon(tmp_path, "--max-requests", "4")
        meta = tmp_path / "store" / "meta.json"

        def generation():
            return json.loads(meta.read_text())["generation"]

        cold = _analyze_request(address, source=STAIRCASE)
        after_cold = generation()
        warm = _analyze_request(address, source=STAIRCASE)
        after_warm = generation()
        edited = STAIRCASE.replace("r = r + 1;", "r = r + 0 + 1;", 1)
        assert edited != STAIRCASE
        edit = _analyze_request(address, source=edited)
        after_edit = generation()
        request(address, {"cmd": "ping"})
        _finish(proc)
        assert cold["ok"] and warm["ok"] and edit["ok"]
        assert warm["result"] == cold["result"]
        assert after_cold >= 1
        assert after_warm == after_cold
        assert after_edit == after_cold + 1

    def test_ping_shutdown_cycle(self, tmp_path):
        proc, address = _start_daemon(tmp_path, "--no-store")
        assert request(address, {"cmd": "ping"})["pong"]
        assert request(address, {"cmd": "shutdown"})["bye"]
        _finish(proc)


# ---------------------------------------------------------------------------
# Worker isolation: request crashes never take the daemon down
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork isolation")
class TestWorkerIsolation:
    def test_worker_sigkill_degrades_and_daemon_survives(self, tmp_path):
        proc, address = _start_daemon(tmp_path)
        killed = _analyze_request(
            address, source=STAIRCASE, inject_fault=["1:die"]
        )
        after = _analyze_request(address, source=STAIRCASE)
        stats = request(address, {"cmd": "stats"})
        request(address, {"cmd": "shutdown"})
        _finish(proc)
        assert killed["ok"] is False
        assert killed["status"] == "degraded"
        assert "SIGKILL" in killed["error"]
        # The dead worker left a content-addressed crash repro behind.
        repro_path = killed.get("crash_repro")
        assert repro_path and (tmp_path / repro_path).exists()
        assert stats["stats"]["worker_crashes"] == 1
        # The crashed request merged nothing; the survivor answers clean.
        assert after["ok"]
        assert after["result"] == _fresh_cli_result(tmp_path, STAIRCASE)

    def test_worker_exception_is_a_structured_error(self, monkeypatch):
        # An exception the analysis layers do NOT absorb (i.e. a real bug
        # in the analyzer) comes back as a structured error reply — the
        # monkeypatched raise is inherited by the forked worker.
        import repro.serve as serve_mod

        def boom(*args, **kwargs):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(serve_mod, "analyze_source", boom)
        daemon = ReproDaemon(socket_path="unused.sock", store_dir=None)
        try:
            response = daemon.handle_line(json.dumps(
                {"cmd": "analyze", "lang": "mix", "source": "{s 1 s}"}
            ))
            assert response["ok"] is False and response["status"] == "error"
            assert "RuntimeError: analyzer bug" in response["error"]
            assert daemon.handle_line('{"cmd": "ping"}')["ok"]
        finally:
            daemon._pool.close()

    def test_workers_inherit_the_request_path_imports(self, tmp_path):
        # A fresh interpreter runs the daemon (this test process has the
        # analysis stack imported already); its pool workers must import
        # no repro module of their own while serving a MIXY analyze, a
        # MIXY prove and a MIX prove — bind() imported them before the
        # first fork.
        properties = pathlib.Path(SRC_DIR).parent / "examples" / "properties"
        requests = [
            {"cmd": "analyze", "lang": "mixy", "source": STAIRCASE},
            {"cmd": "prove", "lang": "mixy",
             "source": (properties / "backsolve_diff.c").read_text()},
            {"cmd": "prove", "lang": "mix",
             "source": (properties / "overflow_guard.mix").read_text()},
        ]
        (tmp_path / "requests.json").write_text(json.dumps(requests))
        script = """
import itertools, json, os, sys
import repro.serve as serve

inner = serve._worker_payload
served = itertools.count()

def recording(*args, **kwargs):
    before = set(sys.modules)
    payload = inner(*args, **kwargs)
    with open(f"imports.{os.getpid()}.{next(served)}", "w") as fh:
        json.dump(sorted(
            name for name in set(sys.modules) - before
            if name.startswith("repro")
        ), fh)
    return payload

serve._worker_payload = recording
daemon = serve.ReproDaemon(
    listen="127.0.0.1:0", store_dir="store", pool_size=1
)
daemon.bind()
replies = [
    daemon.handle_line(json.dumps(request))
    for request in json.load(open("requests.json"))
]
daemon._pool.close()
print(json.dumps([reply["status"] for reply in replies]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=_subprocess_env(), cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["ok", "ok", "ok"]
        records = sorted(tmp_path.glob("imports.*"))
        assert len(records) == 3
        for record in records:
            assert json.loads(record.read_text()) == [], record.name

    def test_fresh_workers_import_nothing(self, tmp_path):
        # A worker forked after bind() must find every module it needs
        # already imported: an import in a fresh worker is paid on every
        # fork (each recycle forks a replacement).  The daemon
        # runs in a fresh interpreter with a one-request worker cap, so
        # every request runs on a fresh worker; each records its whole
        # sys.modules after its request, against the parent's at bind().
        properties = pathlib.Path(SRC_DIR).parent / "examples" / "properties"
        requests = [
            {"cmd": "analyze", "lang": "mixy", "source": STAIRCASE},
            {"cmd": "analyze", "lang": "mixy", "source": STAIRCASE},
            {"cmd": "prove", "lang": "mixy",
             "source": (properties / "backsolve_diff.c").read_text()},
        ]
        (tmp_path / "requests.json").write_text(json.dumps(requests))
        script = """
import itertools, json, os, sys
import repro.serve as serve

inner = serve._worker_payload
served = itertools.count()

def recording(*args, **kwargs):
    payload = inner(*args, **kwargs)
    with open(f"modules.{os.getpid()}.{next(served)}", "w") as fh:
        json.dump(sorted(sys.modules), fh)
    return payload

serve._worker_payload = recording
daemon = serve.ReproDaemon(
    listen="127.0.0.1:0", store_dir="store", pool_size=1, worker_requests=1
)
daemon.bind()
with open("bind.json", "w") as fh:
    json.dump(sorted(sys.modules), fh)
replies = [
    daemon.handle_line(json.dumps(request))
    for request in json.load(open("requests.json"))
]
forks = daemon._pool.forks
daemon._pool.close()
print(json.dumps({
    "statuses": [reply["status"] for reply in replies],
    "hits": [reply["served"]["store"].get("mixy_hits", 0) for reply in replies],
    "forks": forks,
}))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=_subprocess_env(), cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["statuses"] == ["ok", "ok", "ok"]
        assert summary["hits"][1] > 0  # the second analyze ran warm
        assert summary["forks"] == 3
        at_bind = set(json.loads((tmp_path / "bind.json").read_text()))
        records = sorted(tmp_path.glob("modules.*"))
        assert len(records) == 3
        for record in records:
            gained = set(json.loads(record.read_text())) - at_bind
            assert gained == set(), record.name

    def test_faulted_request_never_poisons_the_warm_cache(self, tmp_path):
        # A request with an injected solver fault — whether it degrades
        # soundly in the worker or kills it — must merge nothing back, so
        # later requests still match the fresh one-shot baseline.
        proc, address = _start_daemon(tmp_path)
        faulted = _analyze_request(
            address, source=STAIRCASE, inject_fault=["1:crash", "3:timeout"]
        )
        after = _analyze_request(address, source=STAIRCASE)
        request(address, {"cmd": "shutdown"})
        _finish(proc)
        assert faulted["status"] in TERMINAL_STATUSES
        assert after["ok"]
        assert after["result"] == _fresh_cli_result(tmp_path, STAIRCASE)
        # The faulted request contributed no warm hits to the follow-up.
        assert after["served"]["store"].get("mixy_hits", 0) == 0


# ---------------------------------------------------------------------------
# Overload: bounded queue, shedding, retry_after_ms
# ---------------------------------------------------------------------------


class TestOverload:
    def test_full_queue_sheds_with_busy_and_retry_hint(self):
        daemon = ReproDaemon(
            socket_path="unused.sock", store_dir=None, queue_depth=1,
            pool_size=1,
        )
        # Occupy the only slot by hand; the next analyze must be shed.
        assert daemon._slots.acquire(blocking=False)
        try:
            response = daemon.handle_line(json.dumps(
                {"cmd": "analyze", "lang": "mix", "source": "{s 1 s}"}
            ))
            assert response["ok"] is False
            assert response["status"] == "busy"
            assert response["retry_after_ms"] >= 50
            stats = daemon.handle_line('{"cmd": "stats"}')["stats"]
            assert stats["shed"] == 1
            # Release the slot and the same request goes through.
            daemon._slots.release()
            assert daemon.handle_line(json.dumps(
                {"cmd": "analyze", "lang": "mix", "source": "{s 1 s}"}
            ))["ok"]
        finally:
            daemon._pool.close()


# ---------------------------------------------------------------------------
# Protocol hardening: fuzz the wire with garbage
# ---------------------------------------------------------------------------


class TestProtocolFuzz:
    GARBAGE = [
        b"{nope\n",
        b"[1, 2, 3]\n",
        b'"just a string"\n',
        b"42\n",
        b"null\n",
        b"\x00\xff\xfe\x80 binary trash\n",
        b'{"cmd": "no-such-cmd"}\n',
        b'{"cmd": 42}\n',
        b'{"cmd": "analyze"}\n',
        b'{"cmd": "analyze", "lang": "mixy", "source": 13}\n',
        b'{"cmd": "analyze", "lang": "mixy", "source": "x", "options": [1]}\n',
        b'{"cmd": "analyze", "lang": "fortran", "source": "x"}\n',
        b'{"cmd": "analyze", "lang": "mixy", "source": "x", '
        b'"options": {"inject_fault": ["bogus"]}}\n',
        b"}}{{\n",
        b"\n",
    ]

    def test_unit_every_garbage_line_gets_a_terminal_reply(self):
        daemon = _line_daemon()
        for line in self.GARBAGE:
            if line == b"\n":
                continue
            response = daemon.handle_line(
                line.decode("utf-8", errors="replace").rstrip("\n")
            )
            assert response["status"] in TERMINAL_STATUSES, line
            assert response["status"] != "ok", line
        assert daemon.handle_line('{"cmd": "ping"}')["ok"]

    def test_e2e_garbage_stream_then_oversized_line(self, tmp_path):
        import socket as socket_mod

        proc, address = _start_daemon(
            tmp_path, "--no-store", "--max-request-bytes", "4096",
        )
        host, _, port = address[len("tcp:"):].rpartition(":")
        with socket_mod.create_connection((host, int(port)), timeout=30) as sock:
            reader = sock.makefile("rb")
            sent = 0
            for line in self.GARBAGE:
                if line == b"\n":
                    continue  # blank lines are skipped, not answered
                sock.sendall(line)
                sent += 1
                reply = json.loads(reader.readline())
                assert reply["status"] in TERMINAL_STATUSES, line
            # An oversized line is dropped with a protocol_error and the
            # connection keeps working afterwards.
            sock.sendall(b'{"pad": "' + b"x" * 8192 + b'"}\n')
            reply = json.loads(reader.readline())
            assert reply["status"] == "protocol_error"
            assert "exceeds" in reply["error"]
            sock.sendall(b'{"cmd": "ping"}\n')
            assert json.loads(reader.readline())["pong"]
        assert request(address, {"cmd": "ping"})["pong"]
        request(address, {"cmd": "shutdown"})
        _finish(proc)


# ---------------------------------------------------------------------------
# Client failure modes and retry
# ---------------------------------------------------------------------------


class TestClientFailureModes:
    def test_no_such_socket_is_a_retryable_client_error(self, tmp_path):
        with pytest.raises(ClientError, match="no such socket") as info:
            request(f"unix:{tmp_path}/never-bound.sock", {"cmd": "ping"})
        assert info.value.retryable

    def test_connection_refused_is_a_retryable_client_error(self):
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here any more
        with pytest.raises(ClientError) as info:
            request(f"tcp:127.0.0.1:{port}", {"cmd": "ping"}, timeout=5)
        assert info.value.retryable

    @pytest.mark.parametrize(
        "address", ["tcp:localhost", "tcp:127.0.0.1:notaport", "tcp:h:99999"]
    )
    def test_malformed_tcp_address_is_a_final_client_error(self, address):
        with pytest.raises(ClientError, match="expected HOST:PORT") as info:
            request(address, {"cmd": "ping"}, timeout=5)
        assert not info.value.retryable

    @pytest.mark.parametrize(
        "address", ["tcp:localhost", "tcp:127.0.0.1:notaport"]
    )
    def test_cli_client_malformed_address_exits_2(self, address, capsys):
        from repro.cli import main

        assert main(["client", "--ping", "--connect", address]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected HOST:PORT" in err

    def test_cli_serve_malformed_listen_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        code = main(["serve", "--listen", "localhost", "--store", str(store)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected HOST:PORT" in err
        assert not store.exists()  # refused before opening the store

    @staticmethod
    def _one_shot_server(behavior):
        """A fake daemon that serves exactly one connection per accept."""
        import socket as socket_mod

        server = socket_mod.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        port = server.getsockname()[1]

        def serve():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                with conn:
                    if not behavior(conn):
                        server.close()
                        return

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return f"tcp:127.0.0.1:{port}", server

    def test_closed_without_reply_is_diagnosed(self):
        address, server = self._one_shot_server(lambda conn: False)
        try:
            # Depending on who loses the race with close(), the client sees
            # either a clean empty read or a reset; both must be diagnosed
            # as the daemon going away, retryably.
            with pytest.raises(
                ClientError, match="without replying|connection lost"
            ) as info:
                request(address, {"cmd": "ping"}, timeout=5)
            assert info.value.retryable
        finally:
            server.close()

    def test_truncated_reply_is_diagnosed(self):
        def behavior(conn):
            conn.recv(65536)
            conn.sendall(b'{"ok": true')  # no newline: died mid-reply
            return False

        address, server = self._one_shot_server(behavior)
        try:
            with pytest.raises(ClientError, match="truncated") as info:
                request(address, {"cmd": "ping"}, timeout=5)
            assert info.value.retryable
        finally:
            server.close()

    def test_retry_honors_busy_and_succeeds(self):
        import random

        hits = []

        def behavior(conn):
            conn.recv(65536)
            # Record each hit before replying: the client may return and
            # assert as soon as the reply arrives.
            if not hits:
                hits.append("busy")
                conn.sendall(
                    b'{"ok": false, "status": "busy", "retry_after_ms": 10}\n'
                )
                return True
            hits.append("ok")
            conn.sendall(b'{"ok": true, "status": "ok", "pong": true}\n')
            return False

        address, server = self._one_shot_server(behavior)
        try:
            response = request_with_retry(
                address, {"cmd": "ping"}, timeout=5, retries=3,
                rng=random.Random(0),
            )
            assert response["pong"] and hits == ["busy", "ok"]
        finally:
            server.close()

    def test_retry_zero_surfaces_the_failure(self, tmp_path):
        with pytest.raises(ClientError):
            request_with_retry(
                f"unix:{tmp_path}/never-bound.sock", {"cmd": "ping"},
                retries=0,
            )


# ---------------------------------------------------------------------------
# The prefork pool: concurrent dispatch, catch-ups, recycling
# ---------------------------------------------------------------------------


def _concurrent_requests(address, sources):
    """One analyze per source, all in flight at once; replies returned
    in source order."""
    replies = [None] * len(sources)

    def client(i):
        replies[i] = _analyze_request(address, source=sources[i])

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(sources))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert all(r is not None for r in replies)
    return replies


class TestPoolConcurrency:
    def test_concurrent_distinct_corpora_match_their_one_shots(self, tmp_path):
        """Three clients with structurally different programs, dispatched
        concurrently over a two-worker pool: each reply is bitwise
        identical to that program's own fresh one-shot run — concurrency
        never lets one request's analysis bleed into another's."""
        sources = [SOURCE, STAIRCASE, parallel_vsftpd(depth=2)]
        baselines = [_fresh_cli_result(tmp_path, s) for s in sources]
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--max-requests", "3"
        )
        replies = _concurrent_requests(address, sources)
        _finish(proc)
        for reply, baseline in zip(replies, baselines):
            assert reply["status"] == "ok"
            assert reply["result"] == baseline

    def test_racy_burst_merges_deterministically_and_warms(self, tmp_path):
        """A concurrent burst of identical memoizable requests: every
        reply matches the one-shot baseline regardless of merge race
        outcomes, the parent merges the workers' memos and cache
        entries, and a follow-up request is served warm from the merged
        store by a worker that was never reforked."""
        baseline = _fresh_cli_result(tmp_path, STAIRCASE)
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--max-requests", "6"
        )
        replies = _concurrent_requests(address, [STAIRCASE] * 4)
        warm = _analyze_request(address, source=STAIRCASE)
        stats = request(address, {"cmd": "stats"})["stats"]
        _finish(proc)
        for reply in replies + [warm]:
            assert reply["status"] == "ok"
            assert reply["result"] == baseline
        assert warm["served"]["store"].get("mixy_hits", 0) > 0
        assert stats["store"]["mixy_records"] > 0
        assert stats["solver"]["cache_entries_imported"] > 0
        assert stats["pool"]["forks"] >= 1
        assert stats["pool"]["recycles"] == 0

    def test_recycle_mid_burst_drops_and_duplicates_nothing(self, tmp_path):
        """With ``--worker-requests 1`` every worker is recycled after a
        single request — mid-burst, the pool must replace workers without
        dropping or double-serving any request."""
        baseline = _fresh_cli_result(tmp_path)
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--worker-requests", "1",
            "--max-requests", "7",
        )
        replies = _concurrent_requests(address, [SOURCE] * 6)
        stats = request(address, {"cmd": "stats"})["stats"]
        _finish(proc)
        assert [r["status"] for r in replies] == ["ok"] * 6
        for reply in replies:
            assert reply["result"] == baseline
        assert stats["requests_served"] == 7  # six analyses + stats
        assert stats["pool"]["recycles"] >= 6
        assert stats["pool"]["forks"] > 2  # replacements beyond the first pair

    def test_stats_count_pool_work_as_the_daemons_own(self, tmp_path):
        """The parent runs no analysis: a pool worker's solver work is
        the daemon's own, not speculative work a later pass redoes."""
        proc, address = _start_daemon(
            tmp_path, "--no-store", "--pool", "1", "--max-requests", "2"
        )
        reply = _analyze_request(address, source=STAIRCASE)
        solver = request(address, {"cmd": "stats"})["stats"]["solver"]
        _finish(proc)
        assert reply["ok"]
        assert solver["queries"] > 0
        assert solver["full_solves"] > 0
        assert solver["cache_entries_imported"] > 0
        assert "speculative" not in solver

    def test_pooled_trace_passes_trace_report(self, tmp_path):
        """The pool's point events (spawn, catch-up, recycle) are trace
        schema kinds: two concurrent requests fork both workers, so the
        next two (served in turn by the idle workers) each catch up on
        the merge the other worker's request made, and both workers
        retire at their two-request cap.  The daemon's trace validates
        and aggregates, and ``repro trace-report`` on it exits 0."""
        from repro.cli import main
        from repro.trace import aggregate, read_trace

        trace = tmp_path / "serve.jsonl"
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--worker-requests", "2",
            "--trace", str(trace),
        )
        try:
            replies = _concurrent_requests(address, [STAIRCASE, SOURCE])
            replies += [_analyze_request(address, source=STAIRCASE)
                        for _ in range(2)]
        finally:
            request(address, {"cmd": "shutdown"})
            _finish(proc)
        assert [reply["status"] for reply in replies] == ["ok"] * 4
        events = read_trace(trace)
        kinds = {event.get("kind") for event in events}
        assert {"pool_spawn", "pool_catch_up", "pool_recycle"} <= kinds
        catch_ups = [e for e in events if e.get("kind") == "pool_catch_up"]
        assert all(
            isinstance(e["pid"], int) and e["entries"] + e["memos"] > 0
            for e in catch_ups
        )
        digest = aggregate(events)
        assert digest["span_kinds"]["request"]["count"] == 4
        assert main(["trace-report", str(trace)]) == 0

    def test_pooled_trace_report_attributes_worker_runs(self, tmp_path, capsys):
        """Every analysis runs in a pool worker, whose spans land in a
        sidecar merged at shutdown.  ``repro trace-report`` attributes
        each worker ``run`` to the parent's ``request`` span that served
        it: wall time is the requests', and the block table holds the
        workers' blocks — the second request's replayed from the store."""
        from repro.cli import main

        trace = tmp_path / "serve.jsonl"
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--trace", str(trace)
        )
        try:
            replies = [_analyze_request(address, source=STAIRCASE)
                       for _ in range(2)]
        finally:
            request(address, {"cmd": "shutdown"})
            _finish(proc)
        assert [reply["status"] for reply in replies] == ["ok", "ok"]
        assert replies[1]["served"]["store"].get("mixy_hits", 0) > 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["wall_seconds"] > 0
        assert 0 < digest["attributed_fraction"] <= 1
        assert digest["blocks"]
        assert any(block["store_hits"] > 0 for block in digest["blocks"])
        assert digest["speculative"]["tasks"] == 0
        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "wall 0.000s" not in report and "crunch_" in report

    @pytest.mark.parametrize("overtaker", ["warm-prove", "cold-analyze"])
    def test_quick_request_overtakes_a_slow_cold_analyze(
        self, tmp_path, overtaker
    ):
        """Merges happen in completion order, not admission order: a
        quick request admitted while a slow cold analyze runs on the
        other worker replies first — whether it is a warm prove that
        learns nothing or a cold analyze of another program that records
        block memos.  Every reply matches its one-shot run, and an
        analyze's reply still implies its own merge: a follow-up of the
        same program is served from the store, by the two workers the
        pool forked first: no merge reforks a worker."""
        slow = parallel_vsftpd(depth=5)
        slow_baseline = _fresh_cli_result(tmp_path, slow)
        if overtaker == "warm-prove":
            prop = (
                pathlib.Path(SRC_DIR).parent / "examples" / "properties"
                / "midpoint_bounds.c"
            )
            one_shot = subprocess.run(
                [sys.executable, "-m", "repro.cli", "prove", str(prop)],
                capture_output=True, text=True, env=_subprocess_env(),
                cwd=tmp_path, timeout=300,
            )
            quick = {
                "cmd": "prove", "lang": "mixy", "source": prop.read_text(),
                "options": {"name": str(prop)},
            }
            quick_baseline = {
                "exit": one_shot.returncode,
                "lines": one_shot.stdout.splitlines()[:1],
            }
        else:
            quick = {"cmd": "analyze", "lang": "mixy", "source": STAIRCASE,
                     "options": {}}
            quick_baseline = _fresh_cli_result(tmp_path, STAIRCASE)
        proc, address = _start_daemon(tmp_path, "--pool", "2")
        try:
            replies = {}
            if overtaker == "warm-prove":
                replies["cold prove"] = request(address, quick, timeout=300.0)
            finished = []

            def send(kind, payload):
                replies[kind] = request(address, payload, timeout=300.0)
                finished.append(kind)

            analyze = threading.Thread(
                target=send,
                args=("slow", {"cmd": "analyze", "lang": "mixy",
                               "source": slow, "options": {}}),
            )
            analyze.start()

            def busy_workers():
                workers = request(address, {"cmd": "stats"})["stats"]
                return sum(w["busy"] for w in workers["pool"]["workers"])

            # A busy worker means the slow analyze is already running.
            deadline = time.monotonic() + 60
            while not busy_workers():
                assert time.monotonic() < deadline, "analyze never started"
                time.sleep(0.01)
            send("quick", quick)
            # The quick reply came while the slow analyze still ran.
            busy_after_quick = busy_workers()
            analyze.join(timeout=300)
            follow_ups = [
                _analyze_request(address, source=source)
                for source in (
                    [slow] if overtaker == "warm-prove" else [slow, STAIRCASE]
                )
            ]
            pool = request(address, {"cmd": "stats"})["stats"]["pool"]
        finally:
            request(address, {"cmd": "shutdown"})
            _finish(proc)
        assert finished == ["quick", "slow"]
        assert busy_after_quick == 1
        assert pool["forks"] == 2 and pool["recycles"] == 0
        assert pool["catch_ups"] >= 1
        assert replies["slow"]["status"] == "ok"
        assert replies["slow"]["result"] == slow_baseline
        for kind in set(replies) - {"slow"}:
            assert replies[kind]["status"] == "ok", kind
            result = replies[kind]["result"]
            assert {"exit": result["exit"], "lines": result["lines"]} == (
                quick_baseline
            ), kind
        for follow_up, baseline in zip(
            follow_ups, [slow_baseline, quick_baseline]
        ):
            assert follow_up["result"] == baseline
            assert follow_up["served"]["store"].get("mixy_hits", 0) > 0

    def test_retry_hint_accounts_for_pool_width(self):
        """The shed-client backoff hint divides the in-flight queue over
        the pool's parallel width instead of assuming serial turns."""
        pooled = ReproDaemon(
            socket_path="unused.sock", store_dir=None, pool_size=4
        )
        pooled._avg_secs = 1.0
        pooled._inflight = 8
        assert pooled._retry_after_ms() == 2000  # two dispatch waves

        serial = ReproDaemon(
            socket_path="unused.sock", store_dir=None, pool_size=1
        )
        serial._avg_secs = 1.0
        serial._inflight = 8
        assert serial._retry_after_ms() == 8000  # eight serialized turns

    @pytest.mark.parametrize("width", [0, -3])
    def test_pool_below_one_worker_is_rejected(self, width):
        """A pool has at least one worker: the pool is the daemon's only
        request path."""
        with pytest.raises(ValueError, match="pool_size must be >= 1"):
            ReproDaemon(
                socket_path="unused.sock", store_dir=None, pool_size=width
            )

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_cli_pool_below_one_exits_2(self, width, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--pool", width, "--no-store"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pool" in err and "must be >= 1" in err


# ---------------------------------------------------------------------------
# Concurrent throughput on the staircase corpus: the answers (E21)
# ---------------------------------------------------------------------------

BURST_POOL = 4
BURST_REQUESTS = 16
BURST_CONCURRENCY = 8
WARM_REQUESTS = 4
#: Shed nothing under the burst (which learns nothing, so saves nothing).
BURST_FLAGS = ("--queue-depth", "32")


def _burst_series(tmp, source, name, *extra):
    """One daemon life: a cold analyze, then BURST_REQUESTS warm ones
    over BURST_CONCURRENCY client threads."""
    proc, address = _start_daemon(tmp, *BURST_FLAGS, *extra, store=f"store-{name}")
    payload = {"cmd": "analyze", "lang": "mixy", "source": source, "options": {}}
    try:
        cold = request(address, payload, timeout=300)
        with ThreadPoolExecutor(max_workers=BURST_CONCURRENCY) as clients:
            burst = list(clients.map(
                lambda _: request(address, payload, timeout=300),
                range(BURST_REQUESTS),
            ))
        stats = request(address, {"cmd": "stats"})["stats"]
        request(address, {"cmd": "shutdown"})
    finally:
        _finish(proc)
    assert cold["ok"], cold
    assert len(burst) == BURST_REQUESTS
    assert all(reply["ok"] for reply in burst), burst
    return {"results": [cold["result"], *(r["result"] for r in burst)], "stats": stats}


def _serial_series(tmp, source, name, *extra):
    """One daemon life: one cold analyze, then WARM_REQUESTS warm ones,
    one at a time."""
    proc, address = _start_daemon(tmp, *BURST_FLAGS, *extra, store=f"store-{name}")
    payload = {"cmd": "analyze", "lang": "mixy", "source": source, "options": {}}
    try:
        timings, replies = [], []
        for _ in range(1 + WARM_REQUESTS):
            start = time.monotonic()
            replies.append(request(address, payload, timeout=300))
            timings.append(time.monotonic() - start)
        request(address, {"cmd": "shutdown"})
    finally:
        _finish(proc)
    for reply in replies:
        assert reply["ok"], reply
    return {
        "results": [reply["result"] for reply in replies],
        "cold_secs": timings[0],
        "warm_secs_mean": sum(timings[1:]) / WARM_REQUESTS,
        "warm_memo_hits": replies[-1]["served"]["store"].get("mixy_hits", 0),
    }


@pytest.fixture(scope="module")
def staircase_daemons(tmp_path_factory):
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool needs fork")
    tmp = tmp_path_factory.mktemp("staircase-daemons")
    source = parallel_vsftpd(depth=2)
    return {
        "baseline": _fresh_cli_result(tmp, source),
        "pooled": _burst_series(tmp, source, "pooled", "--pool", str(BURST_POOL)),
        "serialized": _burst_series(tmp, source, "serialized", "--pool", "1"),
        "serial_pooled": _serial_series(
            tmp, source, "serial-pooled", "--pool", str(BURST_POOL)
        ),
    }


class TestStaircaseDaemons:
    """A four-worker pool and a one-worker pool under an 8-client burst,
    and a four-worker pool serving one request at a time: every reply is
    a fresh one-shot run's, byte for byte."""

    def test_concurrency_never_leaks_into_answers(self, staircase_daemons):
        baseline = staircase_daemons["baseline"]
        for mode in ("pooled", "serialized", "serial_pooled"):
            for result in staircase_daemons[mode]["results"]:
                assert result == baseline, mode

    def test_pool_actually_ran_and_merged(self, staircase_daemons):
        pooled = staircase_daemons["pooled"]["stats"]
        assert pooled["pool"]["forks"] >= 1
        assert pooled["pool"]["recycles"] == 0
        # The cold request's memos and cache entries were merged.
        assert pooled["store"]["mixy_records"] > 0
        assert pooled["solver"]["cache_entries_imported"] > 0
        assert staircase_daemons["serialized"]["stats"]["pool"]["forks"] >= 1

    def test_serial_series_went_warm(self, staircase_daemons):
        series = staircase_daemons["serial_pooled"]
        assert series["warm_memo_hits"] > 0
        assert series["warm_secs_mean"] < series["cold_secs"]
