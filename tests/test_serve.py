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
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.mixy.corpus import CASES
from repro.mixy.corpus_vsftpd import parallel_vsftpd
from repro.serve import (
    ClientError,
    ReproDaemon,
    TERMINAL_STATUSES,
    analyze_source,
    bench,
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
        result = analyze_source("mixy", SOURCE, {})
        assert result["exit"] == 1
        assert result["lines"][-1].endswith("warning(s)")
        assert any("sysutil_free" in line for line in result["lines"])

    def test_mixy_is_deterministic_across_runs(self):
        first = analyze_source("mixy", SOURCE, {})
        second = analyze_source("mixy", SOURCE, {})
        assert first == second

    def test_retired_scheduling_options_do_not_change_the_reply(self):
        # Clients written against older daemons may still send one.
        for options in ({}, {"jobs": 2}):
            retired = {**options, "schedule": "portfolio"}
            assert analyze_source("mixy", SOURCE, retired) == (
                analyze_source("mixy", SOURCE, options)
            )

    def test_mixy_parse_error_is_exit_2(self):
        result = analyze_source("mixy", "int main( {", {})
        assert result["exit"] == 2
        assert result["lines"][0].startswith("error:")

    def test_mix_accept_and_reject(self):
        assert analyze_source("mix", "{s 1 + 1 s}", {}) == {
            "exit": 0,
            "lines": ["accepted: int"],
        }
        rejected = analyze_source("mix", "{s 1 + true s}", {})
        assert rejected["exit"] == 1

    def test_mix_env_and_parse_errors_are_exit_2(self):
        assert analyze_source("mix", "x", {"env": "x-int"})["exit"] == 2
        assert analyze_source("mix", "let let", {})["exit"] == 2

    def test_unknown_lang_raises(self):
        with pytest.raises(ValueError, match="unknown lang"):
            analyze_source("cobol", "", {})

    def test_budgeted_request_builds_a_budget(self):
        # A generous deadline changes nothing about the result...
        result = analyze_source("mixy", SOURCE, {"deadline": 3600.0})
        assert result == analyze_source("mixy", SOURCE, {})


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
    """The deterministic result a fresh one-shot ``repro mixy --jobs 1``
    process produces — the identity baseline the daemon must match.
    (An in-process run is NOT a valid baseline here: earlier tests in
    this pytest process leave warmed global caches that shift qualifier
    ids, exactly the state leak the daemon's per-request reset guards
    against.)"""
    path = tmp_path / "baseline.c"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "mixy", str(path), "--jobs", "1"],
        capture_output=True, text=True, env=_subprocess_env(),
        cwd=tmp_path, timeout=300,
    )
    # Drop the one-shot perf summary (timing, block/solver counts); the
    # daemon result carries the deterministic `N warning(s)` count only.
    warnings = proc.stdout.splitlines()[:-1]
    return {
        "exit": proc.returncode,
        "lines": warnings + [f"{len(warnings)} warning(s)"],
    }


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
        proc, address = _start_daemon(tmp_path, "--max-requests", "1")
        _analyze_request(address, source=STAIRCASE)
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
        assert daemon._isolate
        response = daemon.handle_line(json.dumps(
            {"cmd": "analyze", "lang": "mix", "source": "{s 1 s}"}
        ))
        assert response["ok"] is False and response["status"] == "error"
        assert "RuntimeError: analyzer bug" in response["error"]
        assert daemon.handle_line('{"cmd": "ping"}')["ok"]

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
            isolate=False,
        )
        # Occupy the only slot by hand; the next analyze must be shed.
        assert daemon._slots.acquire(blocking=False)
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
# The prefork pool: concurrent dispatch, epochs, recycling
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
        outcomes, the first merge bumps the epoch, and a follow-up
        request is served warm from the merged store."""
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
        assert stats["epoch"] >= 1
        assert stats["pool"]["forks"] >= 1

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

    def test_bench_reports_complete_identical_replies(self, tmp_path):
        """The load generator behind ``repro client --bench``: all
        requests complete, every reply is the same analysis, and the
        latency percentiles are ordered."""
        proc, address = _start_daemon(
            tmp_path, "--pool", "2", "--max-requests", "6"
        )
        report = bench(
            address,
            {"cmd": "analyze", "lang": "mixy", "source": SOURCE,
             "options": {}},
            requests=6, concurrency=3, timeout=300.0,
        )
        _finish(proc)
        assert report["completed"] == 6 and report["ok"] == 6
        assert report["statuses"] == {"ok": 6}
        distinct = {json.dumps(r, sort_keys=True) for r in report["results"]}
        assert len(distinct) == 1
        assert report["p50_ms"] <= report["p95_ms"] <= report["p99_ms"]
        assert report["throughput_rps"] > 0

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
            socket_path="unused.sock", store_dir=None, isolate=False
        )
        serial._avg_secs = 1.0
        serial._inflight = 8
        assert serial._retry_after_ms() == 8000  # eight serialized turns

    @pytest.mark.parametrize("width", [0, -3])
    def test_pool_below_one_worker_is_rejected(self, width):
        """A pool has at least one worker; in-process serving is
        ``isolate=False``, never a zero-width pool."""
        with pytest.raises(ValueError, match="isolate=False"):
            ReproDaemon(
                socket_path="unused.sock", store_dir=None, pool_size=width
            )

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_cli_pool_below_one_exits_2_pointing_at_no_isolate(
        self, width, capsys
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--pool", width, "--no-store"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pool" in err and "--no-isolate" in err
