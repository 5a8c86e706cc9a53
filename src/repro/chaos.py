"""Chaos harness: drive a live ``repro serve`` daemon through faults.

The campaign throws a seeded, weighted mix of hostile inputs at a daemon —
malformed and oversized requests, slow-loris stalls, socket resets, solver
faults injected into isolated workers (including ``crash`` exceptions and
``die`` SIGKILLs), flood bursts past the admission queue, store corruption
between requests, SIGKILLs aimed at pooled workers both idle and
mid-request, even SIGKILLing the daemon itself — and checks the
contract the serving layer promises:

* the daemon never dies to a request (only the explicit ``daemon_kill`` op
  takes it down, and the harness restarts it);
* every reply is well-formed JSON with a terminal ``status``;
* degraded answers stay sound (a budget-starved analyze may report less,
  never garbage);
* after the dust settles, a fresh analyze against the survivor is
  bitwise-identical to the stdout of a clean one-shot ``repro mixy``
  (or ``repro mix``) run of the same source.

Run it as ``repro-analyze chaos -- --faults 200`` (from a checkout:
``PYTHONPATH=src python -m repro.cli chaos -- --faults 200``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.serve import (
    ClientError,
    TERMINAL_STATUSES,
    host_port,
    request,
    request_with_retry,
)

def default_source() -> str:
    """A staircase corpus with memoizable symbolic blocks: enough solver
    traffic for injected faults to land, cheap enough to analyze dozens
    of times in one campaign."""
    from repro.mixy.corpus_vsftpd import parallel_vsftpd

    return parallel_vsftpd(depth=1)


DEFAULT_LANG = "mixy"

# Socket-level ops are cheap; analyze-level ops dominate wall-clock, so the
# menu leans protocol-heavy to fit a 200-fault campaign in CI time.
OP_WEIGHTS = [
    ("malformed_json", 14),
    ("non_object", 8),
    ("unknown_cmd", 8),
    ("bad_payload", 8),
    ("oversized", 6),
    ("truncated_bytes", 6),
    ("socket_reset", 6),
    ("slowloris", 4),
    ("analyze_ok", 8),
    ("inject_crash", 6),
    ("inject_die", 6),
    ("inject_timeout", 4),
    ("inject_error", 4),
    ("inject_bad_model", 4),
    ("deadline", 4),
    ("flood", 3),
    ("store_corrupt", 3),
    ("daemon_kill", 2),
    ("pool_kill_idle", 3),
    ("pool_kill_busy", 2),
]


@dataclass
class CampaignReport:
    """What happened, op by op, plus the verdicts that matter."""

    seed: int = 0
    faults: int = 0
    ops: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    daemon_restarts: int = 0
    final_match: Optional[bool] = None

    def count(self, op: str, status: str) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": self.faults,
            "ops": dict(sorted(self.ops.items())),
            "statuses": dict(sorted(self.statuses.items())),
            "daemon_restarts": self.daemon_restarts,
            "violations": list(self.violations),
            "final_match": self.final_match,
        }


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ManagedDaemon:
    """A ``repro serve`` child the campaign owns, kills, and restarts."""

    def __init__(self, store_dir: str, crash_dir: str, read_deadline: float = 0.4):
        self.store_dir = store_dir
        self.crash_dir = crash_dir
        self.read_deadline = read_deadline
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[str] = None

    def start(self) -> str:
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--store",
            self.store_dir,
            "--crash-dir",
            self.crash_dir,
            "--queue-depth",
            "2",
            "--read-deadline",
            str(self.read_deadline),
            "--request-deadline",
            "30",
        ]
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_subprocess_env(),
            text=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.address = line.split(marker, 1)[1].strip()
        return self.address

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=20)

    def shutdown(self) -> None:
        if not self.alive():
            return
        try:
            request(self.address, {"cmd": "shutdown"}, timeout=20)
        except (ClientError, OSError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.kill()


def one_shot_result(lang: str, source: str) -> dict:
    """The ground truth: a clean single-process CLI run of the corpus."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".src", delete=False, encoding="utf-8"
    ) as handle:
        handle.write(source)
        path = handle.name
    try:
        cmd = [sys.executable, "-m", "repro.cli", lang, path]
        if lang == "mixy":
            cmd += ["--jobs", "1"]
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=300,
        )
    finally:
        os.unlink(path)
    # The one-shot CLI prints the daemon's result lines verbatim: on
    # stdout, or on stderr for a usage or parse error (exit 2).
    out = proc.stderr if proc.returncode == 2 else proc.stdout
    return {"exit": proc.returncode, "lines": out.splitlines()}


class ChaosCampaign:
    def __init__(
        self,
        address: Optional[str] = None,
        faults: int = 200,
        seed: int = 0,
        lang: str = DEFAULT_LANG,
        source: Optional[str] = None,
        quiet: bool = False,
    ):
        self.rng = random.Random(seed)
        self.faults = faults
        self.lang = lang
        self.source = source if source is not None else default_source()
        self.quiet = quiet
        self.report = CampaignReport(seed=seed, faults=faults)
        self.external_address = address
        self.daemon: Optional[ManagedDaemon] = None
        self._workdir: Optional[tempfile.TemporaryDirectory] = None
        self.baseline: Optional[dict] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> str:
        if self.external_address is not None:
            return self.external_address
        return self.daemon.address

    @property
    def owns_daemon(self) -> bool:
        return self.external_address is None

    def _tcp_address(self) -> Tuple[str, int]:
        spec = self.address
        return host_port(spec[len("tcp:"):] if spec.startswith("tcp:") else spec)

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"chaos: {message}", flush=True)

    def run(self) -> CampaignReport:
        self._say(f"baseline one-shot analyze ({self.lang})")
        self.baseline = one_shot_result(self.lang, self.source)
        if self.owns_daemon:
            self._workdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            root = self._workdir.name
            self.daemon = ManagedDaemon(
                store_dir=os.path.join(root, "store"),
                crash_dir=os.path.join(root, "crashes"),
            )
            self.daemon.start()
            self._say(f"daemon up at {self.daemon.address}")
        try:
            self._campaign()
            self._final_check()
        finally:
            if self.owns_daemon:
                self.daemon.shutdown()
                self._workdir.cleanup()
        return self.report

    def _campaign(self) -> None:
        menu = [op for op, _ in OP_WEIGHTS]
        weights = [w for _, w in OP_WEIGHTS]
        for i in range(self.faults):
            op = self.rng.choices(menu, weights=weights, k=1)[0]
            if not self.owns_daemon and op in (
                "store_corrupt",
                "daemon_kill",
                "pool_kill_idle",
                "pool_kill_busy",
            ):
                # Can't reach an external daemon's disk or signal its
                # worker processes; stay hostile at the protocol layer.
                op = "malformed_json"
            getattr(self, f"_op_{op}")()
            if self.owns_daemon and not self.daemon.alive():
                if op != "daemon_kill":
                    self.report.violate(
                        f"daemon died to op {op!r} at fault #{i + 1}"
                    )
                self.daemon.start()
                self.report.daemon_restarts += 1
            if not self.quiet and (i + 1) % 25 == 0:
                self._say(f"{i + 1}/{self.faults} faults delivered")

    # -- plumbing ----------------------------------------------------------

    def _raw_exchange(self, blob: bytes, read_reply: bool = True) -> Optional[dict]:
        """Ship raw bytes down a fresh socket; return the parsed reply."""
        host, port = self._tcp_address()
        try:
            with socket.create_connection((host, port), timeout=20) as sock:
                sock.sendall(blob)
                if not read_reply:
                    return None
                sock.settimeout(20)
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
        except OSError as error:
            self.report.violate(f"raw exchange failed at the socket layer: {error}")
            return None
        if not data:
            return None
        try:
            reply = json.loads(data.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            self.report.violate(f"daemon sent non-JSON reply: {data[:80]!r}")
            return None
        if not isinstance(reply, dict):
            self.report.violate(f"daemon sent non-object reply: {reply!r}")
            return None
        return reply

    def _expect_status(self, op: str, reply: Optional[dict], *allowed: str) -> None:
        if reply is None:
            self.report.count(op, "no_reply")
            self.report.violate(f"op {op!r} got no reply at all")
            return
        status = reply.get("status")
        if status not in TERMINAL_STATUSES:
            self.report.violate(
                f"op {op!r} reply has non-terminal status {status!r}"
            )
            self.report.count(op, "bad_status")
            return
        self.report.count(op, status)
        if allowed and status not in allowed:
            self.report.violate(
                f"op {op!r} expected status in {allowed}, got {status!r}: "
                f"{reply.get('error')!r}"
            )

    def _analyze(self, options: dict, timeout: float = 120.0) -> Optional[dict]:
        payload = {
            "cmd": "analyze",
            "lang": self.lang,
            "source": self.source,
            "options": options,
        }
        try:
            return request_with_retry(
                self.address, payload, timeout=timeout, retries=4, rng=self.rng
            )
        except (ClientError, OSError) as error:
            self.report.violate(f"analyze request failed outright: {error}")
            return None

    # -- the op menu -------------------------------------------------------

    def _op_malformed_json(self) -> None:
        garbage = self.rng.choice(
            [b"{not json]\n", b"\x00\xff\xfe garbage\n", b'{"cmd": \n', b"}{\n"]
        )
        self._expect_status(
            "malformed_json", self._raw_exchange(garbage), "protocol_error"
        )

    def _op_non_object(self) -> None:
        blob = self.rng.choice([b"[1, 2, 3]\n", b'"analyze"\n', b"42\n", b"null\n"])
        self._expect_status("non_object", self._raw_exchange(blob), "protocol_error")

    def _op_unknown_cmd(self) -> None:
        blob = json.dumps({"cmd": "frobnicate", "x": 1}).encode() + b"\n"
        self._expect_status("unknown_cmd", self._raw_exchange(blob), "protocol_error")

    def _op_bad_payload(self) -> None:
        blob = json.dumps(
            self.rng.choice(
                [
                    {"cmd": "analyze", "lang": "mixy", "source": 42},
                    {"cmd": "analyze", "lang": "mixy", "source": "x", "options": []},
                    {"cmd": "analyze", "lang": "cobol", "source": "x"},
                    {"cmd": "analyze"},
                ]
            )
        ).encode() + b"\n"
        self._expect_status(
            "bad_payload", self._raw_exchange(blob), "protocol_error", "error"
        )

    def _op_oversized(self) -> None:
        # Default cap is 4MiB; the chaos daemon keeps it, so 5MiB trips it.
        blob = b'{"cmd": "ping", "pad": "' + b"x" * (5 * 1024 * 1024) + b'"}\n'
        self._expect_status("oversized", self._raw_exchange(blob), "protocol_error")

    def _op_truncated_bytes(self) -> None:
        # Half a request then FIN: the daemon should just drop the
        # connection (no newline ever arrives) without dying.
        self._raw_exchange(b'{"cmd": "analyze", "lang"', read_reply=False)
        self.report.count("truncated_bytes", "ok" if self._ping() else "no_reply")

    def _op_socket_reset(self) -> None:
        host, port = self._tcp_address()
        try:
            sock = socket.create_connection((host, port), timeout=20)
            sock.sendall(b'{"cmd": "stats"}\n')
            # SO_LINGER 0 makes close() send RST instead of FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        except OSError:
            pass
        self.report.count("socket_reset", "ok" if self._ping() else "no_reply")

    def _op_slowloris(self) -> None:
        # Dribble a request slower than the read deadline; the daemon must
        # cut us off rather than hold the connection hostage.
        host, port = self._tcp_address()
        stall = (self.daemon.read_deadline if self.owns_daemon else 1.0) + 0.3
        try:
            with socket.create_connection((host, port), timeout=20) as sock:
                sock.sendall(b'{"cmd": "pi')
                time.sleep(stall)
                sock.settimeout(20)
                data = b""
                try:
                    while not data.endswith(b"\n"):
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        data += chunk
                except OSError:
                    pass
        except OSError:
            data = b""
        if data:
            try:
                reply = json.loads(data.decode("utf-8", errors="replace"))
                status = reply.get("status") if isinstance(reply, dict) else None
            except json.JSONDecodeError:
                status = None
            if status != "protocol_error":
                self.report.violate(
                    f"slowloris expected protocol_error or a cut "
                    f"connection, got {data[:80]!r}"
                )
            self.report.count("slowloris", status or "bad_status")
        else:
            # Connection cut with no reply is acceptable for a stalled
            # half-request too; what matters is the daemon survives.
            self.report.count("slowloris", "ok" if self._ping() else "no_reply")

    def _op_analyze_ok(self) -> None:
        reply = self._analyze({})
        self._expect_status("analyze_ok", reply, "ok")
        if reply and reply.get("status") == "ok":
            self._check_result(reply, "analyze_ok")

    def _inject(self, op: str, kind: str, *allowed: str) -> None:
        query = self.rng.randrange(1, 6)
        reply = self._analyze({"inject_fault": [f"{query}:{kind}"]})
        self._expect_status(op, reply, *allowed)

    # For every inject op, "ok" is also legal: once the daemon's cache is
    # warm an analyze may make fewer solver queries than the fault index,
    # so the fault never fires. What matters is that firing faults produce
    # sound terminal replies and never kill the daemon.

    def _op_inject_crash(self) -> None:
        # The pool worker dies mid-analysis -> degraded, or the analysis
        # contains the crash -> ok, or the worker reports it -> error.
        self._inject("inject_crash", "crash", "ok", "degraded", "error")

    def _op_inject_die(self) -> None:
        self._inject("inject_die", "die", "ok", "degraded", "error")

    def _op_inject_timeout(self) -> None:
        # Solver timeouts degrade to UNKNOWN answers but the run completes.
        self._inject("inject_timeout", "timeout", "ok")

    def _op_inject_error(self) -> None:
        self._inject("inject_error", "error", "ok", "degraded", "error")

    def _op_inject_bad_model(self) -> None:
        self._inject("inject_bad_model", "bad_model", "ok", "degraded", "error")

    def _op_deadline(self) -> None:
        # A starvation budget degrades soundly: the analysis stays on the
        # conservative side (it may report MORE warnings than the refined
        # baseline, never garbage) and says why with budget diagnostics.
        reply = self._analyze({"deadline": 0.0001})
        self._expect_status("deadline", reply, "ok", "degraded")
        if reply and reply.get("status") == "ok":
            result = reply.get("result") or {}
            lines = result.get("lines") or []
            if result.get("exit") not in (0, 1):
                self.report.violate(
                    f"deadline-starved analyze blew up (exit "
                    f"{result.get('exit')!r}): {lines[:3]}"
                )
            elif lines != self.baseline["lines"] and not any(
                "budget" in line.lower() for line in lines
            ):
                self.report.violate(
                    "deadline-starved analyze diverged from baseline "
                    f"without any budget diagnostic: {lines[:3]}"
                )

    def _op_flood(self) -> None:
        # More concurrent clients than queue slots: some must be shed with
        # 'busy', every one must land a terminal reply after retries.
        results: List[Optional[dict]] = [None] * 4

        payload = {
            "cmd": "analyze",
            "lang": self.lang,
            "source": self.source,
            "options": {},
        }

        seeds = [self.rng.randrange(1 << 30) for _ in results]

        def worker(slot: int) -> None:
            # Retry-until-success: 'busy' is an invitation to come back,
            # and early in a daemon's life the retry_after_ms hint can be
            # optimistic, so a fixed retry count is not enough. Only a
            # client that never lands a reply within the window is a
            # violation.
            rng = random.Random(seeds[slot])
            give_up = time.monotonic() + 150
            while time.monotonic() < give_up:
                try:
                    reply = request_with_retry(
                        self.address, payload, timeout=120, retries=4, rng=rng
                    )
                except (ClientError, OSError):
                    time.sleep(0.2 + rng.random())
                    continue
                results[slot] = reply
                if reply.get("status") != "busy":
                    return
                time.sleep(0.2 + rng.random())
            self.report.violate(
                f"flood client {slot} never got through within 150s"
            )

        threads = [
            threading.Thread(target=worker, args=(slot,), daemon=True)
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        for reply in results:
            self._expect_status("flood", reply, "ok")

    def _op_store_corrupt(self) -> None:
        # Flip a byte in a random persisted section between requests; the
        # two-generation store must roll back or start cold, not crash.
        store_dir = self.daemon.store_dir
        victims = []
        if os.path.isdir(store_dir):
            victims = [
                os.path.join(store_dir, name)
                for name in os.listdir(store_dir)
                if name.endswith(".pkl")
            ]
        if victims:
            path = self.rng.choice(victims)
            try:
                with open(path, "r+b") as handle:
                    data = handle.read()
                    if data:
                        pos = self.rng.randrange(len(data))
                        handle.seek(pos)
                        handle.write(bytes([data[pos] ^ 0xFF]))
            except OSError:
                pass
        reply = self._analyze({})
        self._expect_status("store_corrupt", reply, "ok")
        if reply and reply.get("status") == "ok":
            self._check_result(reply, "store_corrupt")

    def _pool_workers(self) -> List[dict]:
        """The daemon's live pooled workers (pid/served/busy), or
        ``[]`` when none is live or the stats request failed."""
        try:
            reply = request_with_retry(
                self.address, {"cmd": "stats"}, timeout=20, retries=3,
                rng=self.rng,
            )
        except (ClientError, OSError):
            return []
        pool = (reply.get("stats") or {}).get("pool") or {}
        return [
            worker
            for worker in pool.get("workers", [])
            if isinstance(worker.get("pid"), int)
        ]

    def _op_pool_kill_idle(self) -> None:
        # SIGKILL a pooled worker *between* requests: the pool must reap
        # the corpse at the next acquire and replace it with a fresh
        # fork — the client-visible reply stays clean 'ok' and identical
        # to the baseline (no degraded, no lost warm state).
        workers = self._pool_workers()
        if not workers:
            # Pool not spawned yet (it forks lazily at the first
            # analyze): warm it up and see if a worker appears.
            reply = self._analyze({})
            self._expect_status("pool_kill_idle", reply, "ok")
            workers = self._pool_workers()
            if not workers:
                return  # no live worker: nothing to aim at
        victim = self.rng.choice(workers)["pid"]
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError:
            pass  # already recycled underneath us
        reply = self._analyze({})
        self._expect_status("pool_kill_idle", reply, "ok")
        if reply and reply.get("status") == "ok":
            self._check_result(reply, "pool_kill_idle")
        survivors = {worker["pid"] for worker in self._pool_workers()}
        if victim in survivors:
            self.report.violate(
                f"pool_kill_idle: murdered worker {victim} still listed "
                "in the pool after a served request"
            )

    def _op_pool_kill_busy(self) -> None:
        # SIGKILL a pooled worker *mid-request*: that request may come
        # back degraded (with a crash repro) or ok (the kill raced its
        # completion), the daemon must survive, and the next analyze
        # must be clean and identical on a replacement worker.
        box: dict = {}

        def run() -> None:
            box["reply"] = self._analyze({})

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        victim = None
        give_up = time.monotonic() + 10
        while victim is None and thread.is_alive() and time.monotonic() < give_up:
            busy = [w["pid"] for w in self._pool_workers() if w.get("busy")]
            if busy:
                victim = self.rng.choice(busy)
                break
            time.sleep(0.02)
        if victim is not None:
            try:
                os.kill(victim, signal.SIGKILL)
            except OSError:
                pass
        thread.join(timeout=150)
        reply = box.get("reply")
        if thread.is_alive():
            self.report.violate(
                "pool_kill_busy: analyze never completed after the kill"
            )
            return
        if victim is None:
            # The request finished before we could aim; the reply must
            # still be clean.
            self._expect_status("pool_kill_busy", reply, "ok")
            return
        self._expect_status("pool_kill_busy", reply, "ok", "degraded")
        if reply and reply.get("status") == "ok":
            self._check_result(reply, "pool_kill_busy")
        follow = self._analyze({})
        if follow is None or follow.get("status") != "ok":
            self.report.violate(
                "pool_kill_busy: follow-up analyze after a mid-request "
                f"worker kill was not ok: {follow and follow.get('status')!r}"
            )
        else:
            self._check_result(follow, "pool_kill_busy")

    def _op_daemon_kill(self) -> None:
        self.daemon.proc.send_signal(signal.SIGKILL)
        try:
            self.daemon.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        self.report.count("daemon_kill", "ok")
        # _campaign notices the death and restarts; the store must come
        # back from its last durable generation.

    # -- verdicts ----------------------------------------------------------

    def _ping(self) -> bool:
        try:
            reply = request_with_retry(
                self.address, {"cmd": "ping"}, timeout=20, retries=3, rng=self.rng
            )
        except (ClientError, OSError):
            return False
        return bool(reply.get("ok"))

    def _check_result(self, reply: dict, op: str) -> None:
        result = reply.get("result") or {}
        if result.get("lines") != self.baseline["lines"] or result.get(
            "exit"
        ) != self.baseline["exit"]:
            self.report.violate(
                f"op {op!r} analyze diverged from the one-shot baseline"
            )

    def _final_check(self) -> None:
        self._say("post-campaign invariant: analyze == fresh one-shot")
        reply = self._analyze({})
        ok = (
            reply is not None
            and reply.get("status") == "ok"
            and (reply.get("result") or {}).get("lines") == self.baseline["lines"]
            and (reply.get("result") or {}).get("exit") == self.baseline["exit"]
        )
        self.report.final_match = bool(ok)
        if not ok:
            self.report.violate(
                "post-campaign analyze did not match the fresh one-shot baseline"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="fault-injection campaign against a repro serve daemon",
    )
    parser.add_argument(
        "--faults",
        type=int,
        default=200,
        metavar="N",
        help="how many hostile operations to deliver (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign RNG seed (default 0)"
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help="attack an already-running daemon at ADDR (unix:PATH or "
        "tcp:HOST:PORT) instead of launching one; disk-level ops "
        "(store corruption, daemon kill) are skipped",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help="analyze this source file instead of the built-in staircase",
    )
    parser.add_argument(
        "--lang", choices=["mix", "mixy"], default=DEFAULT_LANG
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    source = None
    if args.corpus:
        with open(args.corpus, encoding="utf-8") as handle:
            source = handle.read()

    campaign = ChaosCampaign(
        address=args.connect,
        faults=args.faults,
        seed=args.seed,
        lang=args.lang,
        source=source,
        quiet=args.quiet or args.json,
    )
    report = campaign.run()

    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"chaos: {report.faults} faults, seed {report.seed}")
        for op, count in sorted(report.ops.items()):
            print(f"  {op:<16} x{count}")
        print(f"  statuses: {json.dumps(report.statuses, sort_keys=True)}")
        print(f"  daemon restarts: {report.daemon_restarts}")
        print(
            "  final analyze matches one-shot baseline: "
            f"{report.final_match}"
        )
        if report.violations:
            print(f"chaos: {len(report.violations)} VIOLATIONS:")
            for violation in report.violations:
                print(f"  - {violation}")
        else:
            print("chaos: no violations")
    return 0 if not report.violations else 1


if __name__ == "__main__":
    raise SystemExit(main())
