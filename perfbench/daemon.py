"""The ``daemon-mixed`` workload: ``repro serve --pool 2 --store DIR``
driven by a closed loop of two clients that each wait for their reply.

Requests come in rounds of three, one of each kind in an order the
seed draws: a warm ``analyze`` of the unchanged base program (store
reads), an ``analyze`` of a seeded meaning-preserving edit (one cone
re-executed, store writes, journal-delta merges), and a ``prove`` of a
seed-chosen shipped property file in either frontend.  Equal shares are
an assumption, not a measured traffic shape: nothing in the repository
records one.  Fixed shares keep runs of different seeds comparable:
drawn independently, the share of each kind a seed happens to get would
move the median latency.  The per-kind median latencies are reported too
(``serve.p50_ms.KIND``), so a later change can re-weight them.

Each client opens a fresh connection per request, like the CLI client.
Sheds (``busy``), errors, timeouts and wrong answers are failures; none
is retried.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import workloads

#: Depth of the ``parallel_vsftpd`` base program (that of the E21 load).
BASE_DEPTH = 2
CLIENTS = 2
POOL = 2
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Requests per run, whatever ``--seconds`` says: enough for the p90 to
#: have at least ten samples beyond it.
MIN_REQUESTS = 100
TAIL_PERCENTILE = 90
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
KINDS = ("warm", "edit", "prove")


class Daemon:
    """One ``repro serve`` subprocess on a loopback TCP port."""

    def __init__(self, workdir: str, name: str, env: dict) -> None:
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        self.log = open(os.path.join(self.dir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0",
             "--pool", str(POOL), "--store", os.path.join(self.dir, "store"),
             "--crash-dir", os.path.join(self.dir, "crashes")],
            cwd=self.dir, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True, start_new_session=True,
        )
        self.address: tuple[str, int] = ("", 0)

    def wait_listening(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        prefix = "repro-serve: listening on tcp:"
        if not line.startswith(prefix):
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, _, port = line[len(prefix):].strip().rpartition(":")
        self.address = (host, int(port))

    def request(self, payload: dict) -> tuple[dict, float]:
        """One request over a fresh connection; returns the reply and the
        connect time in ms.  Raises ``OSError`` / ``ValueError``."""
        started = time.monotonic()
        with socket.create_connection(self.address, timeout=REQUEST_TIMEOUT_S) as sock:
            connect_ms = (time.monotonic() - started) * 1000.0
            sock.sendall((json.dumps(payload) + "\n").encode())
            reply = sock.makefile("rb").readline()
        if not reply.endswith(b"\n"):
            raise ValueError("connection closed without a full reply")
        return json.loads(reply), connect_ms

    def peak_rss_mb(self, worker_pids: list[int]) -> float:
        """Peak resident memory of the daemon plus its live pool workers."""
        return sum(_status_mb(pid, "VmHWM") for pid in [self.proc.pid, *worker_pids])

    def stop(self) -> None:
        """Shut the daemon down and wait for it; kill its whole process
        group (the pool workers too) if it does not go."""
        if self.proc.poll() is None:
            try:
                self.request({"cmd": "shutdown"})
                self.proc.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _analyze(source: str) -> dict:
    return {"cmd": "analyze", "lang": "mixy", "source": source, "options": {}}


def _analyze_ok(reply: dict) -> bool:
    if reply.get("status") != "ok":
        return False
    result = reply["result"]
    lines = result.get("lines", [])
    return (
        result.get("exit") == 1
        and len(lines) == 2
        and workloads.staircase_ok(lines[:1])
        and lines[1] == "1 warning(s)"
    )


def _prove_ok(reply: dict, expected: str) -> bool:
    return reply.get("status") == "ok" and reply["result"].get("verdict") == expected


def schedule(seed: int, base: str, properties: dict[str, str]):
    """Endless seeded request stream: (kind, payload, check)."""
    rng = random.Random(seed)
    leaves = workloads.leaf_count(base)
    sites = list(range(leaves))
    names = sorted(properties)
    edits = 0
    proves = 0
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "warm":
                yield kind, _analyze(base), _analyze_ok
            elif kind == "edit":
                if edits % leaves == 0:
                    rng.shuffle(sites)
                source = workloads.edited_staircase(
                    base, sites[edits % leaves], 1 + edits // leaves
                )
                edits += 1
                yield kind, _analyze(source), _analyze_ok
            else:
                if proves % len(names) == 0:
                    rng.shuffle(names)
                name = names[proves % len(names)]
                proves += 1
                path = f"{workloads.PROPERTIES_DIR}/{name}"
                payload = {
                    "cmd": "prove",
                    "lang": "mixy" if name.endswith(".c") else "mix",
                    "source": properties[name],
                    "options": {"name": path},
                }
                expected = workloads.PROPERTY_VERDICTS[name]
                yield kind, payload, (lambda reply, e=expected: _prove_ok(reply, e))


def _start(workdir: str, name: str, env: dict, base: str) -> tuple[Daemon, float]:
    """Spawn, listen, fork the pool and answer the first cold analyze;
    returns the daemon and the set-up time."""
    launch = time.monotonic()
    daemon = Daemon(workdir, name, env)
    try:
        daemon.wait_listening()
        reply, _ = daemon.request(_analyze(base))
        if not _analyze_ok(reply):
            raise RuntimeError(f"wrong cold answer: {json.dumps(reply)[:300]}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.monotonic() - launch


def run(seed: int, seconds: float, trace: bool, workdir: str, env: dict) -> dict:
    from repro.mixy.corpus_vsftpd import parallel_vsftpd

    base = parallel_vsftpd(depth=BASE_DEPTH)
    properties = {}
    for name in workloads.PROPERTY_VERDICTS:
        with open(os.path.join(workloads.PROPERTIES_DIR, name)) as handle:
            properties[name] = handle.read()

    setups = []
    for index in range(SETUPS - 1):
        daemon, setup_s = _start(workdir, f"setup-{index}", env, base)
        daemon.stop()
        setups.append(setup_s)
    daemon, setup_s = _start(workdir, "serve", env, base)
    setups.append(setup_s)

    stream = schedule(seed, base, properties)
    lock = threading.Lock()
    done: list[tuple[str, float, float, bool, str]] = []
    spans: list[dict] = []
    issued = [0]
    started = time.monotonic()
    hard_stop = started + 2 * seconds + 30.0

    def client(client_id: int) -> None:
        while True:
            with lock:
                now = time.monotonic()
                if now > hard_stop or (now - started >= seconds and len(done) >= MIN_REQUESTS):
                    return
                request_id = issued[0]
                issued[0] += 1
                kind, payload, check = next(stream)
            sent = time.monotonic()
            connect_ms = 0.0
            try:
                reply, connect_ms = daemon.request(payload)
                ok = check(reply)
                why = "" if ok else f"{kind}: {json.dumps(reply)[:300]}"
            except Exception as error:  # a failed request, never a dead client
                ok, why = False, f"{kind}: {type(error).__name__}: {error}"
            finished = time.monotonic()
            with lock:
                done.append((kind, finished - sent, connect_ms, ok, why))
                if trace:
                    spans.append({"run": request_id, "name": f"serve.request.{kind}",
                                  "client": client_id, "start": sent, "end": finished,
                                  "connect_ms": connect_ms})

    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop_s = time.monotonic() - started
        stats_reply, _ = daemon.request({"cmd": "stats"})
        stats = stats_reply["stats"]
        pool = stats.get("pool", {})
        worker_pids = [w["pid"] for w in pool.get("workers", [])]
        rss_mb = daemon.peak_rss_mb(worker_pids)
        worker_rss = [_status_mb(pid, "VmRSS") for pid in worker_pids]
    finally:
        daemon.stop()

    ok_latencies = sorted(latency for _, latency, _, ok, _ in done if ok)
    errors = [why for _, _, _, ok, why in done if not ok]
    extra = []
    if ok_latencies:
        p50 = statistics.median(ok_latencies)
        tail = statistics.quantiles(ok_latencies, n=100, method="inclusive")[
            TAIL_PERCENTILE - 1
        ]
        beyond = sum(1 for x in ok_latencies if x > tail)
        extra.append(f"{'req_p50_ms':<14} {p50 * 1000:12.4f} ms   (n={len(ok_latencies)})")
        extra.append(f"{'req_tail_ms':<14} {tail * 1000:12.4f} ms   "
                     f"(p{TAIL_PERCENTILE}, {beyond} samples beyond it)")
    kind_p50_ms = {}
    for kind in KINDS:
        by_kind = [l for k, l, _, ok, _ in done if ok and k == kind]
        if by_kind:
            kind_p50_ms[kind] = statistics.median(by_kind) * 1000
            extra.append(f"  {kind:<6} p50 {kind_p50_ms[kind]:9.2f} ms  (n={len(by_kind)})")
    extra.append(f"closed loop: {CLIENTS} clients, pool {POOL}, {len(done)} requests "
                 f"in {loop_s:.2f} s")
    extra.append("no exact counters: with two concurrent clients the store and "
                 "cache counters depend on arrival order")
    store = stats.get("store", {})
    hits = store.get("mixy_hits", 0)
    misses = store.get("mixy_misses", 0)
    connects = [c for _, _, c, ok, _ in done if ok]
    layers = {
        "store.mixy_hits": hits,
        "store.mixy_misses": misses,
        "store.mixy_records": store.get("mixy_records", 0),
        "store.solver_entries_loaded": store.get("solver_entries_loaded", 0),
        "store.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.shed": stats.get("shed", 0),
        "serve.worker_crashes": stats.get("worker_crashes", 0),
        "serve.pool.forks": pool.get("forks", 0),
        "serve.pool.recycles": pool.get("recycles", 0),
        "serve.worker_rss_mb": max(worker_rss, default=0.0),
        "serve.connect_ms": statistics.median(connects) if connects else 0.0,
        **{f"serve.p50_ms.{kind}": kind_p50_ms.get(kind, 0.0) for kind in KINDS},
        "trace.spans": len(spans),
    }
    if trace:
        write_spans(workdir, spans)
        extra.append("tracing overhead: not measured; the daemon and its workers run "
                     "unwrapped, the spans are the clients' requests")
    return {
        "attempted": len(done),
        "failed": len(errors),
        "errors": errors,
        "drift": [],
        "exact": [],
        "series": {
            "setup_s": setups,
            "verdict_s": ok_latencies,
            "peak_rss_mb": [rss_mb],
        },
        "req_per_s": len(ok_latencies) / loop_s,
        "extra": extra,
        "layers": layers,
        "layer_self": {},
    }


def _status_mb(pid: int, field: str) -> float:
    """A memory field of ``/proc/PID/status`` in MB (0 once the process
    is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def write_spans(workdir: str, spans: list[dict]) -> None:
    with open(os.path.join(workdir, "spans-client.jsonl"), "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
