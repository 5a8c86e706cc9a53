"""E21 — concurrent daemon throughput with the prefork worker pool.

What *concurrent* analyze dispatch over persistent prefork workers
buys, and what request isolation costs.  Two curves on the staircase
vsftpd corpus, all daemons as real subprocesses over loopback TCP:

* **throughput** — eight concurrent clients fire a warm request burst
  (via the ``repro client --bench`` load generator's engine) at a
  four-worker pool and at a one-worker pool (``--pool 1``), which
  serializes analyses through its single worker — so the ratio is what
  pool width buys;
* **isolation overhead** — one cold analyze, then four warm ones,
  serial, against ``--no-isolate``: a pooled worker is forked once and
  reused, so the per-request price is pickle plus a journal-suffix
  cache delta.

Acceptance bars:

* every reply — pooled, serial, in-process, cold or warm — is bitwise
  identical to a fresh one-shot ``repro mixy --jobs 1`` run;
* with >=4 CPU cores, pooled throughput is **>=3x** the serialized
  daemon's; on any machine it never drops below 0.8x (the pool must
  not cost throughput even where it cannot buy parallelism);
* pooled isolation overhead on the cold+warm series is **<=5%** over
  in-process.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.mixy.corpus_vsftpd import parallel_vsftpd
from repro.serve import bench, request

from conftest import bench_json, print_table

DEPTH = 2
POOL = 4
BENCH_REQUESTS = 16
BENCH_CONCURRENCY = 8
WARM_REQUESTS = 4
OVERHEAD_REPS = 5  # min-of-K: single cold runs jitter ~10-30% on busy boxes
SPEEDUP_BAR = 3.0  # enforced when the machine can actually parallelize
SPEEDUP_FLOOR = 0.8
OVERHEAD_BAR = 0.05

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_daemon(tmp, store, *extra):
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--listen", "127.0.0.1:0", "--store", str(tmp / store),
        # Keep persistence noise out of the timing: shed nothing, save
        # once at shutdown.
        "--queue-depth", "32", "--save-every", "1000",
        "--checkpoint-secs", "0", *extra,
    ]
    proc = subprocess.Popen(
        argv, cwd=tmp, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    announce = proc.stdout.readline()
    assert "listening on tcp:" in announce, announce
    return proc, announce.rsplit(" ", 1)[-1].strip()


def _payload(source):
    return {"cmd": "analyze", "lang": "mixy", "source": source,
            "options": {}}


def _throughput_series(tmp, source, mode, *extra):
    """One daemon life: a cold warm-up analyze (not timed), then a
    BENCH_REQUESTS x BENCH_CONCURRENCY warm burst through ``bench``."""
    proc, address = _start_daemon(tmp, f"store-{mode}", *extra)
    payload = _payload(source)
    try:
        cold = request(address, payload, timeout=300)
        assert cold["ok"], cold
        report = bench(
            address, payload,
            requests=BENCH_REQUESTS, concurrency=BENCH_CONCURRENCY,
            timeout=300,
        )
        stats = request(address, {"cmd": "stats"})["stats"]
        request(address, {"cmd": "shutdown"})
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert report["completed"] == BENCH_REQUESTS, report["errors"]
    assert report["ok"] == BENCH_REQUESTS, report["statuses"]
    return {
        "cold_result": cold["result"],
        "results": report["results"],
        "throughput_rps": report["throughput_rps"],
        "wall_secs": report["wall_secs"],
        "p50_ms": report["p50_ms"],
        "p95_ms": report["p95_ms"],
        "p99_ms": report["p99_ms"],
        "pool": stats.get("pool") or {},
        "epoch": stats.get("epoch", 0),
    }


def _overhead_pairs(tmp, source):
    """One cold analyze then WARM_REQUESTS warm ones, serial, fresh
    daemon + store per life — run as OVERHEAD_REPS
    *adjacent* (pooled, in-process) pairs.  The cold analysis dominates
    the series and jitters far more than the 5% bar on a loaded
    machine (one 1s scheduler stall inside a ~3.5s CPU-bound rep is
    ~30%), and the noise drifts over minutes — so reps of the two modes
    are interleaved (both modes sample every load phase) and the
    representative overhead compares each mode's *quietest* rep.  A
    pairwise ratio would need both reps of one pair to dodge the noise
    at once; min-vs-min only needs each mode to get one clean rep
    somewhere in the series."""
    pairs = []
    for i in range(OVERHEAD_REPS):
        pooled = _overhead_once(
            tmp, source, f"iso-pooled-{i}", "--pool", str(POOL)
        )
        inproc = _overhead_once(tmp, source, f"iso-inproc-{i}", "--no-isolate")
        pairs.append((pooled, inproc))
    ratios = [p["total_secs"] / i["total_secs"] for p, i in pairs]
    pooled_reps = [p for p, _ in pairs]
    inproc_reps = [i for _, i in pairs]
    best_pooled = min(pooled_reps, key=lambda r: r["total_secs"])
    best_inproc = min(inproc_reps, key=lambda r: r["total_secs"])
    for rep, reps in ((best_pooled, pooled_reps), (best_inproc, inproc_reps)):
        rep["total_secs_each_rep"] = [round(r["total_secs"], 4) for r in reps]
        rep["all_results"] = [res for r in reps for res in r["results"]]
    best_pooled["overhead"] = (
        best_pooled["total_secs"] / best_inproc["total_secs"] - 1.0
    )
    best_pooled["overhead_each_rep"] = [round(r - 1.0, 4) for r in ratios]
    return best_pooled, best_inproc


def _overhead_once(tmp, source, life, *extra):
    proc, address = _start_daemon(tmp, f"store-{life}", *extra)
    payload = _payload(source)
    try:
        timings = []
        replies = []
        for _ in range(1 + WARM_REQUESTS):
            start = time.monotonic()
            reply = request(address, payload, timeout=300)
            timings.append(time.monotonic() - start)
            assert reply["ok"], reply
            replies.append(reply)
        stats = request(address, {"cmd": "stats"})["stats"]
        request(address, {"cmd": "shutdown"})
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert bool(stats["isolated_workers"]) == ("--no-isolate" not in extra)
    warm = timings[1:]
    return {
        "cold_secs": timings[0],
        "warm_secs_each": warm,
        "warm_secs_mean": sum(warm) / len(warm),
        "total_secs": sum(timings),
        "results": [r["result"] for r in replies],
        "warm_memo_hits": replies[-1]["served"]["store"].get("mixy_hits", 0),
    }


def _one_shot(tmp, source):
    path = tmp / "baseline.c"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "mixy", str(path), "--jobs", "1"],
        capture_output=True, text=True, env=_env(), cwd=tmp, timeout=300,
    )
    return {"exit": proc.returncode, "lines": proc.stdout.splitlines()}


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool needs fork")
    tmp = tmp_path_factory.mktemp("e21-throughput")
    source = parallel_vsftpd(depth=DEPTH)
    iso_pooled, iso_inproc = _overhead_pairs(tmp, source)
    return {
        "baseline": _one_shot(tmp, source),
        "pooled": _throughput_series(
            tmp, source, "pooled", "--pool", str(POOL)
        ),
        "serial": _throughput_series(tmp, source, "serial", "--pool", "1"),
        "iso_pooled": iso_pooled,
        "iso_inproc": iso_inproc,
    }


def test_concurrency_never_leaks_into_answers(measurements):
    baseline = measurements["baseline"]
    for mode in ("pooled", "serial"):
        assert measurements[mode]["cold_result"] == baseline, mode
        for result in measurements[mode]["results"]:
            assert result == baseline, mode
    for mode in ("iso_pooled", "iso_inproc"):
        for result in measurements[mode]["all_results"]:
            assert result == baseline, mode


def test_pool_actually_ran_and_merged(measurements):
    pooled = measurements["pooled"]
    assert pooled["pool"].get("forks", 0) >= 1
    assert pooled["epoch"] >= 1  # the cold request's memos were merged
    assert measurements["serial"]["pool"].get("forks", 0) >= 1


def test_pooled_throughput_beats_the_serialized_daemon(measurements):
    pooled = measurements["pooled"]["throughput_rps"]
    serial = measurements["serial"]["throughput_rps"]
    speedup = pooled / serial
    assert speedup >= SPEEDUP_FLOOR, (
        f"pool made throughput worse: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR:.1f}x)"
    )
    if (os.cpu_count() or 1) >= POOL:
        assert speedup >= SPEEDUP_BAR, (
            f"pooled throughput only {speedup:.2f}x the serialized "
            f"daemon's on a {os.cpu_count()}-core machine "
            f"(bar {SPEEDUP_BAR:.1f}x)"
        )


def test_pooled_isolation_overhead_is_under_the_bar(measurements):
    overhead = measurements["iso_pooled"]["overhead"]
    assert overhead <= OVERHEAD_BAR, (
        f"pooled workers cost {overhead:.1%} over in-process "
        f"(bar {OVERHEAD_BAR:.0%}; per-pair "
        f"{measurements['iso_pooled']['overhead_each_rep']})"
    )


def test_both_overhead_series_went_warm(measurements):
    for mode in ("iso_pooled", "iso_inproc"):
        m = measurements[mode]
        assert m["warm_memo_hits"] > 0, mode
        assert m["warm_secs_mean"] < m["cold_secs"], mode


def test_report(measurements, capsys):
    pooled = measurements["pooled"]
    serial = measurements["serial"]
    speedup = pooled["throughput_rps"] / serial["throughput_rps"]
    overhead = measurements["iso_pooled"]["overhead"]
    rows = [
        [
            mode,
            f"{m['throughput_rps']:.2f}",
            f"{m['wall_secs']:.3f}",
            f"{m['p50_ms']:.0f}",
            f"{m['p95_ms']:.0f}",
            f"{m['p99_ms']:.0f}",
            m["pool"].get("forks", 0),
            m["pool"].get("recycles", 0),
        ]
        for mode, m in (("pooled", pooled), ("serial", serial))
    ]
    rows.extend(
        [
            mode,
            f"{1.0 / m['warm_secs_mean']:.2f}",
            f"{m['total_secs']:.3f}",
            f"{m['warm_secs_mean'] * 1000:.0f}",
            "-", "-", "-", "-",
        ]
        for mode, m in (
            ("iso_pooled", measurements["iso_pooled"]),
            ("iso_inproc", measurements["iso_inproc"]),
        )
    )
    title = (
        f"E21: pooled daemon throughput (depth {DEPTH}, "
        f"{BENCH_REQUESTS} reqs x{BENCH_CONCURRENCY} clients, "
        f"{os.cpu_count()} cores: {speedup:.2f}x, "
        f"isolation overhead {overhead:+.1%})"
    )
    with capsys.disabled():
        print_table(
            title,
            ["mode", "req/s", "wall s", "p50 ms", "p95 ms", "p99 ms",
             "forks", "recycles"],
            rows,
        )
    payload = {
        "experiment": "E21",
        "depth": DEPTH,
        "pool": POOL,
        "cpu_count": os.cpu_count(),
        "bench_requests": BENCH_REQUESTS,
        "bench_concurrency": BENCH_CONCURRENCY,
        "speedup": round(speedup, 4),
        "speedup_bar": SPEEDUP_BAR,
        "speedup_bar_enforced": (os.cpu_count() or 1) >= POOL,
        "speedup_floor": SPEEDUP_FLOOR,
        "overhead": round(overhead, 4),
        "overhead_each_rep": measurements["iso_pooled"]["overhead_each_rep"],
        "overhead_bar": OVERHEAD_BAR,
        "throughput": {
            mode: {
                "throughput_rps": round(m["throughput_rps"], 4),
                "wall_secs": round(m["wall_secs"], 4),
                "p50_ms": round(m["p50_ms"], 2),
                "p95_ms": round(m["p95_ms"], 2),
                "p99_ms": round(m["p99_ms"], 2),
                "pool": m["pool"],
                "epoch": m["epoch"],
            }
            for mode, m in (("pooled", pooled), ("serial", serial))
        },
        "isolation": {
            mode: {
                "cold_secs": round(m["cold_secs"], 4),
                "warm_secs_mean": round(m["warm_secs_mean"], 4),
                "warm_secs_each": [round(s, 4) for s in m["warm_secs_each"]],
                "total_secs": round(m["total_secs"], 4),
                "total_secs_each_rep": m["total_secs_each_rep"],
                "warm_memo_hits": m["warm_memo_hits"],
            }
            for mode, m in (
                ("pooled", measurements["iso_pooled"]),
                ("inproc", measurements["iso_inproc"]),
            )
        },
        "result_identity": all(
            result == measurements["baseline"]
            for mode in ("pooled", "serial", "iso_pooled", "iso_inproc")
            for result in measurements[mode]["results"]
        ),
    }
    bench_json("E21", payload)
