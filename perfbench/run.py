"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each one exists):

- ``staircase-serial``: cold ``Mixy(...).run()`` at ``--jobs 1`` on
  ``parallel_vsftpd``, one fresh interpreter per sample;
- ``prove-parallel``: cold ``prove_source`` of ``property_staircase`` with
  ``jobs=2``;
- ``wide-typed``: one program made of seeded, renamed ``mini_vsftpd``
  copies, then the shipped property suite through ``prove_files``;
- ``daemon-mixed``: ``repro serve --pool 2`` driven by two closed-loop
  clients with a seeded mix of warm, edited and ``prove`` requests.

Every output is checked against a hand-written answer (``workloads.py``);
a mismatch, error, crash, timeout or ``busy`` shed counts as a failed
operation and makes the run incorrect.  Deterministic counters must repeat
exactly across the cold samples of a run; drift is a benchmark error.

``--trace 0`` measures the end-to-end metrics with no wrapper installed
and ``repro.trace.TRACER`` off.  ``--trace 1`` alternates untraced and
traced samples, reports the per-layer metrics plus the tracing overhead
(traced minus untraced median ``verdict_s``) and checks the workload's
role (``role_checks``); a role that does not hold makes the run
incorrect.  Metric names and units come from ``BENCHMARK.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import daemon
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Input sizes (a sample of each one-shot workload takes a few seconds on
#: a 2-core x86-64 container).
STAIRCASE_DEPTH = 2
PROPERTY_DEPTH = 2
WIDE_COPIES = 15
#: Cold samples per run, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: A sample that takes longer than this counts as a timeout.
SAMPLE_TIMEOUT_S = 45.0

WORKLOADS = ("staircase-serial", "prove-parallel", "wide-typed", "daemon-mixed")

#: Counters that must repeat exactly across the cold samples of a run.
#: ``theory_rounds`` (and the SAT conflict counts) are left out: terms
#: hash by ``id()``, so the lazy loop meets atoms in an order that
#: depends on the process's memory layout (seen: 80 or 81 rounds on the
#: same wide-typed input).  Under ``jobs=2`` only the amount of work is
#: fixed: which pool worker speculates which block first changes the
#: cache entries imported, and with them the authoritative pass's split
#: between cache hits and full solves (seen: 72 or 83 full solves).
SERIAL_EXACT = (
    "queries",
    "syntactic_hits",
    "exact_hits",
    "subset_hits",
    "superset_hits",
    "model_eval_hits",
    "cache_hits",
    "full_solves",
    "mixy.fixpoint_iterations",
    "mixy.symbolic_blocks_run",
    "mixy.cache_hits",
)
EXACT_COUNTERS = {
    "staircase-serial": SERIAL_EXACT,
    "wide-typed": SERIAL_EXACT,
    "prove-parallel": (
        "queries",
        "speculative_blocks",
        "mixy.fixpoint_iterations",
        "mixy.symbolic_blocks_run",
        "mixy.cache_hits",
    ),
}

#: Where ``--trace 1`` leaves the spans of its last run, per workload.
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")


# -- helpers ------------------------------------------------------------------


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of every ``end_to_end`` or ``per_layer`` metric in
    ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def child_env() -> dict[str, str]:
    """The analysed processes' environment: the checkout's sources, and no
    ``REPRO_*`` setting inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def exact_drift(workload: str, records: list[dict]) -> tuple[list[str], list[str]]:
    """Which exact counters were seen, and which of them drifted."""
    seen, drift = [], []
    for key in EXACT_COUNTERS[workload]:
        values = {r["counters"][key] for r in records if key in r["counters"]}
        if not values:
            continue
        seen.append(key)
        if len(values) > 1:
            drift.append(f"{key}: {sorted(values)}")
    return seen, drift


# -- one-shot workloads -----------------------------------------------------------


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the run's inputs into ``workdir``; return what the checks need."""
    from repro.mixy.corpus_vsftpd import parallel_vsftpd, property_staircase

    if workload == "staircase-serial":
        text, expect = parallel_vsftpd(depth=STAIRCASE_DEPTH), {}
        name = "staircase.c"
    elif workload == "prove-parallel":
        text, expect = property_staircase(depth=PROPERTY_DEPTH), {}
        name = "property.c"
    else:
        text, copies = workloads.wide_program(WIDE_COPIES, seed)
        expect = {"copies": copies}
        name = "wide.c"
    with open(os.path.join(workdir, name), "w") as handle:
        handle.write(text)
    return expect


def output_ok(workload: str, output: dict, expect: dict) -> bool:
    if workload == "staircase-serial":
        return workloads.staircase_ok(output["warnings"])
    if workload == "prove-parallel":
        return output["verdict"] == workloads.PROPERTY_VERDICT
    return workloads.wide_ok(output["warnings"], expect["copies"]) and (
        workloads.suite_ok(output["suite"])
    )


def compile_sources() -> None:
    """Write the program's bytecode caches before timing, so no sample
    pays for compiling (a checkout starts without them)."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def cold_sample(workload: str, workdir: str, traced: bool, index: int) -> dict:
    """Run one fresh interpreter; returns its record plus ``wall_s``, or
    ``{"error": ...}``."""
    spans = os.path.join(workdir, f"spans-{index}.jsonl")
    launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sample.py"), workload, workdir,
         repr(launch), "1" if traced else "0", spans],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the sample's own workers (jobs=2) share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {SAMPLE_TIMEOUT_S:g}s"}
    wall = time.monotonic() - launch
    if proc.returncode != 0:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {tail}"}
    record = json.loads(stdout.strip().splitlines()[-1])
    record["wall_s"] = wall
    return record


def run_one_shot(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    expect = make_inputs(workload, seed, workdir)
    records: list[dict] = []
    errors: list[str] = []
    attempted = 0
    started = time.monotonic()
    while attempted < MIN_SAMPLES * (2 if trace else 1) or (
        time.monotonic() - started < seconds
    ):
        traced = trace and attempted % 2 == 1
        record = cold_sample(workload, workdir, traced, attempted)
        attempted += 1
        if "error" in record:
            errors.append(record["error"])
            continue
        if not output_ok(workload, record["output"], expect):
            errors.append(f"wrong output: {json.dumps(record['output'])[:400]}")
            continue
        record["traced"] = traced
        records.append(record)
    untraced = [r for r in records if not r["traced"]]
    exact, drift = exact_drift(workload, records)
    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "drift": drift,
        "exact": exact,
        "series": {
            "setup_s": [r["setup_s"] for r in untraced],
            "verdict_s": [r["verdict_s"] for r in untraced],
            "peak_rss_mb": [r["rss_mb"] for r in untraced],
        },
        # derived, not a measurement of its own: one client, one fresh
        # interpreter per verdict, so about 1 / (setup_s + verdict_s); it is
        # reported because every workload reports every end-to-end metric
        "req_per_s": 1.0 / statistics.median(r["wall_s"] for r in untraced)
        if untraced else 0.0,
        "extra": ["req_per_s is derived here: 1 / median launch-to-exit time of a "
                  "sample, one client"],
    }
    if trace:
        traced = [r for r in records if r["traced"]]
        layers: dict[str, float] = {}
        for name in traced[0]["layers"] if traced else ():
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        if traced and untraced:
            layers["trace.overhead_s"] = statistics.median(
                r["verdict_s"] for r in traced
            ) - statistics.median(r["verdict_s"] for r in untraced)
        result["layers"] = layers
        result["layer_self"] = {
            name: statistics.median(r["layer_self"][name] for r in traced)
            for name in (traced[0]["layer_self"] if traced else ())
        }
    return result


def keep_spans(workdir: str, workload: str) -> None:
    """Concatenate the run's span files into ``TRACE_DIR/WORKLOAD.jsonl``."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"{workload}.jsonl"), "w") as out:
        for name in sorted(os.listdir(workdir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(workdir, name)) as handle:
                    shutil.copyfileobj(handle, out)


# -- report --------------------------------------------------------------------


#: Layers that must be active on exactly one workload.
ACTIVE_ONLY_ON = {
    "parallel.": "prove-parallel",
    "store.": "daemon-mixed",
    "serve.": "daemon-mixed",
}


def role_checks(workload: str, layers: dict, layer_self: dict) -> tuple[list[str], list[str]]:
    """Check the workload's stated role against the trace; returns the
    report lines and the statements that do not hold."""
    lines: list[str] = []
    failures: list[str] = []

    def check(holds: bool, statement: str) -> None:
        lines.append(f"role: {statement}: {'holds' if holds else 'DOES NOT HOLD'}")
        if not holds:
            failures.append(statement)

    total_self = sum(layer_self.values())
    if workload in ("staircase-serial", "wide-typed") and total_self == 0:
        check(False, "the trace records self time")
    if total_self > 0:
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])
        lines.append("self time by layer: " + ", ".join(
            f"{name} {100 * value / total_self:.1f}%" for name, value in ranked if value > 0
        ))
        smt_share = sum(v for k, v in layer_self.items() if k.startswith("smt.")) / total_self
        if workload == "staircase-serial":
            check(smt_share > 0.5, f"smt.* is the majority of self time ({100 * smt_share:.1f}%)")
        if workload == "wide-typed":
            check(smt_share < 0.5, f"smt.* is a minority of self time ({100 * smt_share:.1f}%)")
            check(ranked[0][0] == "mixy.qual",
                  f"mixy.qual is the largest layer (largest: {ranked[0][0]})")
    for prefix, owner in ACTIVE_ONLY_ON.items():
        nonzero = any(v for k, v in layers.items() if k.startswith(prefix))
        state = "non-zero" if workload == owner else "zero"
        check(nonzero == (workload == owner), f"{prefix}* is {state}")
    return lines, failures


def report(workload: str, seed: int, result: dict, trace: bool) -> tuple[dict, list[str]]:
    """Print the report; returns the metrics of the result line and the
    role statements that do not hold."""
    units = metric_units("end_to_end")
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)}")
    print("note: every BENCH_E*.json wall time in the repository was taken with "
          "repro.trace.TRACER on; these end-to-end figures are untraced.")
    metrics: dict[str, dict] = {}
    for name, series in result["series"].items():
        if not series:
            continue
        q1, q2, q3 = quartiles(series)
        print(f"  {name:<14} {q2:12.4f} {units[name]:<4} "
              f"(p25 {q1:.4f}, p75 {q3:.4f}, min {min(series):.4f}, n={len(series)})")
        metrics[name] = {"value": q2, "unit": units[name]}
    metrics["req_per_s"] = {"value": result["req_per_s"], "unit": units["req_per_s"]}
    print(f"  {'req_per_s':<14} {result['req_per_s']:12.4f} {units['req_per_s']:<4} "
          f"(n={result['attempted'] - result['failed']})")
    for line in result.get("extra", []):
        print("  " + line)
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_frac':<14} {failed_frac:12.4f} ratio "
          f"({result['failed']} of {result['attempted']})")
    for error in result["errors"][:5]:
        print(f"  failure: {error}")
    if result.get("exact"):
        print("  exact counters: " + ", ".join(result["exact"]))
    for line in result["drift"]:
        print(f"  EXACT-COUNT DRIFT: {line}")
    role_failures: list[str] = []
    if trace:
        layers = result.get("layers", {})
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }
        lines, role_failures = role_checks(workload, layers, result.get("layer_self", {}))
        for line in lines:
            print("  " + line)
        overhead = layers.get("trace.overhead_s")
        if overhead is not None:
            print(f"  tracing overhead: {overhead:+.4f} s on median verdict_s")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:14.6f} {entry['unit']}")
    return metrics, role_failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        compile_sources()
        if args.workload == "daemon-mixed":
            result = daemon.run(args.seed, args.seconds, bool(args.trace), workdir,
                                child_env())
        else:
            result = run_one_shot(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
        if args.trace:
            keep_spans(workdir, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    metrics, role_failures = report(args.workload, args.seed, result, bool(args.trace))
    attempted = result["attempted"]
    correct = (result["failed"] == 0 and not result["drift"] and not role_failures
               and attempted > 0)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
