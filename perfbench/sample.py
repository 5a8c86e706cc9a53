"""One cold sample of a one-shot workload, in a fresh interpreter.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/sample.py WORKLOAD INPUT_DIR LAUNCH TRACE SPANS

``LAUNCH`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start plus the imports.
``TRACE`` is ``1`` to wrap the layers (see ``layers.py``) and write the
spans to ``SPANS``.  The last stdout line is one JSON object: timings,
the analysis output, the program's counters and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import PROPERTIES_DIR


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def main() -> int:
    workload, inputs, launch, trace, spans_path = sys.argv[1:6]
    from repro import smt
    # called through the module, so the wrappers installed below see it
    from repro import prove
    from repro.mixy import Mixy, MixyConfig

    ready = time.monotonic()
    tracer = None
    if trace == "1":
        import layers

        tracer = layers.Tracer(run_id=f"{workload}:{os.getpid()}")
        layers.install(tracer)

    driver = None
    output: dict[str, object] = {}
    if workload == "staircase-serial":
        source = _read(os.path.join(inputs, "staircase.c"))
        started = time.perf_counter()
        driver = Mixy(source, MixyConfig(jobs=1, validate_witnesses=False))
        output["warnings"] = [str(w) for w in driver.run()]
        finished = time.perf_counter()
    elif workload == "prove-parallel":
        source = _read(os.path.join(inputs, "property.c"))
        started = time.perf_counter()
        result = prove.prove_source("mixy", source, {"entry": "typed", "jobs": 2})
        output["verdict"] = result.verdict
        finished = time.perf_counter()
    elif workload == "wide-typed":
        source = _read(os.path.join(inputs, "wide.c"))
        suite: list[str] = []
        started = time.perf_counter()
        driver = Mixy(source, MixyConfig(jobs=1, validate_witnesses=False))
        output["warnings"] = [str(w) for w in driver.run()]
        prove.prove_files([PROPERTIES_DIR], {}, jobs=1, emit=suite.append)
        output["suite"] = suite
        finished = time.perf_counter()
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    stats = smt.get_service().stats.as_dict()
    counters = {k: v for k, v in stats.items() if isinstance(v, int)}
    # prove_source builds its analyzer itself; only the wrappers see it
    analyzers = [driver] if driver else (tracer.drivers if tracer else [])
    if analyzers:
        for name in ("fixpoint_iterations", "symbolic_blocks_run", "cache_hits"):
            counters[f"mixy.{name}"] = sum(m.stats[name] for m in analyzers)
    # this process's peak plus that of its largest forked worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "setup_s": ready - float(launch),
        "verdict_s": finished - started,
        "rss_mb": (own + forked) / 1024.0,
        "output": output,
        "counters": counters,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer, stats)
        record["layer_self"] = layers.layer_self_seconds(tracer)
        tracer.dump(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
