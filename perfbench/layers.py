"""Per-layer tracing from outside the program.

:func:`install` wraps public entry points of ``repro.mixy.*``,
``repro.smt.*``, ``repro.parallel``, ``repro.prove`` and
``repro.witness``.  Each wrapper records a span (name, start, end,
parent, run id) in memory; :func:`layer_metrics` turns the spans plus the
program's own public counters (``SolverStats.as_dict()``, ``Mixy.stats``)
into the per-layer metrics.  A layer's self time is its spans' duration
minus the part covered by child spans.

Spans recorded inside forked workers (the parallel engine's speculation)
stay in those workers; their work is read from
``SolverStats.speculative`` instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Spans and counters of one sample, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.drivers: list = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"run": self.run_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, fn, name: str, outermost: bool = False,
          calls: str = "", before=None, after=None):
    """A timing wrapper around ``fn``.  ``outermost`` skips calls nested in
    an open span of the same name; ``before(args)`` / ``after(args,
    result, token)`` read counters around the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and tracer.inside(name):
            return fn(*args, **kwargs)
        if calls:
            tracer.count(calls)
        token = before(args) if before else None
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after:
            after(args, result, token)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, calls: str):
    """Like :func:`_wrap` for a generator function: only the time spent
    inside the generator counts, one span per resumption; nested calls of
    the same generator are covered by the outermost one."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.inside(name):
            yield from fn(*args, **kwargs)
            return
        tracer.count(calls)
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield item

    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapper`` (functions imported by name live in several modules)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _method(tracer: Tracer, owner, attr: str, name: str, **options) -> None:
    setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, **options))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call after the workload imports."""
    from repro.mixy import driver, pointers, qual, symexec
    from repro.mixy.c import parser
    from repro import parallel, prove, witness
    from repro.smt import cnf, intsolve, preprocess, sat, service, simplify, solver

    def keep_driver(args, result, token):
        tracer.drivers.append(args[0])

    def functions(args, result, token):
        tracer.count("mixy.c.functions", len(result.functions))

    def theory_rounds(args):
        return args[0].stats["theory_rounds"]

    def theory_after(args, result, token):
        tracer.count("smt.solver.theory_rounds", args[0].stats["theory_rounds"] - token)

    def sat_before(args):
        return args[0].num_conflicts, args[0].num_restarts

    def sat_after(args, result, token):
        tracer.count("smt.sat.conflicts", args[0].num_conflicts - token[0])
        tracer.count("smt.sat.restarts", args[0].num_restarts - token[1])

    def verdict(args, result, token):
        tracer.count(f"prove.verdicts.{result.verdict.lower()}")

    def witness_verdict(args, result, token):
        # CONFIRMED / UNCONFIRMED / REPLAY_DIVERGED
        tracer.count(f"witness.{result.verdict.name.lower().replace('replay_', '')}")

    parse = _wrap(tracer, parser.parse_program, "mixy.c", calls="mixy.c.calls",
                  after=functions)
    _rebind(parser.parse_program, parse)
    _method(tracer, pointers.PointsTo, "__init__", "mixy.pointers")
    _method(tracer, qual.QualInference, "constrain_function", "mixy.qual.constrain")
    _method(tracer, qual.QualInference, "constrain_globals", "mixy.qual.constrain")
    _method(tracer, qual.QualGraph, "may_null", "mixy.qual.may_null",
            calls="mixy.qual.may_null_calls")
    _method(tracer, qual.QualGraph, "warnings", "mixy.qual.warnings")
    _method(tracer, driver.Mixy, "run", "mixy.driver", after=keep_driver)
    symexec.CSymExecutor.execute_function = _wrap_generator(
        tracer, symexec.CSymExecutor.execute_function, "mixy.symexec",
        calls="mixy.symexec.execute_calls",
    )
    _method(tracer, service.SolverService, "check_sat", "smt.service")
    _method(tracer, service.SolverService, "model", "smt.service")
    _method(tracer, solver.Solver, "check", "smt.solver",
            calls="smt.solver.check_calls", before=theory_rounds, after=theory_after)
    simplified = _wrap(tracer, simplify.simplify, "smt.simplify",
                       calls="smt.simplify.calls")
    _rebind(simplify.simplify, simplified)
    _method(tracer, preprocess.Preprocessor, "process", "smt.preprocess",
            calls="smt.preprocess.calls")
    _method(tracer, cnf.CnfBuilder, "encode", "smt.cnf", outermost=True,
            calls="smt.cnf.calls")
    _method(tracer, sat.SatSolver, "solve", "smt.sat", calls="smt.sat.calls",
            before=sat_before, after=sat_after)
    integer = _wrap(tracer, intsolve.check_integer, "smt.intsolve",
                    calls="smt.intsolve.calls")
    _rebind(intsolve.check_integer, integer)
    _method(tracer, parallel.ParallelEngine, "warm_mixy_round", "parallel")
    proved = _wrap(tracer, prove.prove_source, "prove", after=verdict)
    _rebind(prove.prove_source, proved)
    for entry in ("validate_c_check", "validate_c_null_deref", "validate_mix_outcome"):
        original = getattr(witness, entry)
        _rebind(original, _wrap(tracer, original, "witness",
                                calls="witness.validate_calls", after=witness_verdict))


def _span_times(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, parent), children in zip(tracer.spans, covered):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - children)
    return total, self_time


def layer_metrics(tracer: Tracer, solver_stats: dict) -> dict[str, float]:
    """Every per-layer metric of a one-shot sample."""
    total, own = _span_times(tracer)
    counts = tracer.counts
    spec = solver_stats.get("speculative") or {}
    drivers = tracer.drivers
    metrics = {
        "mixy.c.parse_s": total.get("mixy.c", 0.0),
        "mixy.c.functions": counts.get("mixy.c.functions", 0),
        "mixy.pointers.solve_s": total.get("mixy.pointers", 0.0),
        "mixy.qual.constrain_s": total.get("mixy.qual.constrain", 0.0),
        "mixy.qual.may_null_calls": counts.get("mixy.qual.may_null_calls", 0),
        "mixy.qual.may_null_s": total.get("mixy.qual.may_null", 0.0),
        "mixy.qual.warnings_s": total.get("mixy.qual.warnings", 0.0),
        "mixy.qual.edges": sum(d.qual.graph.num_edges for d in drivers),
        "mixy.driver.run_s": total.get("mixy.driver", 0.0),
        "mixy.driver.self_s": own.get("mixy.driver", 0.0),
        "mixy.driver.rounds": sum(d.stats["fixpoint_iterations"] for d in drivers),
        "mixy.driver.blocks_run": sum(d.stats["symbolic_blocks_run"] for d in drivers),
        "mixy.driver.block_cache_hits": sum(d.stats["cache_hits"] for d in drivers),
        "mixy.symexec.execute_calls": counts.get("mixy.symexec.execute_calls", 0),
        "mixy.symexec.execute_s": total.get("mixy.symexec", 0.0),
        "mixy.symexec.self_s": own.get("mixy.symexec", 0.0),
        "smt.service.queries": solver_stats["queries"],
        "smt.service.hits.syntactic": solver_stats["syntactic_hits"],
        "smt.service.hits.exact": solver_stats["exact_hits"],
        "smt.service.hits.subset": solver_stats["subset_hits"],
        "smt.service.hits.superset": solver_stats["superset_hits"],
        "smt.service.hits.model_eval": solver_stats["model_eval_hits"],
        "smt.service.hit_rate": solver_stats["hit_rate"],
        "smt.service.full_solves": solver_stats["full_solves"],
        "smt.service.check_sat_s": total.get("smt.service", 0.0),
        "smt.service.self_s": own.get("smt.service", 0.0),
        "smt.service.timeouts": solver_stats["query_timeouts"],
        "smt.solver.check_calls": counts.get("smt.solver.check_calls", 0),
        "smt.solver.check_s": total.get("smt.solver", 0.0),
        "smt.solver.theory_rounds": counts.get("smt.solver.theory_rounds", 0),
        "smt.simplify.calls": counts.get("smt.simplify.calls", 0),
        "smt.simplify.s": total.get("smt.simplify", 0.0),
        "smt.preprocess.calls": counts.get("smt.preprocess.calls", 0),
        "smt.preprocess.s": total.get("smt.preprocess", 0.0),
        "smt.cnf.calls": counts.get("smt.cnf.calls", 0),
        "smt.cnf.s": total.get("smt.cnf", 0.0),
        "smt.sat.calls": counts.get("smt.sat.calls", 0),
        "smt.sat.s": total.get("smt.sat", 0.0),
        "smt.sat.conflicts": counts.get("smt.sat.conflicts", 0),
        "smt.sat.restarts": counts.get("smt.sat.restarts", 0),
        "smt.intsolve.calls": counts.get("smt.intsolve.calls", 0),
        "smt.intsolve.s": total.get("smt.intsolve", 0.0),
        "smt.self_s": sum(v for k, v in own.items() if k.startswith("smt.")),
        "parallel.warm_round_s": total.get("parallel", 0.0),
        "parallel.speculative_blocks": solver_stats["speculative_blocks"],
        "parallel.entries_imported": solver_stats["cache_entries_imported"],
        "parallel.speculation_failures": solver_stats["speculation_failures"],
        "parallel.spec.full_solves": spec.get("full_solves", 0),
        "parallel.spec.solve_s": spec.get("solve_seconds", 0.0),
        "witness.validate_calls": counts.get("witness.validate_calls", 0),
        "witness.validate_s": total.get("witness", 0.0),
        "witness.confirmed": counts.get("witness.confirmed", 0),
        "witness.diverged": counts.get("witness.diverged", 0),
        "trace.spans": len(tracer.spans),
    }
    for verdict in ("proved", "counterexample", "budget", "unconfirmed", "error"):
        metrics[f"prove.verdicts.{verdict}"] = counts.get(f"prove.verdicts.{verdict}", 0)
    return metrics


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer (for the role checks): a span's name is its
    layer, except that the three ``mixy.qual.*`` spans form one layer."""
    _, own = _span_times(tracer)
    out: dict[str, float] = {}
    for name, seconds in own.items():
        layer = "mixy.qual" if name.startswith("mixy.qual.") else name
        out[layer] = out.get(layer, 0.0) + seconds
    return out
