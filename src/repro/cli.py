"""Command-line interface for the MIX and MIXY analyzers.

Usage::

    python -m repro.cli mix PROGRAM.mix [--entry typed|symbolic]
                                        [--env "x:int,p:bool"]
                                        [--defer] [--good-enough]
                                        [--auto-refine]
    python -m repro.cli mixy PROGRAM.c  [--entry typed|symbolic]
                                        [--entry-function main]
                                        [--strict-deref]

Exit status: 0 when the analysis accepts / reports no warnings, 1 when
it rejects or warns, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.core.config import _env_flag, _env_int


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="MIX / MIXY static analysis (PLDI 2010 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mix = sub.add_parser("mix", help="analyze a MIX-language program")
    mix.add_argument("file", help="program file ('-' for stdin)")
    mix.add_argument("--entry", choices=["typed", "symbolic"], default="typed")
    mix.add_argument(
        "--env",
        default="",
        help="comma-separated free-variable types, e.g. 'x:int,p:bool,r:int ref'",
    )
    mix.add_argument(
        "--defer",
        action="store_true",
        help="use the SEIf-Defer rule instead of forking at conditionals",
    )
    mix.add_argument(
        "--good-enough",
        action="store_true",
        help="bounded (unsound) exploration instead of the exhaustiveness check",
    )
    mix.add_argument(
        "--auto-refine",
        action="store_true",
        help="insert typed/symbolic blocks automatically on failure",
    )
    mix.add_argument("--max-unroll", type=int, default=64)
    mix.add_argument(
        "--solver-stats",
        action="store_true",
        help="print solver-service counters (queries, cache hits, solve time)",
    )
    _add_budget_flags(mix)
    _add_trust_flags(mix)
    _add_perf_flags(mix)

    mixy = sub.add_parser("mixy", help="analyze a mini-C program for null errors")
    mixy.add_argument("file", help="C source file ('-' for stdin)")
    mixy.add_argument("--entry", choices=["typed", "symbolic"], default="typed")
    mixy.add_argument("--entry-function", default="main")
    mixy.add_argument(
        "--strict-deref",
        action="store_true",
        help="require nonnull at every dereference (not just annotations)",
    )
    mixy.add_argument("--no-cache", action="store_true", help="disable block caching")
    mixy.add_argument(
        "--jobs",
        type=_job_count,
        default=_env_int("REPRO_JOBS", 1),
        metavar="N",
        help="worker processes for speculative query-cache warming "
        "(see docs/ARCHITECTURE.md §1.4); 1 = serial, the default "
        "unless REPRO_JOBS says otherwise",
    )
    mixy.add_argument(
        "--solver-stats",
        action="store_true",
        help="print solver-service counters (queries, cache hits, solve time)",
    )
    _add_budget_flags(mixy)
    _add_trust_flags(mixy)
    _add_perf_flags(mixy)

    prove = sub.add_parser(
        "prove",
        help="prove symbolic()/assume/check property files; one verdict "
        "per file (PROVED / COUNTEREXAMPLE / UNCONFIRMED / BUDGET / ERROR)",
    )
    prove.add_argument(
        "files",
        nargs="+",
        help="property files; .c runs under MIXY, anything else under MIX",
    )
    prove.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        metavar="N",
        help="prove up to N property files concurrently (verdict lines "
        "are identical to --jobs 1 and always in sorted-file order)",
    )
    prove.add_argument(
        "--entry-function",
        default="main",
        help="entry function for mini-C property files (default main)",
    )
    prove.add_argument(
        "--env",
        default="",
        help="comma-separated free-variable types for mini-ML files",
    )
    prove.add_argument("--max-unroll", type=int, default=64)
    prove.add_argument(
        "--no-cache", action="store_true", help="disable MIXY block caching"
    )
    prove.add_argument(
        "--entry",
        choices=["typed", "symbolic"],
        default="symbolic",
        help="mini-C proving mode: 'symbolic' explores the entry function "
        "exhaustively (the default); 'typed' proves checks embedded in "
        "MIX(symbolic) blocks of a larger program via the fixpoint",
    )
    _add_budget_flags(prove)

    serve = sub.add_parser(
        "serve",
        help="run a persistent analysis daemon with a warm, disk-backed "
        "cross-run cache (see repro.serve for the protocol)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket to listen on (default .repro-serve.sock)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP instead of a Unix socket (port 0 picks a free "
        "port; the chosen one is announced on stdout)",
    )
    serve.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="cross-run store directory persisted between restarts "
        "(default .repro-store)",
    )
    serve.add_argument(
        "--no-store",
        action="store_true",
        help="serve from memory only; nothing is persisted",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N requests (for tests and CI)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the daemon's JSONL event trace to FILE",
    )
    serve.add_argument(
        "--trace-mode",
        choices=["truncate", "append", "rotate"],
        default="rotate",
        help="what to do with an existing trace file (default rotate: the "
        "previous daemon life survives as FILE.1)",
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="S",
        help="server-side wall-clock cap per analyze request, folded into "
        "its Budget; a worker still running S+2s later is killed and the "
        "client gets a 'degraded' reply",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="analyze requests admitted (running + queued) before the "
        "daemon sheds with 'busy' replies (default 8)",
    )
    serve.add_argument(
        "--read-deadline",
        type=float,
        default=10.0,
        metavar="S",
        help="per-connection read deadline: a request line stalled this "
        "long gets a protocol_error and the connection is closed "
        "(default 10; 0 disables)",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=4 * 1024 * 1024,
        metavar="N",
        help="longest accepted request line; longer ones are dropped with "
        "a protocol_error reply (default 4MiB)",
    )
    serve.add_argument(
        "--max-conns",
        type=int,
        default=32,
        metavar="N",
        help="concurrent connections before new ones are refused with a "
        "'busy' reply (default 32)",
    )
    serve.add_argument(
        "--pool",
        type=_pool_width,
        default=None,
        metavar="N",
        help="persistent prefork worker pool width, N >= 1: N long-lived "
        "workers serve analyze requests concurrently, are kept warm by "
        "catch-up and recycled on faults (default min(4, cpu count))",
    )
    serve.add_argument(
        "--worker-requests",
        type=int,
        default=200,
        metavar="K",
        help="recycle a pooled worker after serving K requests "
        "(default 200; 0 = unbounded)",
    )
    serve.add_argument(
        "--crash-dir",
        default=".repro-crashes",
        metavar="DIR",
        help="where dead request workers' crash repros land "
        "(default .repro-crashes)",
    )

    client = sub.add_parser(
        "client",
        help="send one request to a running 'repro serve' daemon and print "
        "the result exactly like a fresh mix/mixy run would",
    )
    client.add_argument(
        "lang", nargs="?", choices=["mix", "mixy"], help="analysis language"
    )
    client.add_argument("file", nargs="?", help="source file ('-' for stdin)")
    client.add_argument(
        "--connect",
        default="unix:.repro-serve.sock",
        metavar="ADDR",
        help="daemon address: unix:PATH or tcp:HOST:PORT "
        "(default unix:.repro-serve.sock)",
    )
    client.add_argument("--timeout", type=float, default=600.0, metavar="S")
    client.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="give up connecting after S seconds (default 10)",
    )
    client.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="retry up to N times on transient failures (dead socket, "
        "daemon died mid-reply, 'busy' replies) with jittered exponential "
        "backoff honoring the daemon's retry_after_ms hint",
    )
    client.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="N:KIND",
        help="ship a solver-fault schedule with the request (served by the "
        "daemon's pool worker); same N:KIND specs as mix/mixy",
    )
    client.add_argument(
        "--ping", action="store_true", help="health-check the daemon and exit"
    )
    client.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's cache/request counters and exit",
    )
    client.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to persist its store and exit",
    )
    client.add_argument(
        "--served",
        action="store_true",
        help="also print this request's daemon-side cache counters to stderr",
    )
    client.add_argument(
        "--prove",
        action="store_true",
        help="send a 'prove' request instead of 'analyze': classify FILE "
        "as one property file, printing the same verdict line a local "
        "'repro prove FILE' would",
    )
    client.add_argument(
        "--entry",
        choices=["typed", "symbolic"],
        default=None,
        help="entry mode (default: typed for analyze, symbolic for --prove)",
    )
    client.add_argument("--entry-function", default="main")
    client.add_argument("--strict-deref", action="store_true")
    client.add_argument("--no-cache", action="store_true")
    client.add_argument("--env", default="")
    client.add_argument("--defer", action="store_true")
    client.add_argument("--good-enough", action="store_true")
    client.add_argument("--max-unroll", type=int, default=64)
    _add_budget_flags(client)

    report = sub.add_parser(
        "trace-report",
        help="aggregate a --trace file into per-block / per-round / "
        "per-query-tier tables",
    )
    report.add_argument("file", help="JSONL trace file written by --trace")
    report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hottest blocks to show (default 10)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the aggregated digest as JSON instead of tables",
    )

    chaos = sub.add_parser(
        "chaos",
        help="drive a live daemon through a scripted fault campaign "
        "(worker kills, solver faults, store corruption, socket abuse) "
        "and check it survives with sound answers",
    )
    chaos.add_argument(
        "chaos_args",
        nargs=argparse.REMAINDER,
        help="arguments for the chaos harness; see 'repro chaos -- --help'",
    )

    args = parser.parse_args(argv)
    if args.command == "prove":
        return _run_prove(args)
    if args.command == "trace-report":
        return _run_trace_report(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "client":
        return _run_client(args)
    if args.command == "chaos":
        from repro.chaos import main as chaos_main

        forwarded = args.chaos_args
        if forwarded and forwarded[0] == "--":
            forwarded = forwarded[1:]
        return chaos_main(forwarded)
    return _run_analysis(args)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _pool_width(text: str) -> int:
    """``--pool N``: a pooled daemon has at least one worker."""
    try:
        width = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if width < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {width}")
    return width


def _job_count(text: str) -> int:
    """``--jobs N``: at least one process does the work."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole run; on breach the analysis "
        "degrades gracefully instead of running on",
    )
    sub.add_argument(
        "--query-timeout-ms",
        type=int,
        default=None,
        metavar="MS",
        help="per-solver-query timeout; a timed-out query returns UNKNOWN "
        "and is treated conservatively",
    )
    sub.add_argument(
        "--max-paths",
        type=int,
        default=None,
        metavar="N",
        help="total path budget for the run; the frontier beyond it is "
        "abandoned with a budget diagnostic",
    )


def _add_trust_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--validate-witnesses",
        action="store_true",
        default=_env_flag("REPRO_VALIDATE_WITNESSES"),
        help="replay each reported error path through the concrete "
        "interpreter and attach a CONFIRMED / UNCONFIRMED / "
        "REPLAY_DIVERGED verdict (trust ring 1; on by default when "
        "REPRO_VALIDATE_WITNESSES is set)",
    )
    sub.add_argument(
        "--paranoid",
        action="store_true",
        default=None,
        help="self-check every SAT model against its query before trusting "
        "or caching it (trust ring 2)",
    )
    sub.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="N:KIND",
        help="inject a solver fault at the N-th query; KIND is one of "
        "timeout, unknown, error, bad_model, crash (repeatable; for "
        "robustness testing)",
    )
    sub.add_argument(
        "--crash-dir",
        default=".repro-crashes",
        metavar="DIR",
        help="where contained analysis crashes write their minimized repros "
        "(trust ring 3)",
    )


def _add_perf_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured JSONL event trace (spans, counters) of "
        "the run to FILE; aggregate it with 'repro trace-report FILE'",
    )
    sub.add_argument(
        "--trace-mode",
        choices=["truncate", "append", "rotate"],
        default="truncate",
        help="what to do with an existing --trace file: truncate it (the "
        "default), append this run's session to it, or rotate it to FILE.1",
    )
    sub.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="cross-run analysis store (see repro.store): warm the solver "
        "query cache and block memos from DIR before the run and persist "
        "them back after; a missing or corrupt store degrades to cold",
    )


#: Request options that are copies of the flag of the same name.  Every
#: front door (mix, mixy, prove, client) builds its options from this one
#: table, so a flag means the same thing whichever command takes it.
_OPTION_FLAGS = (
    "entry",
    "entry_function",
    "strict_deref",
    "no_cache",
    "jobs",
    "env",
    "defer",
    "good_enough",
    "max_unroll",
    "validate_witnesses",
    "inject_fault",
    "deadline",
    "query_timeout_ms",
    "max_paths",
)


def _request_options(args: argparse.Namespace) -> dict:
    """A subcommand's flags as request ``options``.  A flag the command
    lacks, or left at ``None``, sends nothing, so the analysis default
    applies (e.g. ``client``'s entry: typed for an analyze, symbolic for
    a proof).  Environment defaults were resolved into the flags'
    defaults: the analysis itself never reads the environment."""
    return {
        name: getattr(args, name)
        for name in _OPTION_FLAGS
        if getattr(args, name, None) is not None
    }


def _print_result(result: dict) -> int:
    """Print a request ``result`` the way every front door does: its
    lines on stdout, or on stderr for a usage or parse error (exit 2).
    Returns its exit code."""
    out = sys.stderr if result["exit"] == 2 else sys.stdout
    for line in result["lines"]:
        print(line, file=out)
    return int(result["exit"])


def _run_analysis(args: argparse.Namespace) -> int:
    """``repro mix`` / ``repro mixy``: one request through
    :func:`repro.serve.analyze_source`, so stdout is exactly the
    ``result`` a daemon would reply with.  Run facts that are not part
    of it — the MIXY perf summary and, with ``--store``, the store
    counters — go to stderr."""
    import json

    from repro import smt
    from repro.serve import analyze_source, injector_from_options

    options = _request_options(args)
    try:
        source = _read(args.file)
        injector_from_options(options)  # a malformed N:KIND is usage
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.paranoid:
        smt.get_service().paranoid = True
    traced = _start_trace(args)
    try:
        store = _open_store(args)
        run = analyze_source(
            args.command,
            source,
            options,
            store=store,
            crash_dir=args.crash_dir,
            refine=getattr(args, "auto_refine", False),
        )
    finally:
        _finish_trace(traced)
    code = _print_result(run.result)
    if code == 2:
        return code
    _save_store(store)
    if run.summary:
        print(run.summary, file=sys.stderr)
    if store is not None:
        print(f"store: {json.dumps(run.store, sort_keys=True)}", file=sys.stderr)
    if args.solver_stats:
        print(smt.get_service().stats.format_table())
    _warn_on_divergence()
    return code


def _start_trace(args: argparse.Namespace) -> bool:
    """Arm the process-wide tracer when ``--trace FILE`` was given."""
    if not getattr(args, "trace", None):
        return False
    from repro.trace import TRACER

    TRACER.enable(args.trace, mode=getattr(args, "trace_mode", "truncate"))
    return True


def _finish_trace(traced: bool) -> None:
    """Stamp the run's final solver counters onto the trace and close it."""
    if not traced:
        return
    from repro import smt
    from repro.trace import TRACER

    stats = smt.get_service().stats
    if TRACER.enabled:
        TRACER.counter("solver.queries", stats.queries)
        TRACER.counter("solver.cache_hits", stats.cache_hits)
        TRACER.counter("solver.full_solves", stats.full_solves)
        TRACER.counter("solver.solve_seconds", round(stats.solve_seconds, 6))
        if stats.speculative is not None:
            TRACER.counter(
                "solver.speculative.solve_seconds",
                round(stats.speculative.solve_seconds, 6),
            )
    TRACER.close()


def _run_trace_report(args: argparse.Namespace) -> int:
    import json

    from repro.trace import TraceSchemaError, digest_file, format_report

    try:
        digest = digest_file(args.file)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except TraceSchemaError as error:
        print(f"error: invalid trace: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(digest, indent=2, sort_keys=True))
    else:
        print(format_report(digest, top=args.top))
    return 0


def _warn_on_divergence() -> int:
    """Loudly surface REPLAY_DIVERGED verdicts; returns their count."""
    from repro import smt

    diverged = smt.get_service().stats.witnesses_diverged
    if diverged:
        print(
            f"TRUST FAILURE: {diverged} witness replay(s) DIVERGED from the "
            "path condition — the executor or solver produced a wrong "
            "verdict; this is a bug in the analyzer, not the program",
            file=sys.stderr,
        )
    return diverged


def _open_store(args: argparse.Namespace):
    """Open ``--store DIR`` and warm the solver service from it."""
    if not getattr(args, "store", None):
        return None
    from repro import smt
    from repro.store import AnalysisStore

    store = AnalysisStore.open(args.store)
    store.load_into_service(smt.get_service())
    return store


def _save_store(store) -> None:
    if store is not None:
        from repro import smt

        store.save(smt.get_service())


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproDaemon
    from repro.trace import TRACER

    socket_path = args.socket
    if socket_path is None and args.listen is None:
        socket_path = ".repro-serve.sock"
    if args.trace:
        TRACER.enable(args.trace, mode=args.trace_mode)
    daemon = ReproDaemon(
        socket_path=socket_path,
        listen=args.listen,
        store_dir=None if args.no_store else args.store,
        max_requests=args.max_requests,
        queue_depth=args.queue_depth,
        read_deadline=args.read_deadline,
        max_request_bytes=args.max_request_bytes,
        max_conns=args.max_conns,
        request_deadline=args.request_deadline,
        crash_dir=args.crash_dir,
        pool_size=args.pool,
        worker_requests=args.worker_requests,
    )
    try:
        announce = daemon.bind()
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"repro-serve: listening on {announce}", flush=True)
    try:
        return daemon.serve_forever()
    except KeyboardInterrupt:
        return 0
    finally:
        TRACER.close()


def _run_prove(args: argparse.Namespace) -> int:
    from repro.prove import prove_files

    return prove_files(args.files, _request_options(args), jobs=args.jobs)


def _run_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ClientError, request_with_retry

    try:
        if args.ping or args.stats or args.shutdown:
            cmd = "ping" if args.ping else "stats" if args.stats else "shutdown"
            response = request_with_retry(
                args.connect,
                {"cmd": cmd},
                timeout=args.timeout,
                connect_timeout=args.connect_timeout,
                retries=args.retry,
            )
            print(json.dumps(response, indent=2, sort_keys=True))
            return 0 if response.get("ok") else 2
        if not args.lang or not args.file:
            print(
                "error: client needs LANG FILE "
                "(or one of --ping / --stats / --shutdown)",
                file=sys.stderr,
            )
            return 2
        source = _read(args.file)
        options = _request_options(args)
        if args.prove:
            # Match the local prover's naming so client and one-shot
            # verdict lines are byte-identical for the same file.
            options["name"] = args.file
        payload = {
            "cmd": "prove" if args.prove else "analyze",
            "lang": args.lang,
            "source": source,
            "options": options,
        }
        response = request_with_retry(
            args.connect,
            payload,
            timeout=args.timeout,
            connect_timeout=args.connect_timeout,
            retries=args.retry,
        )
    except (ClientError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not response.get("ok"):
        status = response.get("status", "error")
        detail = response.get("error") or "request rejected"
        line = f"error: daemon: {detail}" if status == "error" else (
            f"error: daemon: {status}: {detail}"
        )
        print(line, file=sys.stderr)
        repro_path = response.get("crash_repro")
        if repro_path:
            print(f"crash repro: {repro_path}", file=sys.stderr)
        return 2
    code = _print_result(response["result"])
    if args.served:
        print(
            f"served: {json.dumps(response.get('served', {}), sort_keys=True)}",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Reports are made to be piped (trace-report ... | head); a
        # closed consumer is not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
