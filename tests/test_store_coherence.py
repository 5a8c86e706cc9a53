"""The cross-run store against cold runs, on struct-heavy programs.

A store hit replays a symbolic block from its memo entry: the block's
watched list is stored as qualifier-slot references, and replay resolves
every one of them in the order the cold walk met them.  A struct pointer
field whose qualifier slot only a symbolic block's materialization makes
is created there, so its ``#N`` ordinal — printed in witness paths — is
the cold run's only if replay creates it at the same point.

Two checks, each byte-identical across a cold run, a ``--store`` run
that records, a warm run on the same store, a run on the store reopened
from disk and the pooled daemon:

- ``examples/struct_fields.c``, whose warning path names a field slot
  that only a memoized block makes;
- a fixed-seed sample of a small generator of programs over struct and
  pointer globals and parameters, ``NULL`` and ``MIX`` annotations.

A third replays what the store recorded for earlier versions of a
program: seeded edit sequences, each version analyzed on the one store
and matched against its own cold run — and a slice of them through one
pooled daemon, whose two workers stay warm by catch-up, never by
refork.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import smt
from repro.serve import analyze_source, request
from repro.store import AnalysisStore

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = str(ROOT / "src")
STRUCT_FIELDS = (ROOT / "examples" / "struct_fields.c").read_text()

# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def _setter(rng: random.Random, name: str, fields: list[str]) -> str:
    """A pure symbolic block (no calls, so the store memoizes it) that
    may null or copy fields of its struct parameter or of ``g_conn``."""
    statements = []
    for _ in range(rng.randint(1, 3)):
        field = rng.choice(fields)
        statements.append(
            rng.choice(
                [
                    f"if (k > {rng.randint(0, 4)}) {{ s->{field} = NULL; }}",
                    f"if (k < {rng.randint(0, 4)}) {{ g_conn->{field} = NULL; }}",
                    f"s->{field} = q;",
                    f"q = s->{field};",
                    f"if (s->{field} == NULL) {{ k = k - 1; }}",
                    "g_ptr = q;",
                    "g_ptr = NULL;",
                ]
            )
        )
    body = " ".join(statements)
    return f"int {name}(struct conn *s, int *q, int k) MIX(symbolic) {{ {body} return k; }}"


def _user(rng: random.Random, name: str, fields: list[str]) -> str:
    """A typed function passing a field or ``g_ptr`` to the ``nonnull``
    sink: the path of a warning it raises names the slot."""
    arg = rng.choice(
        [f"s->{field}" for field in fields]
        + [f"g_conn->{field}" for field in fields]
        + ["g_ptr"]
    )
    return f"void {name}(struct conn *s) MIX(typed) {{ sink({arg}); }}"


def struct_program(rng: random.Random) -> str:
    """One generated program: a struct with 2-3 pointer fields, a
    struct pointer and an ``int`` pointer global, a ``nonnull`` sink,
    1-3 symbolic setters, 1-2 typed users of the sink, a symbolic
    driver making typed calls to some users (``void``, so the store
    memoizes it with its calls), and a symbolic ``peek`` that calls the
    typed pointer-returning ``fetch`` (so the store never memoizes it).
    ``main`` calls the setters, the driver, ``peek`` and the other users
    in a random order, so a field's slot is made either by typed code
    or first by a setter's materialization."""
    fields = [f"f{i}" for i in range(rng.randint(2, 3))]
    struct = f"struct conn {{ {' '.join(f'int *{f};' for f in fields)} int v; }};"
    setters = [f"set{i}" for i in range(rng.randint(1, 3))]
    users = [f"use{i}" for i in range(rng.randint(1, 2))]
    driven = [user for user in users if rng.random() < 0.7]
    lines = [
        "void sink(int *nonnull p) MIX(typed);",
        struct,
        "struct conn *g_conn;",
        "int *g_ptr;",
    ]
    lines += [_setter(rng, name, fields) for name in setters]
    lines += [_user(rng, name, fields) for name in users]
    body = " ".join(f"{user}(s);" for user in driven)
    # Blocks run in name order: "drive" before the setters, "tick" after.
    driver = rng.choice(["drive", "tick"])
    lines.append(f"int {driver}(struct conn *s) MIX(symbolic) {{ {body} return 0; }}")
    calls = [
        f"k = {name}({rng.choice(['a', 'g_conn'])}, "
        f"{rng.choice(['p', 'g_ptr', 'NULL'])}, {rng.randint(0, 5)});"
        for name in setters
    ]
    calls += [f"{user}(a);" for user in users if user not in driven]
    calls.append(f"{driver}(a);")
    rng.shuffle(calls)
    # Drawn last, so the draws above do not depend on fetch and peek.
    got = rng.choice([f"s->{field}" for field in fields] + ["g_ptr"])
    use = rng.choice(["k = *t;", "if (t != NULL) { k = *t; }", "g_ptr = t;"])
    lines.append(f"int *fetch(struct conn *s) MIX(typed) {{ return {got}; }}")
    lines.append(
        "int peek(struct conn *s, int k) MIX(symbolic) "
        f"{{ int *t; t = fetch(s); {use} return k; }}"
    )
    calls.insert(rng.randint(0, len(calls)), "k = peek(a, k);")
    lines.append(
        "int main(void) { int x = 1; int k = 2; int *p = &x; "
        "struct conn *a = malloc(sizeof(struct conn)); "
        f"g_conn = a; g_ptr = p; {' '.join(calls)} return k; }}"
    )
    return "\n".join(lines) + "\n"


SEED = 2010
SAMPLE = 12
PROGRAMS = [struct_program(random.Random(SEED + n)) for n in range(SAMPLE)]


#: Pointer globals of the edit-sequence programs.
EDIT_GLOBALS = ("g_a", "g_b", "g_c")


def _symbolic_statement(rng: random.Random, typed: list[str]) -> str:
    """A statement of a symbolic block: null or copy a global, pass one
    to the ``nonnull`` sink or a typed function (a recorded call),
    dereference one directly or through the shared unannotated ``rd``
    (so two blocks raise the same warning), read or null the struct
    field ``g_box->val``, or take ``fetch``'s pointer (an unrecorded
    call)."""
    g, h = rng.choice(EDIT_GLOBALS), rng.choice(EDIT_GLOBALS)
    options = [
        f"if (k > {rng.randint(0, 5)}) {{ {g} = NULL; }}",
        f"{g} = {h};",
        f"sink({g});",
        f"k = *{g};",
        f"if ({g} != NULL) {{ k = k + *{g}; }}",
        f"if (k < {rng.randint(0, 5)}) {{ {g} = q; }}",
        f"k = rd({g});",
        f"if (k > {rng.randint(0, 3)}) {{ k = rd({g}); }}",
        "k = *(g_box->val);",
        f"if (k > {rng.randint(0, 3)}) {{ g_box->val = NULL; }}",
        f"{g} = fetch(k);",
    ]
    if typed:
        t = rng.choice(typed)
        options += [f"{t}({g}, k);", f"if (k > {rng.randint(0, 4)}) {{ {t}(q, k + 1); }}"]
    return rng.choice(options)


def _typed_statement(rng: random.Random, symbolic: list[str]) -> str:
    """A statement of a typed function: null, set or copy a global or
    the struct field, pass one to the sink, or call a symbolic block
    (a block nested inside the caller's typed call)."""
    g, h = rng.choice(EDIT_GLOBALS), rng.choice(EDIT_GLOBALS)
    options = [
        f"{g} = NULL;", f"{g} = p;", f"{g} = {h};", f"sink({g});",
        "g_box->val = NULL;", "g_box->val = p;", f"{g} = g_box->val;",
        "k = rd(p);",
    ]
    if symbolic:
        b = rng.choice(symbolic)
        options += [f"k = {b}(k, p);", f"k = {b}(k + 1, {g});"]
    return rng.choice(options)


def edit_sequence(seed: int, edits: int) -> list[str]:
    """A generated program and ``edits`` successive versions of it, each
    replacing or deleting one statement of one function."""
    rng = random.Random(seed)
    symbolic = [f"s{i}" for i in range(rng.randint(2, 4))]
    typed = [f"t{i}" for i in range(rng.randint(1, 3))]
    bodies = {b: [_symbolic_statement(rng, typed) for _ in range(rng.randint(1, 4))]
              for b in symbolic}
    bodies.update(
        {t: [_typed_statement(rng, symbolic) for _ in range(rng.randint(1, 3))]
         for t in typed}
    )
    calls = [f"k = {b}(k, p);" for b in symbolic]
    calls += [f"{t}(p, k);" for t in typed if rng.random() < 0.5]
    rng.shuffle(calls)

    def render() -> str:
        lines = [
            "void sink(int *nonnull p) MIX(typed);",
            "struct box { int *val; int n; };",
            "struct box *g_box;",
        ]
        lines += [f"int *{g};" for g in EDIT_GLOBALS]
        lines += [
            "int rd(int *p) { return *p; }",
            "int *fetch(int k) MIX(typed) { return g_a; }",
        ]
        lines += [f"void {t}(int *p, int k) MIX(typed);" for t in typed]
        lines += [
            f"int {b}(int k, int *q) MIX(symbolic) {{ {' '.join(bodies[b])} return k; }}"
            for b in symbolic
        ]
        lines += [
            f"void {t}(int *p, int k) MIX(typed) {{ {' '.join(bodies[t])} }}"
            for t in typed
        ]
        lines.append(
            "int main(void) { int x = 1; int k = 2; int *p = &x; "
            "struct box *b = malloc(sizeof(struct box)); b->val = p; g_box = b; "
            + " ".join(f"{g} = p;" for g in EDIT_GLOBALS)
            + f" {' '.join(calls)} return k; }}"
        )
        return "\n".join(lines) + "\n"

    versions = [render()]
    for _ in range(edits):
        name = rng.choice(symbolic + typed)
        body = bodies[name]
        index = rng.randrange(len(body))
        if name in symbolic:
            statement = _symbolic_statement(rng, typed)
        else:
            statement = _typed_statement(rng, symbolic)
        if rng.random() < 0.3 and len(body) > 1:
            del body[index]
        else:
            body[index] = statement
        versions.append(render())
    return versions


EDIT_SEED = 0
EDIT_SAMPLE = 60
EDITS = 6
#: The edit sequences that also run through one pooled daemon.
DAEMON_EDIT_SAMPLE = 6

# ---------------------------------------------------------------------------
# The runs
# ---------------------------------------------------------------------------


def _cold(source: str) -> dict:
    smt.reset_service()
    return analyze_source("mixy", source, {}).result


def _store_runs(source: str, root: str) -> tuple[list[dict], int]:
    """A recording run, a warm run on the same store, and a run on the
    store reopened from disk; returns their results and the warm runs'
    memo hits."""
    smt.reset_service()
    store = AnalysisStore.open(root, quiet=True)
    store.load_into_service(smt.get_service())
    results = [analyze_source("mixy", source, {}, store=store).result]
    warm = analyze_source("mixy", source, {}, store=store)
    store.save(smt.get_service())
    smt.reset_service()
    reopened = AnalysisStore.open(root, quiet=True)
    reopened.load_into_service(smt.get_service())
    again = analyze_source("mixy", source, {}, store=reopened)
    results += [warm.result, again.result]
    hits = warm.store.get("mixy_hits", 0) + again.store.get("mixy_hits", 0)
    return results, hits


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_daemon(tmp: Path, *extra: str) -> tuple[subprocess.Popen, str]:
    """``repro serve --pool 2`` with a store, on a loopback port."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--listen",
            "127.0.0.1:0", "--pool", "2", "--store", str(tmp / "store"),
            *extra,
        ],
        cwd=tmp, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    announce = proc.stdout.readline()
    assert "listening on tcp:" in announce, announce
    return proc, announce.rsplit(" ", 1)[-1].strip()


def _analyze(address: str, source: str) -> dict:
    return request(
        address,
        {"cmd": "analyze", "lang": "mixy", "source": source},
        timeout=120.0,
    )


@pytest.fixture(scope="module")
def daemon_results(tmp_path_factory):
    """Each program analyzed twice by one pooled daemon with a store."""
    tmp = tmp_path_factory.mktemp("daemon")
    sources = [STRUCT_FIELDS] + PROGRAMS
    proc, address = _start_daemon(
        tmp, "--max-requests", str(2 * len(sources))
    )
    try:
        replies = {
            source: [_analyze(address, source) for _ in range(2)]
            for source in sources
        }
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    for pair in replies.values():
        assert all(reply["ok"] for reply in pair), pair
    return {
        source: [reply["result"] for reply in pair]
        for source, pair in replies.items()
    }


class TestStructFieldOrdinals:
    def test_cold_one_shot_prints_the_field_slot(self, tmp_path):
        path = tmp_path / "struct_fields.c"
        path.write_text(STRUCT_FIELDS)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "mixy", str(path)],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert "'conn.name#" in proc.stdout
        assert {"exit": 1, "lines": proc.stdout.splitlines()} == _cold(
            STRUCT_FIELDS
        )

    def test_store_runs_replay_with_cold_ordinals(self, tmp_path):
        cold = _cold(STRUCT_FIELDS)
        results, hits = _store_runs(STRUCT_FIELDS, str(tmp_path / "store"))
        assert hits > 0
        assert results == [cold] * 3

    def test_pooled_daemon_matches_cold(self, daemon_results):
        assert daemon_results[STRUCT_FIELDS] == [_cold(STRUCT_FIELDS)] * 2


class TestGeneratedPrograms:
    @pytest.mark.parametrize("index", range(SAMPLE))
    def test_store_runs_match_cold(self, tmp_path, index):
        source = PROGRAMS[index]
        cold = _cold(source)
        results, _ = _store_runs(source, str(tmp_path / "store"))
        assert results == [cold] * 3, source

    def test_the_sample_replays_blocks_and_prints_field_slots(self, tmp_path):
        hits = 0
        fields = 0
        for n, source in enumerate(PROGRAMS):
            hits += _store_runs(source, str(tmp_path / f"store{n}"))[1]
            fields += any("'conn.f" in line for line in _cold(source)["lines"])
        assert hits > 0 and fields > 0

    def test_void_typed_calls_record_and_pointer_returns_do_not(
        self, tmp_path, monkeypatch
    ):
        """The driver's calls to the ``void`` users are replayable, so
        its block is memoized with them; ``peek``'s call to ``fetch``
        havocks a return value that reads a qualifier solution the key
        does not cover, so ``peek`` is never memoized."""
        from repro.mixy.driver import Mixy

        store_key = Mixy._store_key
        monkeypatch.setattr(
            Mixy,
            "_store_key",
            lambda self, fn, *rest: f"{fn.name}:{store_key(self, fn, *rest)}",
        )
        recorded: dict[str, list] = {}
        for n, source in enumerate(PROGRAMS):
            smt.reset_service()
            store = AnalysisStore.open(str(tmp_path / f"store{n}"), quiet=True)
            analyze_source("mixy", source, {}, store=store)
            for key in list(store.mixy_blocks):
                recorded.setdefault(key.split(":")[0], []).append(
                    store.mixy_get(key)
                )
        drivers = recorded.get("drive", []) + recorded.get("tick", [])
        assert any(entry["calls"] for entry in drivers)
        assert "peek" not in recorded
        assert recorded  # the setters

    def test_pooled_daemon_matches_cold(self, daemon_results):
        for source in PROGRAMS:
            assert daemon_results[source] == [_cold(source)] * 2, source


class TestEditSequences:
    @pytest.mark.parametrize("seed", range(EDIT_SEED, EDIT_SEED + EDIT_SAMPLE))
    def test_each_version_on_the_shared_store_matches_cold(self, tmp_path, seed):
        """A memo recorded for an earlier version replays only where it
        is what executing the block would do now: a warning another
        block raised first, a typed call's effects, a changed struct
        field solution."""
        root = str(tmp_path / "store")
        for step, source in enumerate(edit_sequence(seed, EDITS)):
            cold = _cold(source)
            smt.reset_service()
            store = AnalysisStore.open(root, quiet=True)
            store.load_into_service(smt.get_service())
            stored = analyze_source("mixy", source, {}, store=store).result
            store.save(smt.get_service())
            assert stored == cold, (step, source)


class TestOneDaemon:
    def test_edit_sequences_match_cold_and_fork_no_worker_twice(
        self, tmp_path
    ):
        """Two clients each send three edit sequences, version by
        version, to one two-worker daemon: every reply is its version's
        cold run, byte for byte, while each worker replays memos the
        other recorded (every merge reaches it by catch-up).  Nothing
        reforks a worker: two forks, no recycle."""
        sequences = [
            edit_sequence(seed, EDITS)
            for seed in range(EDIT_SEED, EDIT_SEED + DAEMON_EDIT_SAMPLE)
        ]
        colds = [[_cold(source) for source in seq] for seq in sequences]
        replies: dict[tuple[int, int], dict] = {}
        start = threading.Barrier(2)

        def client(first: int) -> None:
            start.wait()
            for index in range(first, len(sequences), 2):
                for step, source in enumerate(sequences[index]):
                    replies[index, step] = _analyze(address, source)

        proc, address = _start_daemon(tmp_path)
        try:
            clients = [
                threading.Thread(target=client, args=(first,))
                for first in (0, 1)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=300)
            stats = request(address, {"cmd": "stats"})["stats"]
            request(address, {"cmd": "shutdown"})
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        for index, versions in enumerate(sequences):
            for step in range(len(versions)):
                reply = replies[index, step]
                assert reply["status"] == "ok", (index, step, reply)
                assert reply["result"] == colds[index][step], (index, step)
        assert stats["pool"]["forks"] == 2
        assert stats["pool"]["recycles"] == 0
        assert stats["pool"]["catch_up_memos"] > 0
        assert stats["store"]["mixy_hits"] > 0

    def test_a_reply_frame_ships_only_the_memos_its_request_recorded(
        self, tmp_path
    ):
        """A worker imports its catch-up before it marks its request, so
        the frame it sends back holds exactly the memos that request
        recorded — never the parent's merges it just received.  Two
        concurrent requests fork both workers; the sequential ones
        after them alternate between the workers, each catching up on
        the other's programs."""
        (tmp_path / "sources.json").write_text(json.dumps(PROGRAMS[:5]))
        script = """
import itertools, json, os, threading
import repro.serve as serve

inner = serve._worker_payload
served = itertools.count()

def recording(job, *args, **kwargs):
    payload = inner(job, *args, **kwargs)
    catch_up = job["catch_up"]
    with open(f"frame.{os.getpid()}.{next(served)}", "w") as fh:
        json.dump({
            "caught_up": len(catch_up["mixy_new"]) if catch_up else 0,
            "shipped": len(payload["mixy_new"]),
            "recorded": payload["store_stats"].get("mixy_records", 0),
        }, fh)
    return payload

serve._worker_payload = recording
daemon = serve.ReproDaemon(
    listen="127.0.0.1:0", store_dir="store", pool_size=2
)
daemon.bind()
lines = [
    json.dumps({"cmd": "analyze", "lang": "mixy", "source": source})
    for source in json.load(open("sources.json"))
]
statuses = []

def handle(line):
    statuses.append(daemon.handle_line(line)["status"])

pair = [threading.Thread(target=handle, args=(line,)) for line in lines[:2]]
for thread in pair:
    thread.start()
for thread in pair:
    thread.join()
statuses += [daemon.handle_line(line)["status"] for line in lines[2:]]
forks = daemon._pool.forks
daemon._pool.close()
print(json.dumps({"statuses": statuses, "forks": forks}))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=_env(), cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary == {"statuses": ["ok"] * 5, "forks": 2}
        frames = [
            json.loads(path.read_text())
            for path in sorted(tmp_path.glob("frame.*"))
        ]
        assert len(frames) == 5
        for frame in frames:
            assert frame["shipped"] == frame["recorded"], frames
        assert any(
            frame["caught_up"] > 0 and frame["recorded"] > 0
            for frame in frames
        ), frames
