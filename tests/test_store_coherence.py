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
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
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
    1-3 symbolic setters, 1-2 typed users of the sink, and a symbolic
    driver making typed calls to some users (so the store never
    memoizes it).  ``main`` calls the setters, the driver and the other
    users in a random order, so a field's slot is made either by typed
    code or first by a setter's materialization."""
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
    lines.append(
        "int main(void) { int x = 1; int k = 2; int *p = &x; "
        "struct conn *a = malloc(sizeof(struct conn)); "
        f"g_conn = a; g_ptr = p; {' '.join(calls)} return k; }}"
    )
    return "\n".join(lines) + "\n"


SEED = 2010
SAMPLE = 12
PROGRAMS = [struct_program(random.Random(SEED + n)) for n in range(SAMPLE)]

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


@pytest.fixture(scope="module")
def daemon_results(tmp_path_factory):
    """Each program analyzed twice by one pooled daemon with a store."""
    tmp = tmp_path_factory.mktemp("daemon")
    sources = [STRUCT_FIELDS] + PROGRAMS
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--listen",
            "127.0.0.1:0", "--pool", "2", "--store", str(tmp / "store"),
            "--max-requests", str(2 * len(sources)),
        ],
        cwd=tmp, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        announce = proc.stdout.readline()
        assert "listening on tcp:" in announce, announce
        address = announce.rsplit(" ", 1)[-1].strip()
        replies = {}
        for source in sources:
            replies[source] = [
                request(
                    address,
                    {"cmd": "analyze", "lang": "mixy", "source": source},
                    timeout=120.0,
                )
                for _ in range(2)
            ]
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
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "mixy", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
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

    def test_pooled_daemon_matches_cold(self, daemon_results):
        for source in PROGRAMS:
            assert daemon_results[source] == [_cold(source)] * 2, source
