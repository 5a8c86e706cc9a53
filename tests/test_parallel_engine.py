"""The parallel engine's building blocks: budget sharding, cache
deltas, and worker-crash containment (see docs/ARCHITECTURE.md §1.4).

Full jobs=1 / jobs=N output equivalence lives in
``test_parallel_equivalence.py``; these tests exercise the pieces the
equivalence rests on.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro import smt
from repro.budget import Budget
from repro.cli import main
from repro.smt.service import SolverService, SolverStats


class TestShardPathCaps:
    def test_unbounded_budget_shards_to_none(self):
        assert Budget().shard_path_caps(3) == [None, None, None]

    def test_even_split(self):
        assert Budget(max_paths=12).shard_path_caps(4) == [3, 3, 3, 3]

    def test_remainder_goes_to_first_shards_one_each(self):
        assert Budget(max_paths=11).shard_path_caps(4) == [3, 3, 3, 2]
        assert Budget(max_paths=5).shard_path_caps(4) == [2, 1, 1, 1]

    def test_caps_cover_exactly_the_remaining_budget(self):
        budget = Budget(max_paths=100)
        for _ in range(37):
            budget.charge_path()
        caps = budget.shard_path_caps(8)
        assert sum(caps) == 100 - 37

    def test_exhausted_budget_shards_to_no_workers(self):
        # No 0-path caps: a worker with cap 0 would breach instantly and
        # speculate nothing.  An exhausted budget fans out to nobody.
        budget = Budget(max_paths=2)
        for _ in range(5):
            budget.charge_path()
        assert budget.shard_path_caps(2) == []

    def test_more_jobs_than_paths_clamps_shards_to_one_path_each(self):
        budget = Budget(max_paths=3)
        assert budget.shard_path_caps(8) == [1, 1, 1]

    @pytest.mark.parametrize("max_paths", [1, 2, 3, 5, 17, 64])
    @pytest.mark.parametrize("used", [0, 1, 4, 20])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 7, 16])
    def test_cap_conservation_property(self, max_paths, used, jobs):
        """Total cap conservation: every shard gets >= 1 path, and the
        shards together cover exactly the remaining budget."""
        budget = Budget(max_paths=max_paths)
        for _ in range(used):
            budget.charge_path()
        caps = budget.shard_path_caps(jobs)
        remaining = max(0, max_paths - used)
        assert sum(caps) == remaining
        assert len(caps) == min(jobs, remaining)
        assert all(cap >= 1 for cap in caps)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            Budget().shard_path_caps(0)


class TestRescopeForWorker:
    def test_worker_restarts_path_count_with_its_cap(self):
        budget = Budget(deadline=60.0, query_timeout=1.0, max_paths=100)
        for _ in range(40):
            budget.charge_path()
        cap = budget.shard_path_caps(4)[0]
        budget.rescope_for_worker(cap)  # in real use: the forked copy
        assert budget.paths_used == 0
        assert budget.max_paths == 15
        # The wall-clock limits ride along unchanged (the deadline is an
        # absolute monotonic instant shared by parent and workers).
        assert budget.deadline == 60.0
        assert budget.query_timeout == 1.0

    def test_none_cap_means_unbounded_worker(self):
        budget = Budget(max_paths=7)
        budget.rescope_for_worker(None)
        assert budget.max_paths is None
        assert not budget.paths_exhausted()


def _some_queries():
    x, y = smt.var("x", smt.INT), smt.var("y", smt.INT)
    k = smt.int_const
    return [
        (smt.lt(x, k(3)), smt.lt(k(5), x)),  # UNSAT
        (smt.le(k(0), x), smt.lt(x, y), smt.lt(y, k(10))),  # SAT
        (smt.eq(smt.add(x, y), k(7)), smt.lt(x, k(0))),  # SAT
    ]


def _delta_keys(delta):
    """The delta's entries decoded back to ``(int_budget, key)`` pairs,
    in shipping order (decoding re-interns, so keys compare by
    identity against the shipping process's own)."""
    roots = smt.terms.from_wire_many(delta.wire)
    return [
        (int_budget, frozenset(roots[i] for i in positions))
        for int_budget, positions, _, _, _ in delta.entries
    ]


class TestCacheDelta:
    def test_empty_delta_when_nothing_was_solved(self):
        service = SolverService()
        mark = service.cache_mark()
        delta = service.collect_delta_since(mark, replace(service.stats))
        assert len(delta) == 0

    def test_delta_transfers_verdicts_to_a_fresh_service(self):
        worker = SolverService()
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        expected = [worker.check_sat(q) for q in _some_queries()]
        delta = worker.collect_delta_since(mark, stats0)
        assert len(delta) == len(_some_queries())

        parent = SolverService()
        imported = parent.merge_delta(delta)
        assert imported == len(delta)
        solves_before = parent.stats.full_solves
        got = [parent.check_sat(q) for q in _some_queries()]
        assert got == expected
        # Every query was answered from the imported entries.
        assert parent.stats.full_solves == solves_before

    def test_merge_is_idempotent(self):
        worker = SolverService()
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        for q in _some_queries():
            worker.check_sat(q)
        delta = worker.collect_delta_since(mark, stats0)

        parent = SolverService()
        assert parent.merge_delta(delta) == len(delta)
        assert parent.merge_delta(delta) == 0  # all entries already known

    def test_delta_excludes_entries_known_at_the_baseline(self):
        worker = SolverService()
        worker.check_sat(_some_queries()[0])  # cached pre-fork
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        for q in _some_queries():
            worker.check_sat(q)  # first one is a cache hit, not a new entry
        delta = worker.collect_delta_since(mark, stats0)
        assert len(delta) == len(_some_queries()) - 1

    def test_delta_ships_perf_counters_only(self):
        worker = SolverService()
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        worker.stats.witnesses_confirmed += 3  # trust verdicts: not perf
        for q in _some_queries():
            worker.check_sat(q)
        delta = worker.collect_delta_since(mark, stats0)
        assert delta.stats.full_solves > 0
        assert delta.stats.witnesses_confirmed == 0

        parent = SolverService()
        parent.merge_delta(delta)
        assert parent.stats.speculative is None  # the caller files perf
        parent.stats.merge_perf(delta.stats)
        # Worker counters land in the speculative sub-table, never in the
        # authoritative fields: the parent re-runs the blocks itself, so
        # folding worker solve time in would double-count wall time.
        assert parent.stats.full_solves == 0
        assert parent.stats.solve_seconds == 0.0
        assert parent.stats.speculative is not None
        assert parent.stats.speculative.full_solves == delta.stats.full_solves
        assert parent.stats.witnesses_confirmed == 0
        assert parent.stats.cache_entries_imported == len(delta)

    def test_mark_delta_is_the_exact_key_difference_in_insertion_order(self):
        """The journal suffix ships exactly the exact-tier keys gained
        since the mark — the set difference of ``shard.exact`` before
        and after — in the order they were inserted, with each key's
        own verdict."""
        worker = SolverService()
        worker.check_sat(_some_queries()[0])  # pre-fork state: not shipped
        before = {
            b: set(shard.exact) for b, shard in worker._shards.items()
        }
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        for q in _some_queries():
            worker.check_sat(q)
        gained = [
            (b, key)
            for b, shard in worker._shards.items()
            for key in shard.exact  # dict order is insertion order
            if key not in before.get(b, set())
        ]
        delta = worker.collect_delta_since(mark, stats0)
        assert len(gained) == len(_some_queries()) - 1
        assert _delta_keys(delta) == gained
        assert [entry[2] for entry in delta.entries] == [
            worker._shards[b].exact[key] for b, key in gained
        ]

    def test_export_import_round_trip_keeps_the_exact_tier(self):
        """``export_cache`` -> ``import_cache`` into a fresh service
        rebuilds the same exact tier: same shards, keys, verdicts and
        insertion order — the store's persisted form of the cache."""
        worker = SolverService()
        for q in _some_queries():
            worker.check_sat(q)
        worker.check_sat(_some_queries()[1], int_budget=7)  # second shard
        exported = worker.export_cache()
        assert exported.stats == SolverStats()  # verdicts, not solve time

        fresh = SolverService()
        assert fresh.import_cache(exported) == len(exported)
        assert list(fresh._shards) == list(worker._shards)
        for b, shard in worker._shards.items():
            assert list(fresh._shards[b].exact.items()) == list(
                shard.exact.items()
            )
            assert fresh._shards[b].journal == list(shard.exact)
        assert fresh.stats.full_solves == 0

    def test_stale_mark_ships_the_whole_journal(self):
        """A shard evicted since the mark invalidates the journal
        position; the conservative fallback ships every surviving entry
        — over-shipping is idempotent, under-shipping loses verdicts."""
        worker = SolverService()
        worker.check_sat(_some_queries()[0])
        mark = worker.cache_mark()
        stats0 = replace(worker.stats)
        for q in _some_queries()[1:]:
            worker.check_sat(q)
        for shard in worker._shards.values():
            shard.resets += 1  # as if eviction restarted the journal
        delta = worker.collect_delta_since(mark, stats0)
        assert len(delta) == len(_some_queries())  # pre-mark entry included

    def test_merged_perf_shows_up_as_a_speculative_table(self):
        stats = SolverService().stats
        assert "speculative" not in stats.as_dict()  # serial runs: absent
        delta = SolverStats(queries=4, full_solves=2, solve_seconds=0.5)
        stats.merge_perf(delta)
        stats.merge_perf(delta)
        spec = stats.as_dict()["speculative"]
        assert spec["queries"] == 8
        assert spec["full_solves"] == 4
        assert spec["solve_seconds"] == 1.0
        assert stats.queries == 0 and stats.solve_seconds == 0.0

    def test_added_perf_lands_in_the_own_counters(self):
        stats = SolverService().stats
        stats.add_perf(SolverStats(queries=4, full_solves=2, solve_seconds=0.5))
        assert stats.queries == 4 and stats.full_solves == 2
        assert stats.solve_seconds == 0.5
        assert "speculative" not in stats.as_dict()


TWO_CLEAN_BLOCKS = """
int block_a(int a, int b) MIX(symbolic) {
  if (a < 0) { return 0; }
  if (3 * a + 2 * b < 7) {
    return 1;
  }
  return 2;
}

int block_b(int c) MIX(symbolic) {
  if (c > 10) {
    return c - 1;
  }
  return c;
}

int main(void) {
  int r;
  r = block_a(1, 2);
  r = r + block_b(3);
  return r;
}
"""

BLOCKS_WITH_WARNING = """
void sysutil_free(void *nonnull p_ptr) MIX(typed);
int *g_ptr;

int block_a(int a, int b) MIX(symbolic) {
  if (a < 0) { return 0; }
  if (3 * a + 2 * b < 7) {
    return 1;
  }
  return 2;
}

int block_b(int c) MIX(symbolic) {
  if (c > 10) {
    sysutil_free(g_ptr);
    g_ptr = NULL;
  }
  return c;
}

int main(void) {
  int r;
  r = block_a(1, 2);
  r = r + block_b(3);
  return r;
}
"""


class TestWorkerCrashContainment:
    def _run(self, tmp_path, source, argv, capsys):
        path = tmp_path / "program.c"
        path.write_text(source)
        code = main(["mixy", str(path), *argv])
        return code, capsys.readouterr().out

    def test_injected_crash_under_jobs_degrades_block_and_exits_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        smt.reset_service()
        # Query 3 lands inside a symbolic block's exploration.  The
        # injected crash fires in the worker (delta discarded) and then
        # deterministically re-fires in the authoritative pass, where
        # trust ring 3 contains it: repro written, block degraded to
        # qualifier inference, run continues, exit code 0.
        code, out = self._run(
            tmp_path,
            TWO_CLEAN_BLOCKS,
            ["--jobs", "2", "--inject-fault", "3:crash", "--crash-dir", "crashes"],
            capsys,
        )
        assert code == 0
        assert "analysis crash contained" in out
        repros = list(pathlib.Path("crashes").glob("crash-*.json"))
        assert repros, "expected a crash repro to be recorded"
        phases = {json.loads(p.read_text())["phase"] for p in repros}
        assert any(p.startswith("mixy:") for p in phases)

    def test_other_blocks_warnings_survive_a_crashed_block(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        smt.reset_service()
        code, out = self._run(
            tmp_path,
            BLOCKS_WITH_WARNING,
            ["--jobs", "2", "--inject-fault", "3:crash", "--crash-dir", "crashes"],
            capsys,
        )
        # block_a's crash is contained; block_b's genuine nonnull
        # violation is still reported and still drives the exit code.
        assert code == 1
        assert "analysis crash contained in block_a" in out
        assert "nonnull parameter p_ptr of sysutil_free" in out

    def test_uninjected_parallel_run_is_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        smt.reset_service()
        code, out = self._run(tmp_path, TWO_CLEAN_BLOCKS, ["--jobs", "2"], capsys)
        assert code == 0
        assert "crash" not in out
