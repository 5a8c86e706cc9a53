"""The cross-run analysis store and the atomic-write durability layer.

Two contracts under test here:

1. :func:`repro.fsio.atomic_write` — readers never observe a torn
   file: either the old content or the complete new content exists,
   and a failed write leaves no temp droppings behind.
2. :class:`repro.store.AnalysisStore` — persisting the solver cache
   and block memos is an *accelerator, never a correctness input*:
   a warm run produces bitwise-identical warnings to a cold one, and
   any corrupt / truncated / version-mismatched store file degrades
   to a cold start with a stderr note, never a crash or a changed
   verdict.
"""

import contextlib
import itertools
import json
import os
import pickle

import pytest

from repro import smt
from repro.budget import Budget
from repro.core import MixConfig, analyze_source
from repro.fsio import atomic_write
from repro.mixy import Mixy, MixyConfig
from repro.mixy.corpus import CASES
from repro.mixy.corpus_vsftpd import parallel_vsftpd
from repro.mixy.qual import QVar
from repro.store import STORE_VERSION, AnalysisStore, block_content_hash
from repro.symexec import values
from repro.trace import TRACER, read_trace
from repro.typecheck.types import INT, TypeEnv

#: Fast corpus for degradation tests.
SOURCE = CASES["case1"].source(False)
#: Corpus whose symbolic blocks the store memoizes, one of them
#: (``crunch_filter``) making a typed call — what the round-trip tests
#: need.
STAIRCASE = parallel_vsftpd(depth=1)
#: A symbolic block (``clamp``) reached only through a typed call
#: (``pick``) made from inside another symbolic block (``session``).
#: ``clamp`` is memoizable; on a warm run it is skipped mid-way through
#: ``session``, whose later fresh names and addresses (``pick``'s
#: havocked return object) must not move.  ``clamp``'s null conclusion
#: for ``g_buf`` is what makes ``session`` warn.  ``session`` is never
#: recorded: ``pick`` returns a pointer, whose havocked value reads a
#: qualifier solution the store key does not cover.
NESTED = """
void sysutil_free(void *nonnull p_ptr) MIX(typed);
int *g_buf;

int clamp(int a, int b) MIX(symbolic) {
  int r = 0;
  if (a < 1) { return 0; }
  if (a > 40) { return 0; }
  if (b < 1) { return 0; }
  if (3 * a - 2 * b > 7) { r = a - b; } else { r = b - a; }
  if (r == 5) { g_buf = NULL; }
  return r;
}

int *pick(int a, int b) MIX(typed) {
  int t;
  t = clamp(a, b);
  return g_buf;
}

int session(int a, int b, int c) MIX(symbolic) {
  int k = 0;
  int *p;
  if (c > 2) { sysutil_free(g_buf); }
  p = pick(a, b);
  if (p != NULL) { k = *p; }
  if (2 * k - c < 9) { k = k + 1; }
  return k;
}

int main(void) {
  int x = 1;
  g_buf = &x;
  return session(2, 3, 4);
}
"""


def _fresh_process_state():
    """Reset everything that carries ordinal state across runs in one
    process (same discipline as the parallel-equivalence tests)."""
    smt.reset_service()
    QVar._ids = itertools.count(1)
    values._STRING_CODES.clear()


def _run(store=None, budget=None, source=SOURCE, jobs=1):
    """One MIXY run in a reproducible process state; returns (the driver,
    warning texts, store-stat snapshot).  ``jobs`` is explicit so
    REPRO_JOBS is never inherited."""
    _fresh_process_state()
    if store is not None:
        store.load_into_service(smt.get_service())
    config = MixyConfig(budget=budget)
    config.jobs = jobs
    config.store = store
    mixy = Mixy(source, config)
    warnings = [str(w) for w in mixy.run()]
    return mixy, warnings, dict(store.stats) if store is not None else {}


def _analyze(store=None, budget=None, source=SOURCE, jobs=1):
    """:func:`_run` without the driver: (warning texts, store stats)."""
    return _run(store, budget, source, jobs)[1:]


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        with atomic_write(str(path)) as fh:
            fh.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "out.pkl"
        with atomic_write(str(path), binary=True) as fh:
            pickle.dump({"k": 1}, fh)
        with open(path, "rb") as fh:
            assert pickle.load(fh) == {"k": 1}

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(str(path)) as fh:
            fh.write("new")
        assert path.read_text() == "new"

    def test_failed_write_keeps_old_content_and_no_droppings(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as fh:
                fh.write("half-written")
                raise RuntimeError("boom")
        # The old content survives and no *.tmp siblings are left over.
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_no_partial_file_on_first_write_failure(self, tmp_path):
        path = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as fh:
                fh.write("half")
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Store round trip
# ---------------------------------------------------------------------------


class TestStoreRoundTrip:
    def test_memo_entries_survive_save_open(self, tmp_path):
        store = AnalysisStore.open(str(tmp_path / "store"))
        store.mixy_put("k1", {"null_indices": (0,), "warnings": ()})
        store.mix_put("k2", {"names": 2})
        store.save()
        reopened = AnalysisStore.open(str(tmp_path / "store"))
        assert reopened.mixy_get("k1") == {
            "null_indices": (0,), "warnings": ()
        }
        assert reopened.mix_get("k2") == {"names": 2}
        assert reopened.notes == []
        # Held and persisted encoded: the bytes round-trip as they are.
        assert reopened.mixy_blocks == store.mixy_blocks
        assert all(isinstance(b, bytes) for b in store.mixy_blocks.values())

    def test_solver_cache_round_trips_through_disk(self, tmp_path):
        _fresh_process_state()
        service = smt.get_service()
        from repro.smt import eq, int_const, var
        from repro.smt.terms import INT

        x = var("store_rt_x", INT)
        verdict = service.check_sat((eq(x, int_const(1)),))
        store = AnalysisStore.open(str(tmp_path / "store"))
        store.save(service)
        reopened = AnalysisStore.open(str(tmp_path / "store"))
        fresh = smt.SolverService()
        imported = reopened.solver_cache is not None and fresh.import_cache(
            reopened.solver_cache
        )
        assert imported and imported >= 1
        # The imported entry answers without a fresh solve.
        solves_before = fresh.stats.full_solves
        assert fresh.check_sat((eq(x, int_const(1)),)) is verdict
        assert fresh.stats.full_solves == solves_before

    def test_warm_run_is_bitwise_identical_and_hits(self, tmp_path):
        cold_warnings, _ = _analyze(source=STAIRCASE)
        store = AnalysisStore.open(str(tmp_path / "store"))
        first_warnings, first_stats = _analyze(store, source=STAIRCASE)
        store.save(smt.get_service())
        assert first_warnings == cold_warnings
        assert first_stats["mixy_records"] > 0

        warm = AnalysisStore.open(str(tmp_path / "store"))
        assert warm.notes == []
        warm_warnings, warm_stats = _analyze(warm, source=STAIRCASE)
        assert warm_warnings == cold_warnings
        assert warm_stats["mixy_hits"] > 0
        assert warm_stats["solver_entries_loaded"] > 0

    def test_mixy_entries_hold_conclusions_warnings_and_calls(self, tmp_path):
        # Block-scoped naming: a skipped block shifts no other block's
        # names, so entries carry no fresh-name counts to fast-forward.
        # The watched list is slot references, so a replay needs no
        # symbolic state to map null indices to qualifier variables.
        # Typed calls are (callee, argument nullness, position among the
        # block's warnings), so a replay repeats them in the cold order.
        store = AnalysisStore.open(str(tmp_path / "store"))
        _analyze(store, source=STAIRCASE)
        assert store.mixy_blocks
        calls = []
        for key in list(store.mixy_blocks):
            entry = store.mixy_get(key)
            assert set(entry) == {"watched", "null_indices", "warnings", "calls"}
            assert all(
                index < len(entry["watched"]) for index in entry["null_indices"]
            )
            for callee, arg_nullness, position in entry["calls"]:
                assert isinstance(callee, str) and isinstance(arg_nullness, tuple)
                assert 0 <= position <= len(entry["warnings"])
            calls += [call[0] for call in entry["calls"]]
        assert "sysutil_free" in calls  # crunch_filter's typed call

    def test_memo_is_inactive_under_a_budget(self, tmp_path):
        store = AnalysisStore.open(str(tmp_path / "store"))
        _, stats = _analyze(
            store, budget=Budget(deadline=3600.0), source=STAIRCASE
        )
        assert stats["mixy_records"] == 0
        assert stats["mixy_hits"] == 0


# ---------------------------------------------------------------------------
# Degradation: every broken store starts cold, never crashes
# ---------------------------------------------------------------------------


def _populated_store_dir(tmp_path) -> str:
    root = str(tmp_path / "store")
    store = AnalysisStore.open(root)
    _analyze(store)
    store.save(smt.get_service())
    return root


class TestDegradation:
    def test_missing_store_is_silent_cold(self, tmp_path, capsys):
        store = AnalysisStore.open(str(tmp_path / "nope"))
        assert store.notes == []
        assert store.mixy_blocks == {} and store.solver_cache is None
        assert capsys.readouterr().err == ""

    def test_corrupt_pickles_degrade_with_a_note(self, tmp_path, capsys):
        root = _populated_store_dir(tmp_path)
        # A first save has no previous generation to roll back to, so a
        # corrupt section can only start cold.
        for name in os.listdir(root):
            if name.endswith(".pkl"):
                with open(os.path.join(root, name), "wb") as fh:
                    fh.write(b"not a pickle")
        store = AnalysisStore.open(root)
        err = capsys.readouterr().err
        assert "failed its checksum" in err
        assert "corrupt in every recorded generation" in err
        assert store.stats["sections_lost"] == 2
        warnings, stats = _analyze(store)
        cold_warnings, _ = _analyze()
        assert warnings == cold_warnings
        assert stats["mixy_hits"] == 0 and stats["solver_entries_loaded"] == 0

    def test_malformed_section_records_are_rewritten(self, tmp_path, capsys):
        # A meta.json whose section records are not records: the
        # sections start cold, and the next save writes healthy ones
        # instead of reading the bad records.
        root = _populated_store_dir(tmp_path)
        with open(os.path.join(root, "meta.json")) as fh:
            meta = json.load(fh)
        meta["sections"] = {"solver-cache": "x", "blocks": ["y"]}
        meta["previous"] = 7
        with open(os.path.join(root, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        store = AnalysisStore.open(root)
        assert store.mixy_blocks == {} and store.solver_cache is None
        store.mixy_put("k1", {"v": 1})
        store.save(smt.get_service())
        assert "could not persist" not in capsys.readouterr().err
        reopened = AnalysisStore.open(root)
        assert reopened.notes == []
        assert reopened.mixy_get("k1") == {"v": 1}

    def test_version_mismatched_meta_starts_cold(self, tmp_path, capsys):
        root = _populated_store_dir(tmp_path)
        with open(os.path.join(root, "meta.json"), "w") as fh:
            json.dump({"schema": "repro-store", "version": STORE_VERSION + 1}, fh)
        store = AnalysisStore.open(root)
        assert "unsupported meta" in capsys.readouterr().err
        assert store.mixy_blocks == {} and store.solver_cache is None

    def test_version_mismatched_sections_start_cold(self, tmp_path, capsys):
        # A section whose *payload* declares a different version (but
        # passes its checksum) is ignored — forward compatibility.
        root = _populated_store_dir(tmp_path)
        from repro.fsio import checksummed_write

        with open(os.path.join(root, "meta.json")) as fh:
            meta = json.load(fh)
        name = meta["sections"]["blocks"]["file"]
        record = checksummed_write(
            os.path.join(root, name),
            pickle.dumps({"version": STORE_VERSION + 1, "mixy": {}, "mix": {}}),
        )
        meta["sections"]["blocks"] = {"file": name, **record}
        with open(os.path.join(root, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        store = AnalysisStore.open(root)
        assert "corrupt blocks section" in capsys.readouterr().err
        assert store.mixy_blocks == {}
        # The untouched solver cache still loads.
        assert store.solver_cache is not None

    def test_version_2_store_starts_cold(self, tmp_path, capsys, monkeypatch):
        # The previous format: MIXY entries also counted the fresh
        # symbols / addresses a block consumed.  Opening one is a
        # version mismatch, never a KeyError.
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        cold_warnings, _ = _analyze(store, source=STAIRCASE)
        store.mixy_blocks = {
            key: {**pickle.loads(blob), "symbols": 3, "addresses": 1}
            for key, blob in store.mixy_blocks.items()
        }
        monkeypatch.setattr("repro.store.STORE_VERSION", 2)
        store.save(smt.get_service())
        monkeypatch.undo()
        with open(os.path.join(root, "meta.json")) as fh:
            assert json.load(fh)["version"] == 2
        capsys.readouterr()
        old = AnalysisStore.open(root)
        assert "unsupported meta" in capsys.readouterr().err
        assert old.mixy_blocks == {} and old.solver_cache is None
        warnings, stats = _analyze(old, source=STAIRCASE)
        assert warnings == cold_warnings
        assert stats["mixy_hits"] == 0 and stats["solver_entries_loaded"] == 0

    def test_version_4_store_starts_cold(self, tmp_path, capsys, monkeypatch):
        # The previous format: MIXY entries had no watched-slot
        # references, and the manifest kept one whole previous
        # generation.  Opening one is a version mismatch, never a
        # KeyError on replay.
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        cold_warnings, _ = _analyze(store, source=STAIRCASE)
        store.mixy_blocks = {
            key: {
                k: v for k, v in pickle.loads(blob).items() if k != "watched"
            }
            for key, blob in store.mixy_blocks.items()
        }
        monkeypatch.setattr("repro.store.STORE_VERSION", 4)
        store.save(smt.get_service())
        monkeypatch.undo()
        capsys.readouterr()
        old = AnalysisStore.open(root)
        assert "unsupported meta" in capsys.readouterr().err
        assert old.mixy_blocks == {} and old.solver_cache is None
        warnings, stats = _analyze(old, source=STAIRCASE)
        assert warnings == cold_warnings
        assert stats["mixy_hits"] == 0

    def test_version_5_store_starts_cold(self, tmp_path, capsys, monkeypatch):
        # The previous format: MIXY entries had no typed calls (a block
        # that made one was never recorded), and their warnings left out
        # those another block raised first.  Opening one is a version
        # mismatch, never a KeyError on replay.
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        cold_warnings, _ = _analyze(store, source=STAIRCASE)
        store.mixy_blocks = {
            key: {k: v for k, v in pickle.loads(blob).items() if k != "calls"}
            for key, blob in store.mixy_blocks.items()
        }
        monkeypatch.setattr("repro.store.STORE_VERSION", 5)
        store.save(smt.get_service())
        monkeypatch.undo()
        capsys.readouterr()
        old = AnalysisStore.open(root)
        assert "unsupported meta" in capsys.readouterr().err
        assert old.mixy_blocks == {} and old.solver_cache is None
        warnings, stats = _analyze(old, source=STAIRCASE)
        assert warnings == cold_warnings
        assert stats["mixy_hits"] == 0

    def test_version_6_store_starts_cold(self, tmp_path, capsys, monkeypatch):
        # The previous format: memo entries were held and persisted as
        # plain dicts, not as their pickled bytes.  Opening one is a
        # version mismatch, never a TypeError on a hit.
        assert STORE_VERSION == 7
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        cold_warnings, _ = _analyze(store, source=STAIRCASE)
        store.mixy_blocks = {
            key: pickle.loads(blob) for key, blob in store.mixy_blocks.items()
        }
        monkeypatch.setattr("repro.store.STORE_VERSION", 6)
        store.save(smt.get_service())
        monkeypatch.undo()
        capsys.readouterr()
        old = AnalysisStore.open(root)
        assert "unsupported meta" in capsys.readouterr().err
        assert old.mixy_blocks == {} and old.solver_cache is None
        warnings, stats = _analyze(old, source=STAIRCASE)
        assert warnings == cold_warnings
        assert stats["mixy_hits"] == 0

    def test_unencoded_memo_entries_start_the_section_cold(
        self, tmp_path, capsys
    ):
        # A current-version blocks section whose entries are not bytes
        # is unusable as a whole, never a TypeError on a later hit.
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        store.mixy_put("k1", {"v": 1})
        store.mixy_blocks["k1"] = {"v": 1}
        store.save()
        capsys.readouterr()
        reopened = AnalysisStore.open(root)
        assert "corrupt blocks section" in capsys.readouterr().err
        assert reopened.mixy_get("k1") is None

    def test_unreadable_meta_starts_cold(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as fh:
            fh.write("{half a json")
        store = AnalysisStore.open(root)
        assert "unreadable meta.json" in capsys.readouterr().err
        assert store.solver_cache is None

    def test_quiet_open_suppresses_notes(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as fh:
            fh.write("%%%")
        store = AnalysisStore.open(root, quiet=True)
        assert store.notes  # recorded...
        assert capsys.readouterr().err == ""  # ...but not printed


# ---------------------------------------------------------------------------
# Checksummed I/O (repro.fsio)
# ---------------------------------------------------------------------------


class TestChecksummedIO:
    def test_round_trip(self, tmp_path):
        from repro.fsio import checksummed_write, read_checksummed

        path = str(tmp_path / "blob.bin")
        record = checksummed_write(path, b"payload bytes")
        assert set(record) == {"crc32", "size"} and record["size"] == 13
        assert read_checksummed(path, record) == b"payload bytes"

    def test_flipped_byte_fails_verification(self, tmp_path):
        from repro.fsio import checksummed_write, read_checksummed

        path = str(tmp_path / "blob.bin")
        record = checksummed_write(path, b"payload bytes")
        data = bytearray((tmp_path / "blob.bin").read_bytes())
        data[4] ^= 0xFF
        (tmp_path / "blob.bin").write_bytes(bytes(data))
        assert read_checksummed(path, record) is None

    def test_truncation_fails_verification(self, tmp_path):
        from repro.fsio import checksummed_write, read_checksummed

        path = str(tmp_path / "blob.bin")
        record = checksummed_write(path, b"payload bytes")
        (tmp_path / "blob.bin").write_bytes(b"payload")
        assert read_checksummed(path, record) is None

    def test_missing_file_and_bad_record_return_none(self, tmp_path):
        from repro.fsio import checksummed_write, read_checksummed

        path = str(tmp_path / "blob.bin")
        assert read_checksummed(path, {"crc32": 0, "size": 0}) is None
        checksummed_write(path, b"x")
        assert read_checksummed(path, {}) is None
        assert read_checksummed(path, {"crc32": "nope", "size": None}) is None


# ---------------------------------------------------------------------------
# atomic_write under injected filesystem faults
# ---------------------------------------------------------------------------


class TestAtomicWriteFaults:
    """Simulated ENOSPC, failed fsync, and rename interruption: the
    destination must keep its old content bit for bit, and no ``*.tmp``
    siblings may survive."""

    def _assert_intact(self, tmp_path, path):
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == [path.name]

    def test_enospc_during_write(self, tmp_path, monkeypatch):
        import errno

        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", fail_fsync)
        with pytest.raises(OSError, match="No space left"):
            with atomic_write(str(path)) as fh:
                fh.write("new content that never lands")
        self._assert_intact(tmp_path, path)

    def test_failed_fsync(self, tmp_path, monkeypatch):
        import errno

        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fail_fsync)
        with pytest.raises(OSError, match="Input/output"):
            with atomic_write(str(path)) as fh:
                fh.write("new")
        self._assert_intact(tmp_path, path)

    def test_rename_interruption(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old")
        real_replace = os.replace

        def fail_replace(src, dst, **kwargs):
            if str(dst) == str(path):
                raise OSError("interrupted rename")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="interrupted rename"):
            with atomic_write(str(path)) as fh:
                fh.write("new")
        self._assert_intact(tmp_path, path)

    def test_store_save_survives_write_failure(self, tmp_path, monkeypatch):
        """A store whose persist fails mid-save keeps serving from
        memory and leaves the on-disk generation untouched."""
        import errno

        store = AnalysisStore.open(str(tmp_path / "store"))
        store.mixy_put("k1", {"v": 1})
        store.save()
        generation = store.generation

        def fail_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        store.mixy_put("k2", {"v": 2})
        monkeypatch.setattr(os, "fsync", fail_fsync)
        store.save()  # swallowed with a note, never raises
        monkeypatch.undo()
        assert any("could not persist" in note for note in store.notes)
        assert store.generation == generation  # no half-flipped manifest
        reopened = AnalysisStore.open(str(tmp_path / "store"))
        assert reopened.mixy_get("k1") == {"v": 1}  # old generation intact
        assert reopened.mixy_get("k2") is None

    def test_a_repeated_save_failure_notes_once_and_retries(
        self, tmp_path, capsys
    ):
        """A store whose path cannot be written (here: under a regular
        file) fails every save the same way.  A daemon saves after every
        learning merge, so each failure must not add a note and a stderr
        line: the error is recorded once, and every save still retries
        — the first one after the path becomes writable persists."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        root = str(blocker / "store")
        store = AnalysisStore.open(root)
        capsys.readouterr()
        for n in range(5):
            store.mixy_put(f"k{n}", {"v": n})
            store.save()
        err = capsys.readouterr().err
        assert len(store.notes) == 1 and "could not persist" in store.notes[0]
        assert err.count("could not persist") == 1
        assert store.unsaved() and store.generation == 0
        blocker.unlink()
        store.save()
        assert store.generation == 1
        assert AnalysisStore.open(root).mixy_get("k4") == {"v": 4}


# ---------------------------------------------------------------------------
# Two-generation integrity: checksum mismatch rolls back, never crashes
# ---------------------------------------------------------------------------


def _section_file(root, section, generation="current"):
    with open(os.path.join(root, "meta.json")) as fh:
        meta = json.load(fh)
    records = meta["sections" if generation == "current" else "previous"]
    return os.path.join(root, records[section]["file"])


def _flip_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(0)
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0xFF]))


class TestGenerationRollback:
    def _two_generations(self, tmp_path):
        """gen 1 holds k1; gen 2 holds k1+k2.  Distinct file slots."""
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        store.mixy_put("k1", {"v": 1})
        store.save()
        store.mixy_put("k2", {"v": 2})
        store.save()
        assert store.generation == 2
        current = _section_file(root, "blocks")
        previous = _section_file(root, "blocks", "previous")
        assert current != previous  # saves alternate slots
        return root

    def test_save_alternates_slots_and_records_previous(self, tmp_path):
        root = self._two_generations(tmp_path)
        with open(os.path.join(root, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["generation"] == 2
        assert meta["sections"]["blocks"]["generation"] == 2
        assert meta["previous"]["blocks"]["generation"] == 1

    def test_checksum_mismatch_rolls_back_a_generation(self, tmp_path, capsys):
        root = self._two_generations(tmp_path)
        _flip_byte(_section_file(root, "blocks"))
        store = AnalysisStore.open(root)
        err = capsys.readouterr().err
        assert "failed its checksum" in err and "rolled back" in err
        assert store.stats["sections_recovered"] == 1
        # Generation 1's content, not generation 2's.
        assert store.mixy_get("k1") == {"v": 1}
        assert store.mixy_get("k2") is None

    def test_rollback_is_per_section(self, tmp_path, capsys):
        root = self._two_generations(tmp_path)
        _flip_byte(_section_file(root, "blocks"))
        store = AnalysisStore.open(root)
        capsys.readouterr()
        # blocks rolled back; a later save writes a complete fresh
        # generation and recovers full integrity.
        store.mixy_put("k3", {"v": 3})
        store.save()
        reopened = AnalysisStore.open(root)
        assert reopened.notes == []
        assert reopened.mixy_get("k1") == {"v": 1}
        assert reopened.mixy_get("k3") == {"v": 3}

    def test_both_generations_corrupt_starts_cold(self, tmp_path, capsys):
        root = self._two_generations(tmp_path)
        _flip_byte(_section_file(root, "blocks"))
        _flip_byte(_section_file(root, "blocks", "previous"))
        store = AnalysisStore.open(root)
        err = capsys.readouterr().err
        assert "corrupt in every recorded generation" in err
        assert store.stats["sections_lost"] == 1
        assert store.mixy_blocks == {}

    def test_truncated_section_rolls_back(self, tmp_path, capsys):
        root = self._two_generations(tmp_path)
        current = _section_file(root, "blocks")
        with open(current, "r+b") as fh:
            fh.truncate(4)  # a torn tail, as after a mid-write SIGKILL
        store = AnalysisStore.open(root)
        assert store.stats["sections_recovered"] == 1
        assert store.mixy_get("k1") == {"v": 1}
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Saves write a new generation only when the store's contents changed
# ---------------------------------------------------------------------------


class TestSaveOnlyOnChange:
    def _reopened(self, tmp_path):
        """A saved warm store, reopened and loaded into a fresh service."""
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        _analyze(store, source=STAIRCASE)
        store.save(smt.get_service())
        assert store.generation == 1
        service = smt.reset_service()
        reopened = AnalysisStore.open(root)
        assert reopened.load_into_service(service) > 0
        return root, reopened, service

    def _meta(self, root):
        with open(os.path.join(root, "meta.json"), "rb") as fh:
            return fh.read()

    def test_unchanged_save_writes_no_generation(self, tmp_path):
        root, store, service = self._reopened(tmp_path)
        meta = self._meta(root)
        store.save(service)
        store.save()
        assert store.generation == 1
        assert self._meta(root) == meta

    def test_known_memos_from_a_worker_write_no_generation(self, tmp_path):
        root, store, service = self._reopened(tmp_path)
        known = dict(itertools.islice(store.mixy_blocks.items(), 1))
        store.merge_worker(known, {}, {"mixy_hits": 1})
        store.save(service)
        assert store.generation == 1

    def test_an_import_writes_a_generation(self, tmp_path):
        root, store, service = self._reopened(tmp_path)
        from repro.smt import eq, int_const, var
        from repro.smt.terms import INT as SMT_INT

        other = smt.SolverService()
        other.check_sat((eq(var("save_only_x", SMT_INT), int_const(7)),))
        assert service.merge_delta(other.export_cache()) == 1
        store.save(service)
        assert store.generation == 2
        assert AnalysisStore.open(root).solver_cache is not None

    def test_a_new_memo_writes_a_generation(self, tmp_path):
        root, store, service = self._reopened(tmp_path)
        store.merge_worker({"fresh-key": pickle.dumps({"v": 1})}, {}, {})
        store.save(service)
        assert store.generation == 2
        assert AnalysisStore.open(root).mixy_get("fresh-key") == {"v": 1}

    def test_force_writes_a_generation(self, tmp_path):
        root, store, service = self._reopened(tmp_path)
        store.save(service, force=True)
        assert store.generation == 2

    def test_a_rollback_on_open_makes_the_next_save_write(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        store.mixy_put("k1", {"v": 1})
        store.save()
        store.mixy_put("k2", {"v": 2})
        store.save()
        _flip_byte(_section_file(root, "blocks"))
        service = smt.reset_service()
        rolled = AnalysisStore.open(root)
        capsys.readouterr()
        assert rolled.stats["sections_recovered"] == 1
        rolled.load_into_service(service)
        rolled.save(service)
        assert rolled.generation == 3
        healthy = AnalysisStore.open(root)
        assert healthy.notes == []
        assert healthy.mixy_get("k1") == {"v": 1}

    def test_a_lost_section_makes_the_next_save_write(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        store.mixy_put("k1", {"v": 1})
        store.save()
        _flip_byte(_section_file(root, "blocks"))
        lost = AnalysisStore.open(root)
        capsys.readouterr()
        assert lost.stats["sections_lost"] == 1
        lost.save()
        assert lost.generation == 2
        assert AnalysisStore.open(root).notes == []


# ---------------------------------------------------------------------------
# A save rewrites only the sections that changed
# ---------------------------------------------------------------------------


def _solver_files(root):
    """Every solver-cache slot file: name -> (inode, mtime_ns)."""
    return {
        name: (os.stat(path).st_ino, os.stat(path).st_mtime_ns)
        for name in os.listdir(root)
        if name.startswith("solver-cache.")
        for path in [os.path.join(root, name)]
    }


def _learn_solver_entry(service, tag):
    from repro.smt import eq, int_const, var
    from repro.smt.terms import INT as SMT_INT

    service.check_sat((eq(var(f"reuse_{tag}", SMT_INT), int_const(3)),))


class TestSectionReuse:
    def _saved(self, tmp_path):
        """A store that wrote generation 1 from a live service."""
        root = str(tmp_path / "store")
        store = AnalysisStore.open(root)
        _analyze(store, source=STAIRCASE)
        service = smt.get_service()
        store.save(service)
        assert store.generation == 1
        return root, store, service

    def test_memo_only_save_leaves_the_solver_cache_file_alone(self, tmp_path):
        root, store, service = self._saved(tmp_path)
        files = _solver_files(root)
        current = _section_file(root, "solver-cache")
        store.mixy_put("memo-only", {"v": 1})
        store.save(service)
        assert store.generation == 2
        assert _solver_files(root) == files  # not rewritten, no new slot
        assert _section_file(root, "solver-cache") == current
        # A new solver entry rewrites the section, into the other slot.
        _learn_solver_entry(service, "memo_only")
        store.save(service)
        assert store.generation == 3
        rewritten = _section_file(root, "solver-cache")
        assert rewritten != current
        assert _section_file(root, "solver-cache", "previous") == current
        assert _solver_files(root)[os.path.basename(current)] == files[
            os.path.basename(current)
        ]

    def test_a_flipped_reused_section_rolls_back_to_its_previous_copy(
        self, tmp_path, capsys
    ):
        root, store, service = self._saved(tmp_path)
        _learn_solver_entry(service, "rollback")
        store.save(service)  # generation 2: a distinct solver-cache copy
        store.mixy_put("memo-only", {"v": 1})
        store.save(service)  # generation 3 reuses generation 2's copy
        with open(os.path.join(root, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["sections"]["solver-cache"]["generation"] == 2
        assert meta["previous"]["solver-cache"]["generation"] == 1
        _flip_byte(_section_file(root, "solver-cache"))
        fresh = smt.reset_service()
        reopened = AnalysisStore.open(root)
        assert "solver-cache rolled back" in capsys.readouterr().err
        assert reopened.stats["sections_recovered"] == 1
        assert reopened.load_into_service(fresh) > 0
        assert reopened.mixy_get("memo-only") == {"v": 1}  # blocks: current

    def test_a_crash_before_the_manifest_flip_keeps_the_old_generation(
        self, tmp_path, monkeypatch
    ):
        root, store, service = self._saved(tmp_path)
        store.mixy_put("k2", {"v": 2})
        store.save(service)  # generation 2: blocks in both slots
        real_atomic_write = atomic_write

        @contextlib.contextmanager
        def crash_on_meta(path, binary=False):
            with real_atomic_write(path, binary) as handle:
                if os.path.basename(path) == "meta.json":
                    raise OSError("killed before the manifest flip")
                yield handle

        store.mixy_put("k3", {"v": 3})
        _learn_solver_entry(service, "crash")
        monkeypatch.setattr("repro.store.atomic_write", crash_on_meta)
        store.save(service)  # sections written, manifest not flipped
        monkeypatch.undo()
        assert store.generation == 2
        fresh = smt.reset_service()
        reopened = AnalysisStore.open(root)
        assert reopened.notes == []
        assert reopened.generation == 2
        assert reopened.mixy_get("k2") == {"v": 2}
        assert reopened.mixy_get("k3") is None
        assert reopened.load_into_service(fresh) > 0


# ---------------------------------------------------------------------------
# Nested blocks: block-scoped naming makes a mid-block skip transparent
# ---------------------------------------------------------------------------


class TestNestedBlocks:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_run_is_identical_and_replays_the_nested_block(
        self, tmp_path, jobs
    ):
        cold_warnings, _ = _analyze(source=NESTED, jobs=jobs)
        assert len(cold_warnings) == 1
        assert "sysutil_free" in cold_warnings[0]
        store = AnalysisStore.open(str(tmp_path / "store"))
        first_warnings, first_stats = _analyze(store, source=NESTED, jobs=jobs)
        store.save(smt.get_service())
        assert first_warnings == cold_warnings
        # clamp; session calls pick, which returns a pointer
        assert first_stats["mixy_records"] == 1

        warm = AnalysisStore.open(str(tmp_path / "store"))
        warm_warnings, warm_stats = _analyze(warm, source=NESTED, jobs=jobs)
        assert warm_warnings == cold_warnings
        assert warm_stats["mixy_hits"] > 0
        # Skipping clamp moved none of session's later terms: every
        # query the warm run asks, the cold run asked under the same
        # names, so the persisted solver cache answers all of them.
        assert smt.get_service().stats.full_solves == 0

    def test_nested_block_names_never_meet_the_enclosing_blocks(
        self, monkeypatch
    ):
        """Every solver query mentions only symbols minted in the block
        scope that issued it: a nested block's reused names never reach
        its caller's path condition, nor the caller's names its own."""
        _fresh_process_state()
        mixy = Mixy(NESTED, MixyConfig(jobs=1))
        executor = mixy.executor
        scopes: list[set] = [set()]  # names minted per open scope
        strays: list[set] = []
        real_scope, real_fresh = executor.block_scope, executor.fresh_symbol

        @contextlib.contextmanager
        def block_scope():
            scopes.append(set())
            try:
                with real_scope():
                    yield
            finally:
                scopes.pop()

        def fresh_symbol(hint="c"):
            term = real_fresh(hint)
            scopes[-1].add(term.name)
            return term

        service = smt.get_service()
        real_check = service.check_sat

        def check_sat(formulas, *args, **kwargs):
            names = {
                t.name for f in formulas for t in f.subterms() if t.is_var
            }
            if names - scopes[-1]:
                strays.append(names - scopes[-1])
            return real_check(formulas, *args, **kwargs)

        monkeypatch.setattr(executor, "block_scope", block_scope)
        monkeypatch.setattr(executor, "fresh_symbol", fresh_symbol)
        monkeypatch.setattr(service, "check_sat", check_sat)
        assert len(mixy.run()) == 1
        assert mixy.stats["symbolic_blocks_run"] > 2  # nesting happened
        assert strays == []


# ---------------------------------------------------------------------------
# MIX block memos end to end
# ---------------------------------------------------------------------------

#: A mini-ML program with one symbolic block inside a typed one.
MIX_SOURCE = "{t let y = {s if x < 5 then x + 1 else x - 1 s} in y + 1 t}"


class TestMixBlockMemo:
    @pytest.mark.parametrize("repro_jobs", [None, "2"])
    def test_warm_run_replays_the_block_and_reports_identically(
        self, repro_jobs, monkeypatch, tmp_path
    ):
        """REPRO_JOBS steers only MIXY; a MIX run memoizes its blocks
        whatever the environment says."""
        if repro_jobs is None:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_JOBS", repro_jobs)
        store = AnalysisStore.open(str(tmp_path / "store"))

        def run():
            _fresh_process_state()
            report = analyze_source(
                MIX_SOURCE, env=TypeEnv({"x": INT}), config=MixConfig(store=store)
            )
            return str(report), [str(d) for d in report.diagnostics]

        cold = run()
        assert store.stats["mix_records"] >= 1
        trace_path = tmp_path / "warm.jsonl"
        TRACER.enable(trace_path)
        try:
            warm = run()
        finally:
            TRACER.close()
        assert warm == cold
        assert cold[0] == "accepted: int"
        assert store.stats["mix_hits"] >= 1
        blocks = [
            e for e in read_trace(trace_path)
            if e["ev"] == "span" and e["kind"] == "mix.block"
        ]
        assert blocks and all(e.get("store_hit") is True for e in blocks)


#: A small function for the content-hash tests.
FN_SOURCE = """
int helper(int a) {
  if (a < 0) { return 0; }
  return a + 1;
}
"""

#: Same function, gratuitously reformatted: the hash must not move.
FN_REFORMATTED = """

int   helper( int   a )
{
    if (a < 0)
        { return 0; }

    return a    + 1;
}
"""


class TestBlockContentHash:
    """The store key is the SHA-1 of the *pretty-printed* function,
    so it is normalized by construction: whitespace and layout edits
    cannot retire memo entries; any edit to the function itself does."""

    def _hash(self, source, name="helper", context=None):
        from repro.mixy.c import parse_program

        return block_content_hash(parse_program(source), name, context)

    def test_reformatting_is_hash_stable(self):
        assert self._hash(FN_SOURCE) == self._hash(FN_REFORMATTED)

    def test_body_edits_change_the_hash(self):
        edited = FN_SOURCE.replace("a + 1", "a + 2")
        assert self._hash(FN_SOURCE) != self._hash(edited)

    def test_edits_elsewhere_do_not_change_the_hash(self):
        grown = FN_SOURCE + "\nint other(int b) { return b; }\n"
        assert self._hash(FN_SOURCE) == self._hash(grown)

    def test_context_widens_the_key_and_stays_normalized(self):
        plain = self._hash(FN_SOURCE)
        ctx = ("cone-text", "ctx-key")
        assert self._hash(FN_SOURCE, context=ctx) != plain
        # Same context, reformatted body: still the same widened key.
        assert self._hash(FN_SOURCE, context=ctx) == self._hash(
            FN_REFORMATTED, context=ctx
        )
        assert self._hash(FN_SOURCE, context=("other",)) != self._hash(
            FN_SOURCE, context=ctx
        )

    def test_store_backed_run_prints_each_function_once(
        self, tmp_path, monkeypatch
    ):
        # Store keys cover a block's callee cone, so one function's text
        # enters many keys; a run prints it once and reuses the text.
        import collections

        import repro.mixy.c.pretty as pretty

        printed = collections.Counter()
        inner = pretty.function_text

        def counting(fn):
            printed[fn.name] += 1
            return inner(fn)

        monkeypatch.setattr(pretty, "function_text", counting)
        store = AnalysisStore.open(str(tmp_path / "store"), quiet=True)
        _, stats = _analyze(store=store, source=parallel_vsftpd(depth=2))
        assert stats["mixy_misses"] > len(printed) > 1
        assert max(printed.values()) == 1, printed.most_common(3)

    def test_digest_is_pinned_across_releases(self):
        # A saved store is keyed on these digests, so a change here
        # would silently turn every existing store cold.
        assert self._hash(FN_SOURCE) == "ac08a88a77b6b682"
        assert self._hash(FN_SOURCE, context=("cone-text", "ctx-key")) == (
            "46674d73f59f3784"
        )


# ---------------------------------------------------------------------------
# Cross-run reuse on the staircase corpus (E19)
# ---------------------------------------------------------------------------


def _staircase_run(store, source):
    """(warning texts, names of the symbolic blocks executed, store
    stats) of one run."""
    executed = []
    execute = Mixy._execute_symbolic_block

    def spy(self, fn, context_slots):
        executed.append(fn.name)
        return execute(self, fn, context_slots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mixy, "_execute_symbolic_block", spy)
        _, warnings, stats = _run(store, source=source)
    return warnings, executed, stats


@pytest.fixture(scope="module")
def staircase_runs(tmp_path_factory):
    """Four serial runs over ``parallel_vsftpd(depth=3)``: no store; cold
    against an empty store (then saved); warm from the saved store; and
    warm after a one-function, semantically neutral edit."""
    root = str(tmp_path_factory.mktemp("staircase-store") / "store")
    source = parallel_vsftpd(depth=3)
    runs = {"nostore": _staircase_run(None, source)}
    store = AnalysisStore.open(root, quiet=True)
    runs["cold"] = _staircase_run(store, source)
    store.save(smt.get_service())
    runs["warm"] = _staircase_run(AnalysisStore.open(root, quiet=True), source)
    # `r = r + 1;` -> `r = r + 0 + 1;` in its first function
    # (crunch_access): content-hash keying must retire exactly that
    # function's dependency cone.
    edited = source.replace("r = r + 1;", "r = r + 0 + 1;", 1)
    assert edited != source
    runs["edited"] = _staircase_run(AnalysisStore.open(root, quiet=True), edited)
    return runs


class TestStaircaseReuse:
    def test_store_is_an_accelerator_never_an_answer(self, staircase_runs):
        texts = {
            mode: tuple(staircase_runs[mode][0])
            for mode in ("nostore", "cold", "warm")
        }
        assert len(set(texts.values())) == 1, texts
        assert len(texts["nostore"]) == 1  # the staircase's single finding

    def test_cold_run_records_and_warm_run_replays(self, staircase_runs):
        _, cold_blocks, cold = staircase_runs["cold"]
        _, warm_blocks, warm = staircase_runs["warm"]
        assert cold["mixy_records"] == len(cold_blocks) > 0
        assert warm["solver_entries_loaded"] > 0
        assert warm["mixy_hits"] >= cold["mixy_records"]
        # Every block replays, the typed-calling one (crunch_filter,
        # which calls sysutil_free) included.
        assert "crunch_filter" in cold_blocks
        assert warm_blocks == []

    def test_one_edit_reanalyzes_only_its_cone(self, staircase_runs):
        cold_warnings, cold_blocks, _ = staircase_runs["cold"]
        edited_warnings, edited_blocks, edited = staircase_runs["edited"]
        # The edit is semantically neutral: identical warnings...
        assert edited_warnings == cold_warnings
        # ...most blocks still replay from their memos...
        assert edited["mixy_hits"] > edited["mixy_misses"]
        # ...and only the edited function's blocks execute.
        assert set(edited_blocks) == {"crunch_access"}
        assert len(edited_blocks) < len(cold_blocks)


# ---------------------------------------------------------------------------
# A replay reproduces what the block would do now
# ---------------------------------------------------------------------------

#: ``alpha`` and ``beta`` each dereference ``g_p`` through ``rd``: the
#: warning is ``alpha``'s first, a duplicate when ``beta`` raises it.
DUPLICATE = """
int *g_p;
int rd(int *p) { return *p; }
int alpha(int k) MIX(symbolic) { int r = 0; if (k > 0) { r = rd(g_p); } return r; }
int beta(int k) MIX(symbolic) { int r = 0; if (k > 1) { r = rd(g_p); } return r; }
int main(void) { g_p = NULL; alpha(1); beta(2); return 0; }
"""

#: ``reader`` dereferences a struct field whose qualifier only the typed
#: ``setup`` constrains.
FIELD = """
struct box { int *val; int n; };
struct box *g_box;
int reader(int k) MIX(symbolic) { int r = 0; if (k > 0) { r = *(g_box->val); } return r; }
void setup(void) MIX(typed) { g_box->n = 1; }
int main(void) {
  int v = 3;
  struct box *b = malloc(sizeof(struct box));
  b->val = &v; g_box = b; setup(); reader(1); return 0;
}
"""


#: ``outer``'s typed call to ``mid`` analyzes the nested block
#: ``inner``, whose warning a cold run prints before ``outer``'s own.
ORDER = """
int *g_a;
int *g_b;
int inner(int k) MIX(symbolic) { int r = 0; if (k > 1) { r = *g_b; } return r; }
void mid(int k) MIX(typed) { int t; t = inner(k); }
int outer(int k) MIX(symbolic) { int r = 0; mid(k); if (k > 2) { r = *g_a; } return r; }
int main(void) { g_a = NULL; g_b = NULL; outer(3); return 0; }
"""

#: ``alpha`` reaches ``inner`` through ``mid``, whose parameter only
#: ``main``'s ``mid(NULL)`` makes maybe-null: ``inner`` warns or not
#: by code outside ``alpha``'s cone.
NESTED_CONTEXT = """
int *g_ok;
int inner(int *p) MIX(symbolic) { return *p; }
void mid(int *p) MIX(typed) { int t; t = inner(p); }
int alpha(int k) MIX(symbolic) { mid(g_ok); return k; }
int main(void) { int x = 1; g_ok = &x; mid(NULL); alpha(1); return 0; }
"""

#: ``drive``'s materialization makes the field slot of ``zeta`` (global
#: ``g_a``) before that of ``alpha`` (``g_b``), and the warning's path
#: prints the first one's ordinal.  Sorted by struct name, the store
#: key meets them the other way round.
TWO_STRUCTS = """
void sink(int *nonnull p) MIX(typed);
struct zeta { int *z; int n; };
struct alpha { int *a; int n; };
struct zeta *g_a;
struct alpha *g_b;
void use(void) MIX(typed) { sink(g_a->z); }
int drive(int k) MIX(symbolic) { use(); return k; }
int setter(int k) MIX(symbolic) { if (k > 1) { g_a->z = NULL; } return k; }
int main(void) {
  struct zeta *a = malloc(sizeof(struct zeta));
  struct alpha *b = malloc(sizeof(struct alpha));
  g_a = a; g_b = b; drive(1); setter(2); return 0;
}
"""


class TestReplayMatchesExecution:
    def _edited_runs(self, tmp_path, *versions):
        """The cold warnings of the last of ``versions``, and those of a
        run of it on a store that recorded the others in order."""
        store = AnalysisStore.open(str(tmp_path / "store"))
        for source in versions[:-1]:
            _analyze(store, source=source)
        cold, _ = _analyze(source=versions[-1])
        warm, stats = _analyze(store, source=versions[-1])
        return cold, warm, stats

    def test_a_duplicate_warning_survives_its_first_raisers_edit(self, tmp_path):
        # beta's memo must hold rd's warning though alpha raised it
        # first: with alpha edited, only beta's replay raises it.
        edited = DUPLICATE.replace(
            "if (k > 0) { r = rd(g_p); }", "if (k > 0) { r = 1; }"
        )
        cold, warm, stats = self._edited_runs(tmp_path, DUPLICATE, edited)
        assert cold == ["[symbolic] possible NULL dereference in rd: *p may be NULL"]
        assert stats["mixy_hits"] == 1  # beta replayed
        assert warm == cold

    def test_a_field_solution_change_retires_the_memo(self, tmp_path):
        # Nulling the field in typed code makes reader's materialized
        # field maybe-null: the memo recorded with it nonnull must miss.
        edited = FIELD.replace("g_box->n = 1;", "g_box->n = 1; g_box->val = NULL;")
        cold, warm, stats = self._edited_runs(tmp_path, FIELD, edited)
        assert len(cold) == 1 and "NULL dereference in reader" in cold[0]
        assert stats["mixy_hits"] == 0
        assert warm == cold

    def test_the_store_key_reads_field_solutions_without_making_slots(
        self, tmp_path
    ):
        cold, _ = _analyze(source=TWO_STRUCTS)
        assert len(cold) == 1 and "'zeta.z#" in cold[0]
        store = AnalysisStore.open(str(tmp_path / "store"))
        recorded, stats = _analyze(store, source=TWO_STRUCTS)
        assert stats["mixy_records"] == 2
        assert recorded == cold

    def test_a_typed_call_replays_before_the_warnings_it_preceded(
        self, tmp_path
    ):
        # outer's memo puts its call to mid before its own warning, so
        # inner's warning, raised under that call, keeps its place.
        cold, warm, stats = self._edited_runs(tmp_path, ORDER, ORDER)
        assert [line.split(":")[0] for line in cold] == [
            "[symbolic] possible NULL dereference in inner",
            "[symbolic] possible NULL dereference in outer",
        ]
        assert stats["mixy_hits"] == 2  # the second run replays both
        assert warm == cold

    def test_a_nested_replay_stays_out_of_its_callers_memo(self, tmp_path):
        # Editing alpha makes it execute while inner replays from the
        # store under its typed call; inner's warning belongs to inner's
        # memo, not alpha's.  Once main no longer passes NULL to mid,
        # inner does not warn, and alpha's memo (same key: main is
        # outside its cone) must not warn for it.
        edited = NESTED_CONTEXT.replace("return k;", "return k + 0;")
        fixed = edited.replace("mid(NULL);", "mid(g_ok);")
        cold, warm, _ = self._edited_runs(
            tmp_path, NESTED_CONTEXT, edited, fixed
        )
        assert cold == []
        assert warm == cold
