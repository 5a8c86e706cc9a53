"""The cross-run analysis store (``.repro-store/``).

The tower's caches already make re-analysis cheap *within* one process:
the :class:`~repro.smt.service.SolverService` answers repeated queries
from its tiered cache, and the MIXY driver's §4.3 block cache skips
whole blocks whose calling context is unchanged.  This module makes
that reuse survive the process: a small on-disk store that a later run
— or a long-lived ``repro serve`` daemon across restarts — loads to
start warm.

Layout of one store directory (format version 7)::

    .repro-store/
      meta.json            # manifest: schema, generation, per-section records
      solver-cache.0.pkl   # section files, two slots per section
      solver-cache.1.pkl
      blocks.0.pkl
      blocks.1.pkl

The **solver cache** section persists every exact-tier entry (verdict
plus sat-set / unsat-core membership) via the wire codec
(:func:`repro.smt.terms.to_wire_many`): terms hash by identity, so they
cross runs the same way they cross processes in the parallel engine.
Every entry is a definite verdict of its formula — UNKNOWN is never
cached — so importing a store can accelerate but never change an
answer.

The **block memo** sections record, per analyzed block, just enough to
replay the block's *observable effects* without re-executing it, or
the result type, stat deltas and fresh names consumed (MIX, whose one
name supply runs through the whole program, so a skip fast-forwards
it).  Entries are held, shipped between daemon processes and persisted
as their pickled bytes: ``mixy_put``/``mix_put`` encode once and
``mixy_get``/``mix_get`` decode a fresh copy per hit, so a long-lived
store holds one flat ``bytes`` object per entry instead of a nest of
tuples, and a save writes those bytes as they are.  A MIXY entry holds:

- ``warnings``: every warning the block raised, including one another
  block raised first (a replay re-raises them through the
  deduplicating path, so a run without that other block still prints
  it);
- ``calls``: every typed call the block made, as ``(callee, argument
  nullness, position among the warnings)``; a replay re-applies each
  call's qualifier effects (typed-region constraints, the callee's
  symbolic frontier, null arguments) in the cold order;
- ``watched`` and ``null_indices``: its watched list as qualifier-slot
  references, and which of them concluded null.

A block that calls a typed or extern function returning a data pointer
is never recorded: the havocked return value reads the callee's
return-qualifier solution, which the key does not cover.  MIXY names
symbols per block
(:meth:`repro.mixy.symexec.CSymExecutor.block_scope`), so a skipped
MIXY block shifts no other block's names and needs no fast-forward.
Keys are content hashes over the block's text, its
transitive callee cone, its typed calling context and the struct-field
solutions its materialization reads (:func:`block_content_hash` widened
with a context), so editing one function invalidates exactly that
function's dependency cone and nothing else.

**Integrity: per-section checksums, two copies per section.**  Each
section alternates between its own two file *slots*: a save writes each
changed section to the slot its current record does not use and then
atomically replaces ``meta.json`` with a manifest recording, per
section, the current record and the previous distinct copy, each with
its CRC32/size (:func:`repro.fsio.checksummed_write`) and the generation
that wrote it.  A ``kill -9`` at any instruction therefore leaves every
section with at least one consistent copy: the manifest flip is atomic,
and the record a manifest calls current is never the one being
overwritten.  On load each section is verified against its CRC; a
damaged current section **rolls back** to its previous copy (counted in
``sections_recovered``), and only when both copies fail does that
section start cold — with a stderr note either way.  A save writes
nothing when neither a block memo nor the solver cache changed since the
last load or save (:meth:`AnalysisStore.unsaved`), and an unchanged
section keeps the record this store object last wrote for it: a save
that learned only block memos does not re-export the solver cache.  A
store that opened damaged writes a healthy copy of every section at its
next save.

Durability contract: the store is an accelerator, never a correctness
input.  All writes go through :func:`repro.fsio.atomic_write`; a
missing, torn, corrupt, or version-mismatched store degrades to a cold
start with a note on stderr, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from typing import Optional

from repro.fsio import atomic_write, checksummed_write, read_checksummed

#: 7: memo entries are held and persisted as their pickled bytes.
STORE_VERSION = 7
STORE_SCHEMA = "repro-store"

#: The persisted sections, in save order.
SECTIONS = ("solver-cache", "blocks")

#: Exceptions that mean "this store file is unusable": anything pickle
#: or a shape mismatch can throw.  Broad on purpose — a bad store must
#: degrade to cold, never take the analysis down.
_LOAD_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    IndexError,
    ImportError,
    pickle.UnpicklingError,
    json.JSONDecodeError,
)


def block_content_hash(
    program, name: str, context: object = None, text: Optional[str] = None
) -> str:
    """A stable identity for one function's *content*: the SHA-1 of its
    pretty-printed text.  The pretty-printer renders from the parsed
    AST, so the hash is normalized by construction — whitespace and
    comment edits to the source cannot retire store entries (pinned by
    ``tests/test_store.py``).  It survives renames of other functions,
    global reorderings, and annotation edits elsewhere; any edit to the
    function itself changes it.

    ``context``, when given, widens the key with a stable ``repr`` of
    the block's typed calling context — the block memo keys results on
    (content, context) so that one function body analyzed under two
    qualifier states gets two entries.  ``text``, when given, is the
    function's already pretty-printed text (callers that key many blocks
    print each function once)."""
    if text is None:
        from repro.mixy.c.pretty import function_text  # local: layering

        text = function_text(program.functions[name])
    digest = hashlib.sha1(text.encode("utf-8"))
    if context is not None:
        digest.update(b"\x00")
        digest.update(repr(context).encode("utf-8"))
    return digest.hexdigest()[:16]


class AnalysisStore:
    """One open store directory: loaded sections plus hit/record stats."""

    def __init__(self, root: str) -> None:
        self.root = root
        #: the persisted solver cache, if one loaded (a CacheDelta)
        self.solver_cache = None
        #: content-hash -> pickled memo entry (see mixy_put/mix_put);
        #: insertion-ordered, so "recorded since" is a tail of each
        self.mixy_blocks: dict[str, bytes] = {}
        self.mix_blocks: dict[str, bytes] = {}
        #: why (part of) the store was ignored, for stderr surfacing
        self.notes: list[str] = []
        #: a block memo changed since the last save, or the store opened
        #: without a healthy generation; save() skips a clean store
        #: whose solver cache is also unchanged
        self.dirty = False
        #: ``(service, service.cache_version())`` as of the last load or
        #: save: the solver-cache contents the store already holds.
        self._cache_seen: Optional[tuple] = None
        #: last persisted generation (0 = never saved)
        self.generation = 0
        #: the manifest save() replaces (its records become "previous")
        self._current_manifest: Optional[dict] = None
        #: section -> (record, stamp) of the last write by this object;
        #: save() keeps a current record only if it is one of these
        self._written: dict[str, tuple] = {}
        self.stats = {
            "solver_entries_loaded": 0,
            "mixy_hits": 0,
            "mixy_misses": 0,
            "mixy_records": 0,
            "mix_hits": 0,
            "mix_misses": 0,
            "mix_records": 0,
            #: sections whose current generation failed its checksum but
            #: whose previous generation verified (rollback happened)
            "sections_recovered": 0,
            #: sections unusable in every recorded generation
            "sections_lost": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, root: str, quiet: bool = False) -> "AnalysisStore":
        """Open (or initialize) the store at ``root``.  Never raises on
        bad contents: each unusable section is skipped with a note."""
        store = cls(root)
        meta_path = os.path.join(root, "meta.json")
        if os.path.exists(meta_path):
            manifest = store._load_manifest(meta_path)
            if manifest is not None:
                store.generation = manifest.get("generation", 0)
                store._current_manifest = manifest
                store._load_sections(manifest)
        elif os.path.exists(root) and not os.path.isdir(root):
            store.notes.append(f"store {root}: not a directory; starting cold")
        # No generation on disk yet, or a damaged one (a rolled-back,
        # lost or unreadable section): the next save writes a healthy
        # generation even if nothing new is learned.
        store.dirty = store._current_manifest is None or bool(store.notes)
        store._surface(quiet)
        return store

    def _load_manifest(self, meta_path: str) -> Optional[dict]:
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            if (
                not isinstance(meta, dict)
                or meta.get("schema") != STORE_SCHEMA
                or meta.get("version") != STORE_VERSION
                or not isinstance(meta.get("generation"), int)
                or not isinstance(meta.get("sections"), dict)
            ):
                self.notes.append(
                    f"store {self.root}: unsupported meta {meta!r}; "
                    "starting cold"
                )
                return None
            return meta
        except _LOAD_ERRORS as error:
            self.notes.append(
                f"store {self.root}: unreadable meta.json ({error}); "
                "starting cold"
            )
            return None

    def _section_bytes(self, manifest: dict, name: str) -> Optional[bytes]:
        """Read + verify one section, rolling back to its previous copy
        on checksum failure.  Returns the payload bytes or None (cold),
        recording notes and integrity counters."""
        found = False
        for label in ("sections", "previous"):
            records = manifest.get(label)
            record = records.get(name) if isinstance(records, dict) else None
            if not isinstance(record, dict) or "file" not in record:
                continue
            found = True
            data = read_checksummed(
                os.path.join(self.root, str(record["file"])), record
            )
            if data is None:
                self.notes.append(
                    f"store {self.root}: {name} generation "
                    f"{record.get('generation')} failed its checksum"
                )
                continue
            if label == "previous":
                self.stats["sections_recovered"] += 1
                self.notes.append(
                    f"store {self.root}: {name} rolled back to last-known-"
                    f"good generation {record.get('generation')}"
                )
            return data
        if found:
            self.stats["sections_lost"] += 1
            self.notes.append(
                f"store {self.root}: {name} corrupt in every recorded "
                "generation; section starts cold"
            )
        return None

    def _load_sections(self, manifest: dict) -> None:
        data = self._section_bytes(manifest, "solver-cache")
        if data is not None:
            try:
                payload = pickle.loads(data)
                if payload["version"] != STORE_VERSION:
                    raise ValueError(f"version {payload['version']}")
                delta = payload["delta"]
                len(delta.entries)  # shape probe: unusable payloads fail here
                self.solver_cache = delta
            except _LOAD_ERRORS as error:
                self.notes.append(
                    f"store {self.root}: ignoring corrupt solver-cache "
                    f"({type(error).__name__}: {error}); solver cache "
                    "starts cold"
                )
        data = self._section_bytes(manifest, "blocks")
        if data is not None:
            try:
                payload = pickle.loads(data)
                if payload["version"] != STORE_VERSION:
                    raise ValueError(f"version {payload['version']}")
                mixy, mix = dict(payload["mixy"]), dict(payload["mix"])
                for blob in (*mixy.values(), *mix.values()):
                    if not isinstance(blob, bytes):
                        raise TypeError(
                            f"memo entry of type {type(blob).__name__}"
                        )
                self.mixy_blocks, self.mix_blocks = mixy, mix
            except _LOAD_ERRORS as error:
                self.notes.append(
                    f"store {self.root}: ignoring corrupt blocks section "
                    f"({type(error).__name__}: {error}); block memos "
                    "start cold"
                )

    def _surface(self, quiet: bool) -> None:
        if quiet:
            return
        for note in self.notes:
            print(f"note: {note}", file=sys.stderr)

    def load_into_service(self, service) -> int:
        """Import the persisted solver cache into ``service``; returns
        the number of entries imported (0 on a cold store)."""
        imported = 0
        if self.solver_cache is not None:
            try:
                imported = service.import_cache(self.solver_cache)
            except _LOAD_ERRORS as error:
                self.notes.append(
                    f"store {self.root}: solver cache failed to import "
                    f"({type(error).__name__}: {error}); continuing cold"
                )
                print(f"note: {self.notes[-1]}", file=sys.stderr)
                return 0
        self.stats["solver_entries_loaded"] += imported
        self._cache_seen = (service, service.cache_version())
        return imported

    def unsaved(self, service=None) -> bool:
        """Whether :meth:`save` has anything to write: a block memo
        changed (``dirty``), or ``service``'s cache may differ from what
        this store last loaded or saved (always, for a service it never
        saw)."""
        if self.dirty:
            return True
        if service is None:
            return False
        seen = self._cache_seen
        return (
            seen is None
            or seen[0] is not service
            or seen[1] != service.cache_version()
        )

    def save(self, service=None, force: bool = False) -> None:
        """Persist the store as a new generation: each changed section
        lands in the file slot its current record does not use
        (checksummed, atomically written), then the manifest flips to
        the new records, each section's replaced record kept as its
        last-known-good fallback.  An unchanged section keeps its record
        — if this store object wrote it — so a save that learned only
        block memos re-exports no solver cache.  Write failures are
        swallowed with a note — persisting is an optimization, never
        worth failing an analysis over.  The store stays unsaved, so the
        next save retries; a failure that repeats an earlier one adds no
        second note.

        A save that would rewrite what the store already holds is
        skipped: it writes only when ``force`` is set or
        :meth:`unsaved` says so — so an all-hits request costs no I/O."""
        if not (force or self.unsaved(service)):
            return
        generation = self.generation + 1
        version = service.cache_version() if service is not None else None
        # What each section would be written from now: a record this
        # object wrote from the same stamp holds exactly that.
        stamps = {"solver-cache": (service, version), "blocks": None}
        if self.dirty:
            self._written.pop("blocks", None)
        old = self._current_manifest or {}
        old_sections = old.get("sections") or {}
        old_previous = old.get("previous") or {}
        sections: dict[str, dict] = {}
        previous: dict[str, dict] = {}
        written: dict[str, tuple] = {}
        try:
            os.makedirs(self.root, exist_ok=True)
            for name in SECTIONS:
                record = old_sections.get(name)
                if not isinstance(record, dict):  # absent, or a bad meta
                    record = None
                elif self._written.get(name) == (record, stamps[name]):
                    sections[name] = record
                    if name in old_previous:
                        previous[name] = old_previous[name]
                    continue
                payload = self._payload(name, service)
                if payload is None:
                    continue
                file = f"{name}.0.pkl"
                if record is not None and record.get("file") == file:
                    file = f"{name}.1.pkl"
                sections[name] = {
                    "file": file,
                    "generation": generation,
                    **checksummed_write(os.path.join(self.root, file), payload),
                }
                if record is not None:
                    previous[name] = record
                written[name] = (sections[name], stamps[name])
            manifest = {
                "schema": STORE_SCHEMA,
                "version": STORE_VERSION,
                "generation": generation,
                "sections": sections,
                "previous": previous,
            }
            with atomic_write(os.path.join(self.root, "meta.json")) as fh:
                json.dump(manifest, fh, sort_keys=True)
                fh.write("\n")
            self.generation = generation
            self._current_manifest = manifest
            self._written.update(written)
            self.dirty = False
            if service is not None:
                self._cache_seen = (service, version)
        except OSError as error:
            note = f"store {self.root}: could not persist ({error})"
            if note not in self.notes:
                self.notes.append(note)
                print(f"note: {note}", file=sys.stderr)

    def _payload(self, name: str, service) -> Optional[bytes]:
        """One section's pickled contents (None: no solver cache)."""
        if name == "blocks":
            body = {"mixy": self.mixy_blocks, "mix": self.mix_blocks}
        else:
            delta = self.solver_cache
            if service is not None:
                delta = service.export_cache()
            if delta is None:
                return None
            body = {"delta": delta}
        return pickle.dumps(
            {"version": STORE_VERSION, **body}, protocol=pickle.HIGHEST_PROTOCOL
        )

    def merge_worker(
        self,
        mixy_new: dict,
        mix_new: dict,
        stats_delta: Optional[dict] = None,
    ) -> None:
        """Fold one request worker's new (encoded) block memos and stat
        deltas into this (parent-side) store.  Memos the parent already
        holds leave it clean: a worker re-deriving them changes nothing
        a save would write."""
        if _changes(self.mixy_blocks, mixy_new) or _changes(
            self.mix_blocks, mix_new
        ):
            self.dirty = True
        self.mixy_blocks.update(mixy_new)
        self.mix_blocks.update(mix_new)
        for key, delta_value in (stats_delta or {}).items():
            self.stats[key] = self.stats.get(key, 0) + delta_value

    # -- block memos ---------------------------------------------------------

    def mixy_get(self, key: str) -> Optional[dict]:
        blob = self.mixy_blocks.get(key)
        self.stats["mixy_hits" if blob is not None else "mixy_misses"] += 1
        return None if blob is None else pickle.loads(blob)

    def mixy_put(self, key: str, entry: dict) -> None:
        self.mixy_blocks[key] = _encode(entry)
        self.stats["mixy_records"] += 1
        self.dirty = True

    def mix_get(self, key: str) -> Optional[dict]:
        blob = self.mix_blocks.get(key)
        self.stats["mix_hits" if blob is not None else "mix_misses"] += 1
        return None if blob is None else pickle.loads(blob)

    def mix_put(self, key: str, entry: dict) -> None:
        self.mix_blocks[key] = _encode(entry)
        self.stats["mix_records"] += 1
        self.dirty = True


def _encode(entry: dict) -> bytes:
    return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)


def _changes(memos: dict, new: dict) -> bool:
    """Whether folding ``new`` into ``memos`` changes any entry."""
    return any(memos.get(key) != blob for key, blob in new.items())
