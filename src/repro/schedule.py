"""Trace-driven query scheduling: waves, portfolios, and learned hints.

PR 4's parallel engine fans a fixpoint round's frontier out one block
per worker task, first-come-first-served.  The trace layer (PR 5) shows
where that is wasteful: related blocks re-derive each other's cache
entries in separate workers, hot blocks get no more solver muscle than
trivial ones, and every round re-speculates blocks whose deltas stopped
mattering rounds ago.  This module turns that trace evidence into
dispatch decisions; :class:`repro.parallel.ParallelEngine` executes them.

Three cooperating mechanisms (``--schedule {fifo,waves,portfolio}``):

**Wave batching** (``waves`` and up).  The independent tasks of one
round — MIXY frontier blocks, or the MIX checker's outcome queries —
are clustered into at most ``--jobs`` *waves* by feature similarity
(referenced globals + callees for blocks; shared wire-encoded conjunct
roots for query groups).  A whole wave is dispatched as one worker
task, so a worker warms its forked cache snapshot once and amortizes it
across every related task in the wave, instead of each worker
rediscovering the shared conjuncts alone.  Wave membership and order
are a pure function of the inputs — the plan is deterministic.

**Portfolio racing** (``portfolio``).  Blocks marked hot (top solver
time in a prior run's hints, or every first-seen block when no hints
exist yet) are raced: 2-3 sibling workers run the same block under
different solver strategies — ``simplify`` (rewrite conjuncts first),
``intfirst`` (try the integer engine directly, skipping the CDCL
encoding for pure linear conjunctions), ``flip`` (inverted branching
phase in the SAT core) — and the first finisher's delta is kept.
Losers are cancelled cooperatively (see ``SatCancelled``); the winning
strategy is recorded and, via the hint file, dispatched directly on the
next run instead of re-raced.  Strategies only ever run in speculative
workers: the authoritative serial pass always uses the default solver,
so ``--jobs N`` output remains byte-identical to ``--jobs 1`` by
construction no matter who wins a race.

**Learned hints** (``.repro-sched.json``, schema v1).  ``repro
trace-report --emit-hints FILE`` distills a trace digest into a compact
per-block hint file keyed on *block content hash* — stable across runs
and across reorderings of the surrounding program, stale entries simply
never match.  Hints carry: hotness rank (wave priority), cache-tier
probe order (swap the subset/superset scans when the superset tier
historically answered more often — the two tiers are mutually
exclusive, so the swap is verdict- and cache-state-identical), the
winning portfolio strategy, and a ``cold_only`` flag for blocks whose
later-round speculation produced negligible new cache entries (the
scheduler then speculates them in their first round only).  The file is
the first brick of the roadmap's persistent cross-run store.

Hint-file schema (version 1)::

    {"version": 1,
     "blocks": {"<chash>": {"name": str, "rank": int,
                            "solver_seconds": float, "queries": int,
                            "tier_order": ["superset", "subset"] | null,
                            "strategy": "intfirst" | ... | null,
                            "cold_only": bool}},
     "hot": ["<chash>", ...]}

Unknown versions, unparseable JSON, or entries whose hash matches no
current block are ignored gracefully: hints are an accelerator, never a
correctness input.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

#: Dispatch modes, in increasing order of machinery.
SCHEDULE_MODES = ("fifo", "waves", "portfolio")

#: Solver strategy variants a portfolio race runs (workers only; the
#: authoritative pass always solves with the default strategy).
RACE_STRATEGIES = ("simplify", "intfirst", "flip")

#: All strategies a hint file may name (default = no variant).
STRATEGIES = ("default",) + RACE_STRATEGIES

#: Strategies whose solves are strictly cheaper than the default CDCL
#: path (not merely differently ordered): only these justify re-
#: speculating a block on hardware where workers cannot overlap the
#: authoritative pass ("strategy arbitrage" — see Scheduler._should_skip).
CHEAP_STRATEGIES = ("intfirst",)

#: Default hint-file name (cwd-relative), per the issue spec.
DEFAULT_HINTS_FILE = ".repro-sched.json"

HINTS_VERSION = 1

#: How many top-solver-time blocks a hint file marks hot.
HOT_TOP_N = 8

#: Live convergence feedback: a block whose previous speculative delta
#: imported at most this many new cache entries is not re-speculated.
CONVERGED_IMPORTS = 4

#: Minimum Jaccard similarity for a task to join an existing wave
#: rather than opening a new one (while wave slots remain).
WAVE_SIMILARITY = 0.25

#: ``cold_only``: later-round speculation below this fraction of the
#: block's first-round speculative solver time is considered noise.
COLD_ONLY_FRACTION = 0.25


def block_content_hash(program, name: str, context: object = None) -> str:
    """A stable identity for one function's *content*: the SHA-1 of its
    pretty-printed text.  The pretty-printer renders from the parsed
    AST, so the hash is normalized by construction — whitespace and
    comment edits to the source cannot retire hints or store entries
    (pinned by ``tests/test_schedule.py``).  It survives renames of
    other functions, global reorderings, and annotation edits
    elsewhere; any edit to the function itself retires its hints (they
    simply stop matching).

    ``context``, when given, widens the key with a stable ``repr`` of
    the block's typed calling context — the cross-run block store keys
    results on (content, context) so that one function body analyzed
    under two qualifier states gets two entries (see repro.store)."""
    from repro.mixy.c.pretty import function_text  # local: layering

    fn = program.functions[name]
    digest = hashlib.sha1(function_text(fn).encode("utf-8"))
    if context is not None:
        digest.update(b"\x00")
        digest.update(repr(context).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class BlockHint:
    """Per-block guidance distilled from a prior run's trace digest."""

    name: str = ""
    rank: int = 0
    solver_seconds: float = 0.0
    queries: int = 0
    #: Cache-tier probe order for the subset/superset scans, or None
    #: for the built-in default.  Only these two tiers are reorderable:
    #: they are mutually exclusive, so swapping them is observationally
    #: identical — cheaper when history says the second one answers.
    tier_order: Optional[tuple[str, str]] = None
    #: The portfolio strategy that won this block's race, if any.
    strategy: Optional[str] = None
    #: Later-round speculation was negligible: speculate cold only.
    cold_only: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "solver_seconds": round(self.solver_seconds, 6),
            "queries": self.queries,
            "tier_order": list(self.tier_order) if self.tier_order else None,
            "strategy": self.strategy,
            "cold_only": self.cold_only,
        }


class ScheduleHints:
    """The parsed hint file: per-chash block hints plus the hot set.

    Robustness contract: :meth:`load` never raises on bad input — a
    missing file, unparseable JSON, a foreign schema version, or
    mistyped entries all degrade to (partially) empty hints, with the
    reason recorded in :attr:`note` for ``-v`` style surfacing."""

    def __init__(
        self,
        blocks: Optional[Mapping[str, BlockHint]] = None,
        hot: Sequence[str] = (),
    ) -> None:
        self.blocks: dict[str, BlockHint] = dict(blocks or {})
        self.hot: tuple[str, ...] = tuple(hot)
        self.note: Optional[str] = None

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, chash: Optional[str]) -> Optional[BlockHint]:
        if not chash:
            return None
        return self.blocks.get(chash)

    def is_hot(self, chash: Optional[str]) -> bool:
        return bool(chash) and chash in self.hot

    def as_dict(self) -> dict:
        return {
            "version": HINTS_VERSION,
            "blocks": {ch: hint.as_dict() for ch, hint in sorted(self.blocks.items())},
            "hot": list(self.hot),
        }

    def save(self, path: str) -> None:
        from repro.fsio import atomic_write  # local: layering

        # Atomic: a half-written hint file would be "corrupt" to the
        # next run — degraded gracefully, but the hints would be lost.
        with atomic_write(path) as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ScheduleHints":
        hints = cls()
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            hints.note = f"hint file {path} not found; running unhinted"
            return hints
        except (OSError, json.JSONDecodeError) as error:
            hints.note = f"ignoring corrupt hint file {path}: {error}"
            return hints
        if not isinstance(raw, dict) or raw.get("version") != HINTS_VERSION:
            hints.note = (
                f"ignoring hint file {path}: unsupported version "
                f"{raw.get('version') if isinstance(raw, dict) else raw!r}"
            )
            return hints
        blocks = raw.get("blocks")
        if isinstance(blocks, dict):
            for chash, entry in blocks.items():
                hint = cls._parse_block(entry)
                if hint is not None:
                    hints.blocks[str(chash)] = hint
        hot = raw.get("hot")
        if isinstance(hot, list):
            hints.hot = tuple(str(ch) for ch in hot)
        return hints

    @staticmethod
    def _parse_block(entry: object) -> Optional[BlockHint]:
        if not isinstance(entry, dict):
            return None
        tier_order = entry.get("tier_order")
        if tier_order is not None:
            if (
                not isinstance(tier_order, list)
                or sorted(tier_order) != ["subset", "superset"]
            ):
                tier_order = None  # mistyped: fall back to default order
            else:
                tier_order = tuple(tier_order)
        strategy = entry.get("strategy")
        if strategy is not None and strategy not in STRATEGIES:
            strategy = None  # unknown strategy name: ignore, don't fail
        try:
            return BlockHint(
                name=str(entry.get("name", "")),
                rank=int(entry.get("rank", 0)),
                solver_seconds=float(entry.get("solver_seconds", 0.0)),
                queries=int(entry.get("queries", 0)),
                tier_order=tier_order,
                strategy=strategy,
                cold_only=bool(entry.get("cold_only", False)),
            )
        except (TypeError, ValueError):
            return None


# ---------------------------------------------------------------------------
# Round plans
# ---------------------------------------------------------------------------


@dataclass
class RacePlan:
    """One portfolio race: the same block under each listed strategy."""

    name: str
    chash: str
    strategies: tuple[str, ...] = RACE_STRATEGIES


@dataclass
class RoundPlan:
    """What the parallel engine should dispatch for one fixpoint round."""

    #: Each wave is dispatched as one worker task, in list order (the
    #: merge happens in the same order, keeping the cache deterministic).
    waves: list[tuple[str, ...]] = field(default_factory=list)
    #: Per-wave solver strategy.  Waves are strategy-homogeneous: blocks
    #: are grouped by learned strategy before clustering, so no block is
    #: silently demoted to "default" by its wave-mates.
    wave_strategies: list[str] = field(default_factory=list)
    races: list[RacePlan] = field(default_factory=list)
    #: Blocks not speculated this round (converged / cold_only).
    skipped: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.waves and not self.races


def _jaccard(a: frozenset, b: set) -> float:
    if not a or not b:
        return 0.0
    inter = len(a & b)
    if not inter:
        return 0.0
    return inter / (len(a) + len(b) - inter)


class Scheduler:
    """Turns per-round task lists into :class:`RoundPlan` dispatches.

    One scheduler lives per analysis run (created next to the
    :class:`~repro.parallel.ParallelEngine` when ``--jobs N`` with a
    non-fifo ``--schedule``).  It is stateful across rounds: it tracks
    which blocks have been speculated, how much their last delta
    actually imported (live convergence feedback), which races have run
    and who won."""

    def __init__(
        self,
        mode: str = "fifo",
        jobs: int = 1,
        hints: Optional[ScheduleHints] = None,
        cores: Optional[int] = None,
    ) -> None:
        if mode not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule mode {mode!r}; expected one of {SCHEDULE_MODES}"
            )
        self.mode = mode
        self.jobs = max(1, jobs)
        self.hints = hints if hints is not None else ScheduleHints()
        #: Hardware parallelism actually available.  Speculation pays its
        #: way three different ways: *overlap* (workers solve while the
        #: serial pass runs — needs idle cores), *cache structure*
        #: (block-deterministic cold warming — works even time-sliced on
        #: one core), and *strategy arbitrage* (a learned cheap strategy
        #: makes worker solves cheaper than the authoritative solves
        #: they pre-seed).  Later-round re-speculation has no cold-cache
        #: benefit, so on a host that cannot overlap (< 2 cores) it runs
        #: only for blocks with a learned non-default strategy.  The
        #: pool is also sized to this (see ParallelEngine).
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        #: Waves a round may open: one per worker that can actually run
        #: concurrently.  More waves than that is pure per-task overhead
        #: (journal mark, delta encode, sidecar flush) — on a 1-core
        #: host the whole round folds into one wave per strategy and the
        #: lone worker still amortizes its snapshot across every member.
        self.wave_slots = max(1, min(self.jobs, self.cores))
        #: Blocks fanned out at least once (by name).
        self._speculated: set[str] = set()
        #: name -> cache entries imported from its latest delta.
        self._last_imported: dict[str, int] = {}
        #: Blocks already raced this run (never re-race).
        self._raced: set[str] = set()
        #: name -> winning strategy, recorded by the parallel engine.
        self.race_winners: dict[str, str] = {}

    # -- MIXY: block scheduling -------------------------------------------

    def plan_mixy_round(
        self,
        names: Sequence[str],
        features: Mapping[str, frozenset],
        hashes: Mapping[str, str],
    ) -> RoundPlan:
        """Plan one frontier round.  ``names`` arrive in serial (sorted)
        order; the plan is a pure function of the arguments plus the
        scheduler's accumulated state, so identical runs produce
        identical plans."""
        assert self.mode != "fifo", "fifo rounds bypass the scheduler"
        skipped: list[str] = []
        active: list[str] = []
        for name in names:
            if self._should_skip(name, hashes.get(name)):
                skipped.append(name)
            else:
                active.append(name)

        races: list[RacePlan] = []
        if self.mode == "portfolio":
            remaining: list[str] = []
            for name in active:
                chash = hashes.get(name, "")
                if self._should_race(name, chash):
                    races.append(RacePlan(name, chash))
                    self._raced.add(name)
                else:
                    remaining.append(name)
            active = remaining

        # Waves are strategy-homogeneous: a worker's service has one
        # strategy knob at a time, and mixing a learned-intfirst block
        # into a default wave would silently demote it.  Group first,
        # cluster within each group, then prioritize across all waves.
        groups: dict[str, list[str]] = {}
        for name in active:
            groups.setdefault(
                self._block_strategy(name, hashes.get(name)), []
            ).append(name)
        paired: list[tuple[tuple[str, ...], str]] = []
        for strategy in sorted(groups):
            for wave in self._form_waves(groups[strategy], features):
                paired.append((wave, strategy))
        paired = self._prioritize(paired, hashes)
        waves = [wave for wave, _ in paired]
        strategies = [strategy for _, strategy in paired]
        for name in active:
            self._speculated.add(name)
        for race in races:
            self._speculated.add(race.name)
        return RoundPlan(
            waves=waves,
            wave_strategies=strategies,
            races=races,
            skipped=tuple(skipped),
        )

    def _should_skip(self, name: str, chash: Optional[str]) -> bool:
        if name not in self._speculated:
            return False  # never skip a block's first speculation
        if self._last_imported.get(name, 1 << 30) <= CONVERGED_IMPORTS:
            return True  # live feedback: its deltas stopped mattering
        hint = self.hints.get(chash)
        won = self.race_winners.get(name)
        if won is None and hint is not None:
            won = hint.strategy
        # A learned cheap strategy changes the economics of later-round
        # speculation: the worker's (e.g. intfirst) solves cost less
        # than the authoritative CDCL solves whose verdicts they
        # pre-seed, so re-speculating pays even with zero overlap.
        # Without one, later rounds only pay through overlap, which
        # needs idle cores.
        arbitrage = won in CHEAP_STRATEGIES
        if self.cores < 2 and not arbitrage:
            return True  # no overlap possible: cold speculation only
        if hint is not None and hint.cold_only and not arbitrage:
            return True
        return False

    def _should_race(self, name: str, chash: str) -> bool:
        if name in self._raced or name in self._speculated:
            return False  # race only on first speculation
        hint = self.hints.get(chash)
        if hint is not None and hint.strategy is not None:
            return False  # already learned: dispatch the winner directly
        if self.hints.blocks or self.hints.hot:
            return self.hints.is_hot(chash)
        return True  # no hints at all: every first-seen block learns

    def _form_waves(
        self, names: Sequence[str], features: Mapping[str, frozenset]
    ) -> list[tuple[str, ...]]:
        """Greedy deterministic clustering into at most ``wave_slots``
        waves.

        Processing order is the (already sorted) input order; each task
        joins the most similar existing wave when similarity clears
        :data:`WAVE_SIMILARITY`, else opens a new wave while slots
        remain, else joins the best (or emptiest) wave."""
        slots = self.wave_slots
        waves: list[list[str]] = []
        wave_feats: list[set] = []
        for name in names:
            feats = features.get(name, frozenset())
            best, best_sim = -1, 0.0
            for i, wf in enumerate(wave_feats):
                sim = _jaccard(feats, wf)
                if sim > best_sim:
                    best, best_sim = i, sim
            if best >= 0 and best_sim >= WAVE_SIMILARITY:
                waves[best].append(name)
                wave_feats[best] |= feats
            elif len(waves) < slots:
                waves.append([name])
                wave_feats.append(set(feats))
            elif best >= 0:
                waves[best].append(name)
                wave_feats[best] |= feats
            else:
                i = min(range(len(waves)), key=lambda j: (len(waves[j]), j))
                waves[i].append(name)
                wave_feats[i] |= feats
        return [tuple(w) for w in waves]

    def _prioritize(
        self,
        paired: list[tuple[tuple[str, ...], str]],
        hashes: Mapping[str, str],
    ) -> list[tuple[tuple[str, ...], str]]:
        """Dispatch (and merge) hot waves first: their workers get the
        longest overlap with the rest of the round.  Operates on
        (wave, strategy) pairs so priority never splits a pairing."""

        def rank(pair: tuple[tuple[str, ...], str]) -> tuple[int, str]:
            wave, _ = pair
            best = 1 << 30
            for name in wave:
                hint = self.hints.get(hashes.get(name))
                if hint is not None:
                    best = min(best, hint.rank)
            return (best, wave[0])

        return sorted(paired, key=rank)

    def _block_strategy(self, name: str, chash: Optional[str]) -> str:
        """The solver strategy a block's speculation should run: this
        run's race winner, else the hint file's, else the default."""
        if self.mode != "portfolio":
            return "default"
        won = self.race_winners.get(name)
        if won is None:
            hint = self.hints.get(chash)
            won = hint.strategy if hint is not None else None
        return won or "default"

    # -- feedback from the parallel engine --------------------------------

    def note_result(self, names: Sequence[str], imported: int) -> None:
        """Record how many cache entries a wave's delta actually added
        (attributed to every member: a wave ships one merged delta)."""
        for name in names:
            self._last_imported[name] = imported

    def note_winner(self, name: str, strategy: str) -> None:
        self.race_winners[name] = strategy

    # -- per-block lookups (serial pass + workers) -------------------------

    def tier_order_for(self, chash: Optional[str]) -> tuple[str, str]:
        hint = self.hints.get(chash)
        if hint is not None and hint.tier_order is not None:
            return hint.tier_order
        return ("subset", "superset")

    # -- MIX: query-group waves --------------------------------------------

    def plan_query_waves(
        self,
        positions: Sequence[tuple[int, ...]],
        roots: Sequence[int],
    ) -> list[tuple[int, ...]]:
        """Cluster MIX outcome-query groups into waves by *shared
        conjunct* similarity.  ``roots[i]`` is the wire node id of flat
        conjunct ``i`` (``to_wire_many`` interns shared structure, so
        two groups sharing a conjunct share its node id); each group's
        feature set is its conjunct node ids.  Returns waves of group
        indices; order and membership are deterministic."""
        features = {
            g: frozenset(roots[p] for p in group)
            for g, group in enumerate(positions)
        }
        names = list(range(len(positions)))
        waves: list[list[int]] = []
        wave_feats: list[set] = []
        for g in names:
            feats = features[g]
            best, best_sim = -1, 0.0
            for i, wf in enumerate(wave_feats):
                sim = _jaccard(feats, wf)
                if sim > best_sim:
                    best, best_sim = i, sim
            if best >= 0 and best_sim >= WAVE_SIMILARITY:
                waves[best].append(g)
                wave_feats[best] |= feats
            elif len(waves) < self.wave_slots:
                waves.append([g])
                wave_feats.append(set(feats))
            elif best >= 0:
                waves[best].append(g)
                wave_feats[best] |= feats
            else:
                i = min(range(len(waves)), key=lambda j: (len(waves[j]), j))
                waves[i].append(g)
                wave_feats[i] |= feats
        return [tuple(w) for w in waves]


def make_scheduler(config) -> Optional[Scheduler]:
    """The scheduler for a driver config (``jobs`` / ``schedule`` /
    ``sched_hints`` attributes — both MixConfig and MixyConfig qualify).
    Validates the mode even when it won't be used; returns None when no
    scheduling applies (serial runs and fifo mode keep PR 4's exact
    dispatch path).  A hint file that failed to load degrades to
    unhinted with a one-line stderr note."""
    import sys

    mode = getattr(config, "schedule", "fifo") or "fifo"
    if mode not in SCHEDULE_MODES:
        raise ValueError(
            f"unknown schedule mode {mode!r}; expected one of {SCHEDULE_MODES}"
        )
    if config.jobs <= 1 or mode == "fifo":
        return None
    hints = None
    if config.sched_hints:
        hints = ScheduleHints.load(config.sched_hints)
        if hints.note:
            print(f"repro: {hints.note}", file=sys.stderr)
    return Scheduler(mode, config.jobs, hints)


# ---------------------------------------------------------------------------
# Hint emission (``repro trace-report --emit-hints``)
# ---------------------------------------------------------------------------


def build_hints(digest: Mapping) -> ScheduleHints:
    """Distill a trace digest (:func:`repro.trace.aggregate`) into
    :class:`ScheduleHints`.  Blocks without a recorded content hash
    (serial runs don't stamp one) are skipped — hints only ever key on
    content, never on position or name."""
    hints = ScheduleHints()
    rows = [b for b in digest.get("blocks", ()) if b.get("chash")]
    rows.sort(
        key=lambda b: (
            -(b.get("solver_seconds", 0.0) + b.get("spec_solver_seconds", 0.0)),
            b["name"],
        )
    )
    winners = digest.get("scheduler", {}).get("race_winners", {})
    hot: list[str] = []
    for rank, row in enumerate(rows):
        chash = row["chash"]
        solver_seconds = row.get("solver_seconds", 0.0) + row.get(
            "spec_solver_seconds", 0.0
        )
        tiers = row.get("tiers", {})
        tier_order: Optional[tuple[str, str]] = None
        if tiers.get("superset", 0) > tiers.get("subset", 0):
            tier_order = ("superset", "subset")
        cold_only = False
        spec_first = row.get("spec_first_solver_seconds", 0.0)
        spec_later = row.get("spec_later_solver_seconds", 0.0)
        if row.get("spec_runs", 0) > 1 and spec_later <= max(
            spec_first * COLD_ONLY_FRACTION, 1e-9
        ):
            cold_only = True
        strategy = winners.get(row["name"])
        if strategy not in STRATEGIES:
            strategy = None
        hints.blocks[chash] = BlockHint(
            name=row["name"],
            rank=rank,
            solver_seconds=solver_seconds,
            queries=row.get("queries", 0) + row.get("spec_queries", 0),
            tier_order=tier_order,
            strategy=strategy,
            cold_only=cold_only,
        )
        if len(hot) < HOT_TOP_N and solver_seconds > 0.0:
            hot.append(chash)
    hints.hot = tuple(hot)
    return hints


def emit_hints(digest: Mapping, path: str) -> ScheduleHints:
    """Build hints from ``digest`` and write them to ``path``."""
    hints = build_hints(digest)
    hints.save(path)
    return hints
