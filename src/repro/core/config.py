"""Configuration for the MIX analysis."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Optional

from repro.budget import Budget
from repro.symexec.executor import SymConfig


@unique
class SoundnessMode(Enum):
    """How strictly rule TSymBlock treats exhaustiveness.

    The paper: "Symbolic execution has typically been used as an unsound
    analysis where there is no exhaustiveness check ...  We can also model
    such unsound analysis by weakening exhaustive(...) to a 'good enough
    check.'"
    """

    #: Require exhaustive(g1, ..., gn) — the disjunction of all explored
    #: path conditions must be a tautology — and reject paths the executor
    #: could not finish (e.g. loop-bound exhaustion).
    SOUND = "sound"
    #: Bounded, KLEE-style exploration: unfinished paths are dropped and
    #: no tautology check is made.  Unsound but often useful.
    GOOD_ENOUGH = "good-enough"


@dataclass
class MixConfig:
    """All knobs of the mixed analysis (see DESIGN.md §6 for ablations)."""

    sym: SymConfig = field(default_factory=SymConfig)
    soundness: SoundnessMode = SoundnessMode.SOUND
    #: cap on paths explored per symbolic block (safety valve; exceeding it
    #: is an analysis failure in SOUND mode, truncation in GOOD_ENOUGH)
    max_paths_per_block: int = 10_000
    #: the paper's §3.2 refinement: skip SETypBlock's memory havoc when a
    #: simple effect analysis shows the typed block makes no writes
    effect_aware_havoc: bool = False
    #: resource governor for the whole run: wall-clock deadline, per-query
    #: solver timeout, global path cap, memory-log depth cap.  ``None``
    #: means ungoverned.  A breach degrades gracefully: SOUND mode rejects
    #: with an ErrKind.BUDGET diagnostic, GOOD_ENOUGH truncates with a
    #: warning (see docs/ARCHITECTURE.md §1.2).
    budget: Optional[Budget] = None
    #: trust ring 1: replay every reported error path through the
    #: concrete interpreter and classify the diagnostic CONFIRMED /
    #: UNCONFIRMED / REPLAY_DIVERGED (see docs/ARCHITECTURE.md §1.3).
    #: Defaults from the REPRO_VALIDATE_WITNESSES environment variable.
    validate_witnesses: bool = field(default_factory=lambda: _env_flag("REPRO_VALIDATE_WITNESSES"))
    #: trust ring 3: catch unexpected exceptions during a block's
    #: analysis, degrade the block to its typed result, and write a
    #: shrunken crash repro instead of taking the whole run down.
    contain_crashes: bool = True
    #: where contained crashes write their minimized repro reports
    crash_dir: str = ".repro-crashes"
    #: cross-run analysis store (``--store DIR``; see repro.store): an
    #: opened :class:`repro.store.AnalysisStore`, or None.  Symbolic
    #: blocks that type-checked cleanly are memoized keyed on (block
    #: text, Γ, config) and skipped on later runs; active only with no
    #: budget / validation / fault injection.
    store: Optional[object] = None


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default
