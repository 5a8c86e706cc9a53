"""Property proving — `repro prove` (docs/ARCHITECTURE.md §1.10).

A *property file* is an ordinary mini-ML or mini-C program that uses
the three language-level proving constructs:

- ``symbolic()`` — an unconstrained integer input,
- ``assume(e)`` — restrict attention to runs where ``e`` holds,
- ``check(e)`` — the proof obligation: ``e`` must hold on every
  non-vacuous path.

The prover runs the file through the existing MIX / MIXY machinery
(symbolic entry, witness validation forced on) and classifies the
outcome into one verdict per file:

``PROVED``
    Exhaustive exploration found no feasible falsifying path — or every
    path was closed by an ``assume`` (a *vacuous* proof, flagged in the
    detail text so suites can notice contradictory assumptions).
``COUNTEREXAMPLE``
    A falsifying path is feasible **and** its SAT model, concretized to
    integer inputs and replayed through the concrete interpreter,
    reproduces the failure (witness verdict CONFIRMED).  The inputs are
    printed — this is trust ring 1 applied to property proving: a
    reported counterexample is a *demonstrated* counterexample.
``UNCONFIRMED``
    A falsifying path looked feasible but the replay could not
    reproduce the failure (abstraction in the block, model gaps).
    Neither a proof nor a refutation; exit-code-wise this is
    incompleteness, not a counterexample.
``BUDGET``
    Exploration was truncated (loop bound, recursion depth, deadline,
    path cap) before the obligation was discharged.
``ERROR``
    The file does not parse, faults before the property is reached
    (e.g. a dynamic type error or NULL dereference on some path), or
    uses something the engines cannot model — no verdict on the
    property itself.

Suite exit codes (``repro prove f1 f2 ...``):

- 0 — every property PROVED;
- 1 — at least one COUNTEREXAMPLE (demonstrated falsification wins);
- 2 — no counterexample, but at least one ERROR;
- 3 — no counterexample or error, but incomplete (BUDGET/UNCONFIRMED).

Determinism contract: verdict lines are byte-identical across
``--jobs 1`` / ``--jobs N`` (files fan out over a fork pool; each
worker analyzes serially after :func:`repro.serve.fresh_equivalence_state`,
and results are emitted in sorted-file order regardless of completion
order), across daemon vs one-shot runs, and across ``PYTHONHASHSEED``
values (qualifier ids are per-inference ordinals; see
docs/ARCHITECTURE.md "identity contract").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

# -- verdict lattice ---------------------------------------------------------

PROVED = "PROVED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
UNCONFIRMED = "UNCONFIRMED"
BUDGET = "BUDGET"
ERROR = "ERROR"

VERDICTS = (PROVED, COUNTEREXAMPLE, UNCONFIRMED, BUDGET, ERROR)

EXIT_PROVED = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2
EXIT_INCOMPLETE = 3


@dataclass(frozen=True)
class PropertyResult:
    """One property file's classification."""

    name: str
    verdict: str
    detail: str = ""
    #: sorted ``(input, rendered value)`` pairs from a confirmed (or
    #: attempted) counterexample model; empty otherwise.
    inputs: tuple[tuple[str, str], ...] = ()

    def line(self) -> str:
        rendered = f"{self.verdict}: {self.name}"
        if self.inputs:
            pairs = ", ".join(f"{k}={v}" for k, v in self.inputs)
            rendered += f" (inputs: {pairs})"
        if self.detail:
            rendered += f" -- {self.detail}"
        return rendered


def language_for(path: str) -> str:
    """``mixy`` for ``.c`` files, ``mix`` otherwise (``.ml``/``.mix``)."""
    return "mixy" if path.endswith(".c") else "mix"


def _render_inputs(inputs: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), repr(v)) for k, v in inputs.items()))


# -- single-property classification ------------------------------------------


def prove_source(
    lang: str,
    source: str,
    options: dict,
    name: str = "<property>",
    store=None,
    request_deadline: Optional[float] = None,
) -> PropertyResult:
    """Classify one property program.  It runs through
    :func:`repro.serve.analyze_source`, the front door every analysis
    takes, so the same source and options yield the same verdict in a
    one-shot run, a pool worker, or a daemon."""
    from repro.serve import analyze_source

    return analyze_source(
        lang,
        source,
        dict(options, prove=True, name=name),
        store=store,
        request_deadline=request_deadline,
    ).proof


def proof_options(lang: str, options: dict) -> dict:
    """The options a proof runs under: the request's, with what a proof
    does not leave to the request pinned.  Exploration is exhaustive and
    forks (a GOOD_ENOUGH truncation would let a falsifiable property
    come back "accepted"), every falsifying path is replayed concretely,
    and qualifier checking keeps its defaults.  A mini-ML property runs
    from the symbolic entry; a mini-C one explores its entry function
    exhaustively unless the request asks for the typed entry, which
    proves checks embedded in MIX(symbolic) blocks of a larger program
    via the qualifier/fixpoint machinery."""
    pinned = dict(
        options,
        good_enough=False,
        defer=False,
        strict_deref=False,
        validate_witnesses=True,
        name=str(options.get("name", "<property>")),
    )
    if lang == "mix" or "entry" not in options:
        pinned["entry"] = "symbolic"
    return pinned


def classify_mix(name: str, report) -> PropertyResult:
    """The verdict of a finished MIX proof run (a ``MixReport``)."""
    from repro.symexec import ErrKind
    from repro.witness import WitnessVerdict

    if report.ok:
        return PropertyResult(name, PROVED, "all paths satisfy every check")
    diag = report.diagnostics[0]
    if diag.kind is ErrKind.ASSUME:
        return PropertyResult(
            name, PROVED, f"vacuously ({diag.message})"
        )
    if diag.kind is ErrKind.CHECK:
        witness = diag.witness
        if witness is not None and witness.verdict is WitnessVerdict.CONFIRMED:
            return PropertyResult(
                name, COUNTEREXAMPLE, witness.reason, _render_inputs(witness.inputs)
            )
        detail = diag.message
        if witness is not None and witness.reason:
            detail += f" ({witness.reason})"
        return PropertyResult(name, UNCONFIRMED, detail)
    if diag.kind in (ErrKind.BUDGET, ErrKind.LOOP_BOUND):
        return PropertyResult(name, BUDGET, diag.message)
    return PropertyResult(name, ERROR, diag.message)


def classify_mixy(name: str, mixy) -> PropertyResult:
    """The verdict of a finished MIXY proof run (a ``Mixy`` driver)."""
    from repro.mixy.symexec import CErrKind
    from repro.witness import WitnessVerdict

    # Mixy.warnings() drops LOOP_BOUND from user-facing output; proving
    # needs it as an incompleteness signal, so read the executor's raw
    # warning list (plus the qualifier engine's).
    executor_warnings = list(mixy.executor.warnings)
    checks = [w for w in executor_warnings if w.kind is CErrKind.CHECK_FAIL]
    for warning in checks:
        witness = mixy.executor.witnesses.get(warning.key)
        if (
            witness is not None
            and witness.verdict is WitnessVerdict.CONFIRMED
        ):
            return PropertyResult(
                name, COUNTEREXAMPLE, warning.message, _render_inputs(witness.inputs)
            )
    if checks:
        warning = checks[0]
        witness = mixy.executor.witnesses.get(warning.key)
        detail = warning.message
        if witness is not None and witness.reason:
            detail += f" ({witness.reason})"
        return PropertyResult(name, UNCONFIRMED, detail)
    faults = [
        w
        for w in executor_warnings
        if w.kind
        in (CErrKind.NULL_DEREF, CErrKind.UNSUPPORTED, CErrKind.CRASH)
    ]
    qual_warnings = mixy.qual.warnings()
    if faults or qual_warnings:
        first = faults[0].message if faults else str(qual_warnings[0])
        return PropertyResult(name, ERROR, f"program faults before the property: {first}")
    truncated = [
        w
        for w in executor_warnings
        if w.kind
        in (CErrKind.LOOP_BOUND, CErrKind.RECURSION, CErrKind.BUDGET)
    ]
    if truncated:
        return PropertyResult(name, BUDGET, truncated[0].message)
    return PropertyResult(name, PROVED, "all explored paths satisfy every check")


# -- suite driver ------------------------------------------------------------


def exit_code(results: Sequence[PropertyResult]) -> int:
    verdicts = {result.verdict for result in results}
    if COUNTEREXAMPLE in verdicts:
        return EXIT_COUNTEREXAMPLE
    if ERROR in verdicts:
        return EXIT_ERROR
    if verdicts - {PROVED}:
        return EXIT_INCOMPLETE
    return EXIT_PROVED


def summary_line(results: Sequence[PropertyResult]) -> str:
    counts = {verdict: 0 for verdict in VERDICTS}
    for result in results:
        counts[result.verdict] += 1
    parts = ", ".join(
        f"{counts[v]} {v.lower()}" for v in VERDICTS if counts[v]
    )
    return f"{len(results)} propert{'y' if len(results) == 1 else 'ies'}: {parts or 'none'}"


def _prove_path(path: str, options: dict) -> PropertyResult:
    try:
        with open(path, "r") as handle:
            source = handle.read()
    except OSError as error:
        return PropertyResult(path, ERROR, f"cannot read: {error}")
    return prove_source(language_for(path), source, options, name=path)


def _pool_init() -> None:
    from repro.parallel import mark_forked_child

    mark_forked_child()


def expand_paths(paths: Sequence[str]) -> list[str]:
    """Flatten directory arguments into the property files directly
    inside them (sorted; hidden files skipped), so a whole suite can be
    named as ``repro prove examples/properties/``.  Non-directories pass
    through untouched — an unreadable path becomes an ERROR verdict at
    prove time, not a crash here."""
    expanded: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            expanded.extend(
                entry.path
                for entry in sorted(os.scandir(path), key=lambda e: e.name)
                if entry.is_file() and not entry.name.startswith(".")
            )
        else:
            expanded.append(path)
    return expanded


def prove_files(
    paths: Sequence[str],
    options: dict,
    jobs: int = 1,
    emit: Callable[[str], None] = print,
) -> int:
    """Prove every file in ``paths``; emit one verdict line per file in
    sorted-file order plus a summary line, and return the suite exit
    code.  Directory arguments expand to the files inside them.
    ``jobs > 1`` fans files out over a fork pool — output is identical
    to ``jobs == 1`` by construction (workers analyze serially;
    emission order is the sorted submission order)."""
    ordered = sorted(expand_paths(paths))
    if jobs > 1 and len(ordered) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(ordered)),
            mp_context=context,
            initializer=_pool_init,
        ) as pool:
            pending = [pool.submit(_prove_path, path, options) for path in ordered]
            results = [future.result() for future in pending]
    else:
        results = [_prove_path(path, options) for path in ordered]
    for result in results:
        emit(result.line())
    emit(summary_line(results))
    return exit_code(results)
