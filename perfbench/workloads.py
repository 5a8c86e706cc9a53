"""Inputs and hand-written expected answers for the four workloads.

Every expected answer below is written by hand from the program's
documented behaviour, not recorded from a run, and compares only what a
valid optimisation must preserve: qualifier ids (``#N``) and rendered
counterexample values are left out, because a qualifier-layer change may
renumber the one and a faster solver may return a different valid model
for the other.
"""

from __future__ import annotations

import random
import re

#: The one finding of ``parallel_vsftpd`` (any depth): the staircase ends
#: when ``g_stage_2`` reaches ``sysutil_free``'s nonnull parameter.
STAIRCASE_FINDING = "(nonnull parameter p_ptr of sysutil_free)"

#: ``prove --entry typed`` on ``property_staircase``: every block's
#: ``check(r > 0)`` holds on every path.
PROPERTY_VERDICT = "PROVED"

#: Verdict class of each shipped property file (6 / 3 / 1).
PROPERTY_VERDICTS = {
    "assume_narrows.mix": "PROVED",
    "backsolve_diff.c": "COUNTEREXAMPLE",
    "backsolve_sum.mix": "COUNTEREXAMPLE",
    "clamp_bounded.mix": "PROVED",
    "interval.c": "PROVED",
    "midpoint_bounds.c": "PROVED",
    "overflow_guard.mix": "COUNTEREXAMPLE",
    "sum_commutes.mix": "PROVED",
    "unbounded_loop.c": "BUDGET",
    "vacuous_assume.mix": "PROVED",
}

PROPERTIES_DIR = "examples/properties"

#: Warnings of one ``mini_vsftpd`` copy per ``annotation_subsets()`` entry
#: (the E2' schedule: each added annotation removes a false positive
#: family).
WIDE_COPY_WARNINGS = (4, 4, 3, 0, 0)

_QUAL_ID = re.compile(r"#\d+")
_COPY = re.compile(r"_c(\d+)\b")
_LEAF = re.compile(r"r = r \+ (\d+);")


def strip_ids(line: str) -> str:
    return _QUAL_ID.sub("", line)


# -- staircase-serial / prove-parallel / daemon-mixed base program -----------


def staircase_ok(lines: list[str]) -> bool:
    """Exactly one finding, the ``sysutil_free`` one."""
    return len(lines) == 1 and STAIRCASE_FINDING in strip_ids(lines[0])


def edited_staircase(source: str, site: int, zeros: int) -> str:
    """``r = r + K;`` at leaf ``site`` becomes ``r = r + 0 + ... + K;``:
    the same meaning, a different block hash."""
    leaves = list(_LEAF.finditer(source))
    leaf = leaves[site % len(leaves)]
    padded = "r = r + " + "0 + " * zeros + leaf.group(1) + ";"
    return source[: leaf.start()] + padded + source[leaf.end():]


def leaf_count(source: str) -> int:
    return len(_LEAF.findall(source))


# -- wide-typed ---------------------------------------------------------------


def wide_program(copies: int, seed: int) -> tuple[str, list[int]]:
    """``copies`` renamed copies of ``mini_vsftpd(subset)`` plus a ``main``
    calling each copy's ``main``; returns the source and each copy's
    expected warning count.

    Subsets are drawn by ``seed`` without replacement from a pool holding
    each ``annotation_subsets()`` entry equally often, so every seed asks
    for the same amount of work in a different layout.
    """
    from repro.mixy.c.parser import parse_program
    from repro.mixy.corpus_vsftpd import annotation_subsets, mini_vsftpd

    subsets = annotation_subsets()
    pool = [i % len(subsets) for i in range(copies)]
    random.Random(seed).shuffle(pool)
    parts = []
    calls = []
    for k, index in enumerate(pool):
        source = mini_vsftpd(subsets[index])
        program = parse_program(source)
        names = set(program.functions) | set(program.globals) | set(program.structs)
        pattern = re.compile(
            r"\b(" + "|".join(sorted(names, key=len, reverse=True)) + r")\b"
        )
        parts.append(pattern.sub(lambda m, k=k: f"{m.group(1)}_c{k}", source))
        calls.append(f"  t = t + main_c{k}();")
    main = "int main(void) {\n  int t;\n  t = 0;\n" + "\n".join(calls) + "\n  return t;\n}\n"
    expected = [WIDE_COPY_WARNINGS[index] for index in pool]
    return "\n".join(parts) + "\n" + main, expected


def wide_ok(lines: list[str], expected: list[int]) -> bool:
    counts = [0] * len(expected)
    for line in lines:
        copies = set(_COPY.findall(line))
        if len(copies) != 1:
            return False
        counts[int(copies.pop())] += 1
    return counts == expected


def suite_ok(lines: list[str]) -> bool:
    """One verdict line per property file, in sorted-file order, plus the
    summary line.  Counterexamples are replay-confirmed by construction
    (an unconfirmed one is reported as UNCONFIRMED)."""
    names = sorted(PROPERTY_VERDICTS)
    if len(lines) != len(names) + 1:
        return False
    for name, line in zip(names, lines):
        verdict, _, rest = line.partition(": ")
        if verdict != PROPERTY_VERDICTS[name]:
            return False
        if not rest.startswith(f"{PROPERTIES_DIR}/{name}"):
            return False
    return lines[-1] == "10 properties: 6 proved, 3 counterexample, 1 budget"
