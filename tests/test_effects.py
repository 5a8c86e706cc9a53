"""Tests for the effect analysis and effect-aware havoc (paper §3.2)."""

import pytest

from repro.core import MixConfig, analyze_source
from repro.lang import parse
from repro.lang.effects import may_write
from repro.typecheck import TypeEnv
from repro.typecheck.types import INT


class TestMayWrite:
    @pytest.mark.parametrize(
        "source",
        ["1 + 2", "!r", "ref 5", "let x = !r in x + 1", "if p then 1 else 2",
         "fun x : int -> r := x"],  # a *literal* closure does not write
    )
    def test_pure(self, source):
        assert not may_write(parse(source))

    @pytest.mark.parametrize(
        "source",
        [
            "r := 1",
            "let x = ref 0 in x := 1",
            "if p then r := 1 else 2",
            "while p do r := 1 done",
            "(fun x : int -> x) 1",  # application is conservatively impure
            "!(ref (r := 1))",
        ],
    )
    def test_impure(self, source):
        assert may_write(parse(source))


#: A program that is provable only if the typed block's havoc is skipped:
#: the read-only typed block leaves !x = 5, so the string branch is dead.
PRESERVED = """
{s
  let x = ref 5 in
  {t !x * 2 t};
  if !x = 5 then 1 else "boom" + 1
s}
"""

#: The same shape but the typed block writes: havoc is required.
CLOBBERED = """
{s
  let x = ref 5 in
  {t x := 6 t};
  if !x = 5 then 1 else "boom" + 1
s}
"""


class TestEffectAwareHavoc:
    def test_default_havoc_rejects_preserved(self):
        """Without effects, SETypBlock forgets everything — the paper's
        §4.6 limitation ('symbolic blocks are forced to start with a
        fresh memory ... even if there were no effects')."""
        report = analyze_source(PRESERVED)
        assert not report.ok

    def test_effect_aware_accepts_preserved(self):
        config = MixConfig(effect_aware_havoc=True)
        report = analyze_source(PRESERVED, config=config)
        assert report.ok and str(report.type) == "int"

    def test_effect_aware_still_havocs_writers(self):
        config = MixConfig(effect_aware_havoc=True)
        report = analyze_source(CLOBBERED, config=config)
        assert not report.ok  # the write forces the havoc; "boom" reachable

    def test_soundness_on_writing_block(self):
        """Effect-aware mode must not claim the old value after a write."""
        source = """
        {s
          let x = ref 5 in
          {t x := 6 t};
          !x
        s}
        """
        config = MixConfig(effect_aware_havoc=True)
        report = analyze_source(source, config=config)
        assert report.ok and str(report.type) == "int"

    def test_allocating_block_keeps_memory(self):
        """Allocation alone is not a write effect."""
        source = """
        {s
          let x = ref 5 in
          let y = {t ref 1 t} in
          if !x = 5 then 1 else "boom" + 1
        s}
        """
        config = MixConfig(effect_aware_havoc=True)
        report = analyze_source(source, config=config)
        assert report.ok

    def test_differential_soundness_spot_check(self):
        """Effect-aware acceptance implies concrete safety (samples)."""
        from repro.lang import run

        config = MixConfig(effect_aware_havoc=True)
        for source in (PRESERVED, CLOBBERED):
            report = analyze_source(source, config=config)
            if report.ok:
                run(parse(source))  # must not raise


def _read_only_excursions(k: int) -> str:
    """k read-only typed excursions between checks that memory survived."""
    parts = ["let x = ref 5 in"]
    for i in range(k):
        parts.append(f"{{t !x * {i + 2} t}};")
        parts.append(f'(if !x = 5 then {i} else "boom" + {i});')
    parts.append("!x")
    return "{s " + "\n".join(parts) + " s}"


class TestPrecisionGap:
    """E11: unconditional havoc rejects every program; the effect-aware
    refinement accepts every one."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_havoc_rejects_effects_accept(self, k):
        source = _read_only_excursions(k)
        assert not analyze_source(
            source, config=MixConfig(effect_aware_havoc=False)
        ).ok
        assert analyze_source(source, config=MixConfig(effect_aware_havoc=True)).ok
