"""Tests for the sign-qualifier system (paper §2, "Local Refinements of
Data") and its mixing with symbolic execution."""

import pytest

from repro.core import MixConfig
from repro.lang import parse
from repro.quals import (
    QualTypeError,
    Sign,
    SignChecker,
    SignEnv,
    analyze_signs,
)
from repro.quals import signs
from repro.quals.checker import QType, int_q
from repro.typecheck.types import BOOL, INT


def check(source, env=None, **kwargs):
    return SignChecker(**kwargs).check(parse(source), env)


class TestLattice:
    def test_join(self):
        assert signs.join(Sign.POS, Sign.POS) is Sign.POS
        assert signs.join(Sign.POS, Sign.NEG) is Sign.UNKNOWN
        assert signs.join(Sign.ZERO, Sign.UNKNOWN) is Sign.UNKNOWN

    def test_add(self):
        assert signs.add(Sign.POS, Sign.POS) is Sign.POS
        assert signs.add(Sign.POS, Sign.ZERO) is Sign.POS
        assert signs.add(Sign.POS, Sign.NEG) is Sign.UNKNOWN
        assert signs.add(Sign.ZERO, Sign.ZERO) is Sign.ZERO

    def test_mul(self):
        assert signs.mul(Sign.NEG, Sign.NEG) is Sign.POS
        assert signs.mul(Sign.NEG, Sign.POS) is Sign.NEG
        assert signs.mul(Sign.ZERO, Sign.UNKNOWN) is Sign.ZERO

    def test_negate(self):
        assert signs.negate(Sign.POS) is Sign.NEG
        assert signs.negate(Sign.ZERO) is Sign.ZERO

    @pytest.mark.parametrize(
        "a,b", [(3, 5), (-3, 5), (0, 7), (-2, -2), (6, 0), (0, 0)]
    )
    def test_transfer_functions_sound(self, a, b):
        """Abstract ops over-approximate the concrete ones."""
        from repro.quals.signs import sign_of_int

        for op, abstract in (
            (lambda x, y: x + y, signs.add),
            (lambda x, y: x - y, signs.sub),
            (lambda x, y: x * y, signs.mul),
        ):
            result = abstract(sign_of_int(a), sign_of_int(b))
            concrete = sign_of_int(op(a, b))
            assert result is Sign.UNKNOWN or result is concrete


class TestChecker:
    def test_literal_signs(self):
        assert check("5").sign is Sign.POS
        assert check("0").sign is Sign.ZERO
        assert check("-3").sign is Sign.NEG

    def test_arithmetic_signs(self):
        assert check("2 + 3").sign is Sign.POS
        assert check("2 * -3").sign is Sign.NEG
        assert check("let x = 2 in x + x").sign is Sign.POS

    def test_if_joins(self):
        assert check("if true then 1 else 2").sign is Sign.POS
        assert check("if true then 1 else -2").sign is Sign.UNKNOWN

    def test_division_by_sign_safe_divisor(self):
        assert check("10 / 2").sign is Sign.UNKNOWN  # truncation widens
        assert check("0 / 2").sign is Sign.ZERO

    def test_division_by_possible_zero_rejected(self):
        with pytest.raises(QualTypeError, match="may be zero"):
            check("10 / 0")
        env = SignEnv({"x": int_q(Sign.UNKNOWN)})
        with pytest.raises(QualTypeError, match="may be zero"):
            check("10 / x", env)

    def test_division_guard_is_invisible_to_pure_checker(self):
        """Path-insensitivity: the guard does not refine x's sign."""
        env = SignEnv({"x": int_q(Sign.UNKNOWN)})
        with pytest.raises(QualTypeError):
            check("if x = 0 then 1 else 10 / x", env)

    def test_strict_division_off(self):
        env = SignEnv({"x": int_q(Sign.UNKNOWN)})
        qt = check("10 / x", env, strict_division=False)
        assert qt.typ == INT

    def test_env_signs_respected(self):
        env = SignEnv({"p": int_q(Sign.POS), "n": int_q(Sign.NEG)})
        assert check("p * n", env).sign is Sign.NEG
        assert check("10 / p", env).typ == INT

    def test_refs_erase_signs(self):
        assert check("!(ref 5)").sign is Sign.UNKNOWN

    def test_symbolic_block_requires_hook(self):
        with pytest.raises(QualTypeError, match="SignMix"):
            check("{s 1 s}")


class TestMixedSignAnalysis:
    def test_paper_sign_refinement_example(self):
        """The §2 example verbatim: after each test, the typed block sees
        the refined sign."""
        source = """
        {s
          if 0 < x then {t 10 / x t}
          else if x = 0 then {t 0 t}
          else {t 10 / x t}
        s}
        """
        env = SignEnv({"x": int_q(Sign.UNKNOWN)})
        report = analyze_signs(source, env)
        assert report.ok, report

    def test_unguarded_division_still_rejected(self):
        report = analyze_signs(
            "{s {t 10 / x t} s}", SignEnv({"x": int_q(Sign.UNKNOWN)})
        )
        assert not report.ok

    def test_sign_enters_symbolic_block(self):
        """typed -> symbolic: a pos int variable is constrained α > 0, so
        the zero branch is infeasible."""
        source = "{s if x = 0 then 1 / 0 else 1 s}"
        report = analyze_signs(source, SignEnv({"x": int_q(Sign.POS)}))
        assert report.ok

    def test_sign_leaves_symbolic_block(self):
        """symbolic -> typed: the block's result sign is computed from
        the path conditions and survives the boundary."""
        source = "{s if 0 < x then x else 1 s}"
        report = analyze_signs(source, SignEnv({"x": int_q(Sign.UNKNOWN)}))
        assert report.ok
        assert report.qtype.sign is Sign.POS

    def test_block_sign_usable_by_outer_checker(self):
        """A symbolic block whose value is provably positive can be used
        as a divisor by the enclosing typed code."""
        source = "let d = {s if 0 < x then x else 1 s} in 100 / d"
        report = analyze_signs(source, SignEnv({"x": int_q(Sign.UNKNOWN)}))
        assert report.ok

    def test_nested_alternation(self):
        source = "{s if 0 < x then {t {s x + 1 s} t} else {t 1 t} s}"
        report = analyze_signs(source, SignEnv({"x": int_q(Sign.UNKNOWN)}))
        assert report.ok
        assert report.qtype.sign is Sign.POS

    def test_symbolic_entry(self):
        report = analyze_signs(
            "if 0 < x then x else 0 - x",
            SignEnv({"x": int_q(Sign.UNKNOWN)}),
            entry="symbolic",
        )
        assert report.ok
        # |x| is non-negative but not strictly positive: paths join to
        # unknown in the flat lattice (pos join zero-or-pos).
        assert report.qtype.typ == INT

    def test_feasible_division_error_reported(self):
        report = analyze_signs(
            "{s if x = 0 then {t 10 / x t} else 1 s}",
            SignEnv({"x": int_q(Sign.UNKNOWN)}),
        )
        assert not report.ok
        assert "zero" in report.diagnostics[0]


def _guarded_divisions(k: int, mixed: bool) -> str:
    """k guarded divisions over distinct unknown ints, split three ways
    (pos/zero/neg): the flat lattice has no 'nonzero' element, so
    ``x != 0`` alone would not refine."""
    if mixed:
        terms = [
            f"{{s if 0 < x{i} then {{t 10 / x{i} t}} "
            f"else if x{i} = 0 then {{t 1 t}} "
            f"else {{t 10 / x{i} t}} s}}"
            for i in range(k)
        ]
    else:
        terms = [
            f"(if 0 < x{i} then 10 / x{i} else if x{i} = 0 then 1 else 10 / x{i})"
            for i in range(k)
        ]
    return " + ".join(terms)


class TestGuardedDivisions:
    """E10: the pure sign checker is path-insensitive and rejects every
    guarded division; mixing in symbolic execution accepts them all."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_pure_rejects_mixed_accepts(self, k):
        env = SignEnv({f"x{i}": int_q(Sign.UNKNOWN) for i in range(k)})
        with pytest.raises(QualTypeError):
            SignChecker().check(parse(_guarded_divisions(k, mixed=False)), env)
        assert analyze_signs(_guarded_divisions(k, mixed=True), env).ok
