"""Tests for automatic block placement (the paper's future-work
refinement loop, §4.6/§5)."""

import pytest

from repro.core import MixConfig, analyze
from repro.core.refine import auto_place_blocks
from repro.lang import parse
from repro.lang.ast import SymBlock, TypedBlock, block_count
from repro.symexec import SymConfig
from repro.typecheck import TypeEnv
from repro.typecheck.types import BOOL, FunType, INT


def refine(source, env=None, entry="typed", **kwargs):
    return auto_place_blocks(parse(source), env, entry, **kwargs)


class TestTypedToSymbolicRefinement:
    def test_unreachable_branch(self):
        """The paper's canonical example: pure typing rejects; refinement
        discovers the symbolic block placement."""
        result = refine('if true then 5 else "foo" + 3')
        assert result.ok
        assert result.steps and result.steps[0].block_kind == "symbolic"
        _typed, symbolic = block_count(result.program)
        assert symbolic >= 1

    def test_already_accepted_needs_no_steps(self):
        result = refine("1 + 2")
        assert result.ok and result.steps == []

    def test_annotated_source_roundtrips(self):
        result = refine('if true then 5 else "foo" + 3')
        reparsed = parse(result.annotated_source)
        assert analyze(reparsed).ok

    def test_flow_sensitive_reuse_refined(self):
        # if p then !r + 1 else (r := 2; !r): well-typed already; instead
        # use the unreachable-guard pattern with a computed condition.
        result = refine('if 1 < 2 then 1 else "x" + 1')
        assert result.ok

    def test_genuine_error_is_not_maskable(self):
        """A real, reachable type error cannot be refined away."""
        result = refine('"foo" + 3')
        assert not result.ok

    def test_genuine_error_in_reachable_branch(self):
        result = refine(
            'if p then "foo" + 3 else 1', env=TypeEnv({"p": BOOL})
        )
        assert not result.ok

    def test_multiple_errors_need_multiple_steps(self):
        source = """
        let a = (if true then 1 else "x" + 1) in
        let b = (if false then "y" + 2 else 2) in
        a + b
        """
        result = refine(source)
        assert result.ok
        assert len(result.steps) == 2


class TestSymbolicToTypedRefinement:
    def test_unknown_function_wrapped_typed(self):
        """§2 'Helping Symbolic Execution': the refinement inserts a
        typed block around the call symbolic execution cannot make."""
        env = TypeEnv({"f": FunType(INT, INT)})
        result = refine("f 1 + 1", env=env, entry="symbolic")
        assert result.ok
        assert any(step.block_kind == "typed" for step in result.steps)

    def test_nonlinear_wrapped_typed(self):
        env = TypeEnv({"z": INT})
        result = refine("z * z + 1", env=env, entry="symbolic")
        assert result.ok
        assert any(step.block_kind == "typed" for step in result.steps)

    def test_unbounded_loop_wrapped_typed(self):
        env = TypeEnv({"n": INT})
        config = MixConfig(sym=SymConfig(max_loop_unroll=4))
        source = "let i = ref 0 in while !i < n do i := !i + 1 done; !i"
        result = refine(source, env=env, entry="symbolic", config=config)
        assert result.ok
        assert any(step.block_kind == "typed" for step in result.steps)

    def test_step_trace_is_reportable(self):
        env = TypeEnv({"z": INT})
        result = refine("z * z", env=env, entry="symbolic")
        assert result.ok
        assert "typed" in str(result.steps[0])


class TestBudget:
    def test_budget_respected(self):
        source = """
        let a = (if true then 1 else "x" + 1) in
        let b = (if false then "y" + 2 else 2) in
        a + b
        """
        result = refine(source, max_steps=1)
        assert not result.ok
        assert len(result.steps) == 1


def _dead_errors(k: int) -> str:
    """k dead ill-typed branches; pure typing reports each, MIX needs k
    symbolic blocks."""
    lets = [f'let a{i} = (if true then 1 else "x" + {i}) in' for i in range(k)]
    return "\n".join(lets) + "\n" + (" + ".join(f"a{i}" for i in range(k)) or "0")


def _manual_placement(k: int) -> str:
    lets = [
        f'let a{i} = {{s if true then {{t 1 t}} else {{t "x" + {i} t}} s}} in'
        for i in range(k)
    ]
    return "\n".join(lets) + "\n" + (" + ".join(f"a{i}" for i in range(k)) or "0")


class TestManualOracle:
    """E9: the loop places one symbolic block per typed false positive
    and reaches the type of the hand-placed (oracle) program."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_refinement_matches_manual_oracle(self, k):
        auto = auto_place_blocks(parse(_dead_errors(k)), max_steps=k + 2)
        manual = analyze(parse(_manual_placement(k)))
        assert auto.ok and manual.ok
        assert auto.report.type == manual.type
        assert len(auto.steps) == k  # one symbolic block per false positive
