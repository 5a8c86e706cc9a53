"""Property-based differential testing of the C symbolic executor
against the concrete mini-C interpreter.

Hypothesis generates small, terminating, well-typed mini-C functions
over integer parameters and locals (arithmetic, branches, bounded
loops, pointers to locals); each is executed two ways on random concrete
arguments:

- by :class:`repro.mixy.c.interp.CInterpreter` (ground truth);
- by :class:`repro.mixy.symexec.CSymExecutor` with the same concrete
  arguments, which must follow exactly one path to the same value.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import smt
from repro.mixy.c.interp import CInterpreter
from repro.mixy.c.parser import parse_program
from repro.mixy.symexec import CSymExecutor

# ---------------------------------------------------------------------------
# Program generation (as source text: exercises the parser too)
# ---------------------------------------------------------------------------

INT_VARS = ["a", "b", "x", "y"]


def int_expr(rng: random.Random, depth: int) -> str:
    if depth == 0:
        if rng.choice((True, False)):
            return str(rng.randint(-9, 9))
        return rng.choice(INT_VARS)
    kind = rng.choice(["bin", "neg", "not", "leaf", "cmp"])
    if kind == "leaf":
        return int_expr(rng, 0)
    if kind == "bin":
        op = rng.choice(["+", "-", "*"])
        left = int_expr(rng, depth - 1)
        right = int_expr(rng, depth - 1)
        if op == "*":
            right = str(rng.randint(-4, 4))  # keep it linear
        return f"({left} {op} {right})"
    if kind == "neg":
        return f"(-{int_expr(rng, depth - 1)})"
    if kind == "not":
        return f"(!{int_expr(rng, depth - 1)})"
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return f"({int_expr(rng, depth - 1)} {op} {int_expr(rng, depth - 1)})"


def cond_expr(rng: random.Random) -> str:
    op = rng.choice(["==", "!=", "<", "<=", ">", ">=", "&&", "||"])
    return f"({int_expr(rng, 1)} {op} {int_expr(rng, 1)})"


def statement(rng: random.Random, depth: int) -> str:
    kind = rng.choice(["assign", "if", "loop", "ptr", "assign", "assign"])
    if kind == "assign" or depth == 0:
        var = rng.choice(["x", "y"])
        return f"{var} = {int_expr(rng, 2)};"
    if kind == "if":
        then = statement(rng, depth - 1)
        els = statement(rng, depth - 1)
        return f"if ({cond_expr(rng)}) {{ {then} }} else {{ {els} }}"
    if kind == "loop":
        # A canned, always-terminating counted loop.  Each nesting level
        # uses its own counter so an inner loop cannot reset an outer one.
        body = statement(rng, depth - 1)
        limit = rng.randint(1, 4)
        counter = f"i{depth}"
        return (
            f"{counter} = 0; "
            f"while ({counter} < {limit}) {{ {body} {counter} = {counter} + 1; }}"
        )
    # ptr: write through a pointer to a local.
    target = rng.choice(["x", "y"])
    return f"p = &{target}; *p = {int_expr(rng, 1)};"


def function_source(rng: random.Random) -> str:
    """One generated ``int f(int a, int b)``.  Drawn from any
    :class:`random.Random`: Hypothesis's below, or a seeded one for a
    sample that is the same on every Hypothesis version."""
    statements = " ".join(statement(rng, 2) for _ in range(rng.randint(1, 4)))
    ret = int_expr(rng, 2)
    return (
        "int f(int a, int b) { int x = 0; int y = 1; "
        "int i1 = 0; int i2 = 0; int *p = &x; "
        + statements
        + f" return {ret}; }}"
    )


def c_function() -> st.SearchStrategy[str]:
    return st.randoms(use_true_random=False).map(function_source)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(c_function(), st.integers(-9, 9), st.integers(-9, 9))
def test_concrete_agreement(source, a, b):
    program = parse_program(source)
    expected = CInterpreter(program).call("f", [a, b])
    executor = CSymExecutor(program)
    results = list(
        executor.execute_function(
            program.functions["f"],
            [smt.int_const(a), smt.int_const(b)],
            executor.initial_state(),
        )
    )
    assert len(results) == 1
    assert results[0].ret is smt.int_const(expected), source
    assert not executor.warnings


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(c_function(), st.integers(-6, 6), st.integers(-6, 6))
def test_symbolic_covers_concrete(source, a, b):
    """With symbolic arguments, some explored path must match each
    concrete input and predict its result (Corollary 1.1 for mini-C)."""
    program = parse_program(source)
    expected = CInterpreter(program).call("f", [a, b])
    executor = CSymExecutor(program)
    alpha = executor.fresh_symbol("a")
    beta = executor.fresh_symbol("b")
    results = list(
        executor.execute_function(
            program.functions["f"], [alpha, beta], executor.initial_state()
        )
    )
    binding = smt.and_(
        smt.eq(alpha, smt.int_const(a)), smt.eq(beta, smt.int_const(b))
    )
    matched = False
    for result in results:
        condition = smt.and_(result.state.condition(), binding)
        try:
            feasible = smt.is_satisfiable(condition)
        except smt.SolverError:
            continue
        if feasible:
            matched = True
            assert smt.is_valid(
                smt.eq(result.ret, smt.int_const(expected)), assuming=[condition]
            ), source
    assert matched, source
