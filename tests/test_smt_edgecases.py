"""Edge cases and failure modes of the SMT stack."""

import random
from contextlib import contextmanager

import pytest

from repro import smt
from repro.smt import (
    BOOL,
    INT,
    FaultInjector,
    FuncDecl,
    SatResult,
    Solver,
    SolverError,
    array_sort,
    eq,
    int_const,
    mul,
    not_,
    select,
    store,
    var,
)
from repro.smt import preprocess
from repro.smt.preprocess import Preprocessor, UnsupportedTermError, is_pure
from repro.smt.simplify import simplify
from repro.smt.terms import Sort, SortError

x = var("x", INT)
y = var("y", INT)


class TestUnknownResults:
    def test_tiny_budget_returns_unknown(self):
        solver = Solver(int_budget=0)
        solver.add(smt.gt(x, int_const(0)))
        assert solver.check() is SatResult.UNKNOWN

    def test_helpers_raise_on_unknown(self):
        service = smt.reset_service()
        service.fault_injector = FaultInjector(
            faults={1: FaultInjector.UNKNOWN, 2: FaultInjector.UNKNOWN}
        )
        try:
            with pytest.raises(SolverError):
                smt.is_satisfiable(smt.gt(x, int_const(0)))
            with pytest.raises(SolverError):
                smt.is_valid(smt.gt(x, int_const(0)))
        finally:
            smt.reset_service()


class TestFragmentLimits:
    def test_nonlinear_rejected(self):
        solver = Solver()
        solver.add(eq(mul(x, y), int_const(6)))
        with pytest.raises(SortError):
            solver.check()

    def test_array_equality_rejected(self):
        sort = array_sort(INT, INT)
        a, b = var("a", sort), var("b", sort)
        solver = Solver()
        solver.add(eq(a, b))
        with pytest.raises(UnsupportedTermError):
            solver.check()

    def test_free_sorts_rejected(self):
        weird = var("w", Sort("Widget"))
        solver = Solver()
        solver.add(eq(weird, weird))
        # eq(w, w) simplifies to true; force a real occurrence:
        solver2 = Solver()
        solver2.add(eq(weird, var("w2", Sort("Widget"))))
        with pytest.raises(UnsupportedTermError):
            solver2.check()

    def test_dollar_namespace_is_reserved_but_not_enforced_for_reads(self):
        # Preprocessing introduces $-variables; user terms should avoid
        # them, but nothing crashes if they appear.
        dollar = var("$mine", INT)
        assert smt.is_satisfiable(eq(dollar, int_const(1)))


class TestPreprocessor:
    def test_side_conditions_share_across_assertions(self):
        """Ackermann congruence must relate applications from different
        assertions of the same check()."""
        f = FuncDecl("f", (INT,), INT)
        solver = Solver()
        solver.add(eq(f(x), int_const(1)))
        solver.add(eq(f(y), int_const(2)))
        solver.add(eq(x, y))
        assert solver.check() is SatResult.UNSAT

    def test_repeated_identical_application_shares_variable(self):
        f = FuncDecl("f", (INT,), INT)
        pre = Preprocessor()
        processed = pre.process(eq(f(x), f(x)))
        # f(x) = f(x) must collapse to true-like (same ack var both sides).
        solver = Solver()
        solver.add(not_(processed.goal))
        assert solver.check() is SatResult.UNSAT

    def test_select_from_distinct_arrays_independent(self):
        sort = array_sort(INT, INT)
        a, b = var("a", sort), var("b", sort)
        formula = smt.and_(
            eq(select(a, x), int_const(1)), eq(select(b, x), int_const(2))
        )
        assert smt.is_satisfiable(formula)

    def test_nested_stores_with_symbolic_indices(self):
        sort = array_sort(INT, INT)
        a = var("a", sort)
        m = store(store(a, x, int_const(1)), y, int_const(2))
        # Reading x gives 1 unless y aliases x.
        claim = smt.implies(
            not_(eq(x, y)), eq(select(m, x), int_const(1))
        )
        assert smt.is_valid(claim)


def random_assertion(rng, depth=3):
    """A random Bool term over Int/Bool variables, an uninterpreted
    function, an array and Int-sorted ite (the last three are stateful)."""
    ints = [var(f"pm_i{k}", INT) for k in range(3)]
    bools = [var(f"pm_b{k}", BOOL) for k in range(2)]
    f = FuncDecl("pm_f", (INT,), INT)
    mem = var("pm_mem", array_sort(INT, INT))

    def int_term(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(ints) if rng.random() < 0.7 else int_const(rng.randint(-4, 4))
        k = rng.randrange(7)
        if k == 0:
            return smt.add(int_term(d - 1), int_term(d - 1))
        if k == 1:
            return mul(int_const(rng.randint(-3, 3)), int_term(d - 1))
        if k == 2:
            return f(int_term(d - 1))
        if k == 3:
            return smt.ite(bool_term(d - 1), int_term(d - 1), int_term(d - 1))
        if k == 4:
            return select(store(mem, int_term(d - 1), int_term(d - 1)), int_term(d - 1))
        if k == 5:
            return select(mem, int_term(d - 1))
        return smt.neg(int_term(d - 1))

    def bool_term(d):
        if d == 0 or rng.random() < 0.3:
            k = rng.randrange(4)
            if k == 0:
                return rng.choice(bools)
            if k == 1:
                return smt.le(int_term(1), int_term(1))
            if k == 2:
                return smt.distinct(int_term(1), int_term(1), int_term(1))
            return eq(int_term(1), int_term(1))
        k = rng.randrange(5)
        if k == 0:
            return not_(bool_term(d - 1))
        if k == 1:
            return smt.and_(bool_term(d - 1), bool_term(d - 1))
        if k == 2:
            return smt.or_(bool_term(d - 1), bool_term(d - 1))
        if k == 3:
            return smt.ite(bool_term(d - 1), bool_term(d - 1), bool_term(d - 1))
        return eq(bool_term(d - 1), bool_term(d - 1))

    return bool_term(depth)


@contextmanager
def empty_pure_memo():
    """Run with an empty process-wide pure-goal memo (restored after)."""
    saved = preprocess._PURE_GOALS
    preprocess._PURE_GOALS = {}
    try:
        yield preprocess._PURE_GOALS
    finally:
        preprocess._PURE_GOALS = saved


def fresh_goal(term):
    """The goal an empty memo and a fresh preprocessor give ``term``."""
    with empty_pure_memo():
        return Preprocessor().process(term)


class TestPureGoalMemo:
    """The process-wide memo of pure goals must be invisible: a pure
    conjunct gets the goal a fresh preprocessor would give it, whatever
    its preprocessor rewrote before, and stateful conjuncts (and the
    Ackermann / ite state they build) never go through it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pure_goal_after_stateful_ones_matches_a_fresh_preprocessor(self, seed):
        rng = random.Random(seed)
        pool = [random_assertion(rng) for _ in range(40)]
        stateful = [t for t in pool if not is_pure(simplify(t))]
        pure = [t for t in pool if is_pure(simplify(t))]
        assert stateful and pure
        with empty_pure_memo() as memo:
            pre = Preprocessor()
            for term in stateful:
                pre.process(term)
            for term in pure:
                processed = pre.process(term)
                reference = fresh_goal(term)
                assert processed.goal is reference.goal
                assert processed.side_conditions == reference.side_conditions == []
                assert memo[term] is processed.goal
            assert not any(term in memo for term in stateful)

    @pytest.mark.parametrize("seed", range(12))
    def test_memo_hits_leave_stateful_rewriting_unchanged(self, seed):
        rng = random.Random(100 + seed)
        sequence = [random_assertion(rng) for _ in range(25)]
        with empty_pure_memo() as memo:
            cold = Preprocessor()
            cold_out = [cold.process(t) for t in sequence]
            assert memo  # the cold pass filled it
            warm = Preprocessor()
            warm_out = [warm.process(t) for t in sequence]
        for a, b in zip(cold_out, warm_out):
            assert a.goal is b.goal
            assert len(a.side_conditions) == len(b.side_conditions)
            assert all(s is t for s, t in zip(a.side_conditions, b.side_conditions))
        assert cold._fresh_counter == warm._fresh_counter
        assert cold._applications == warm._applications
        assert cold._select_decls == warm._select_decls

    def test_purity_is_syntactic(self):
        f = FuncDecl("pm_g", (INT,), INT)
        mem = var("pm_arr", array_sort(INT, INT))
        assert is_pure(smt.and_(smt.le(x, y), smt.ite(smt.lt(x, y), eq(x, y), not_(eq(x, y)))))
        assert not is_pure(eq(f(x), y))
        assert not is_pure(eq(select(mem, x), y))
        assert not is_pure(smt.le(smt.ite(smt.lt(x, y), x, y), y))
        # simplify's read-over-write leaves an Int-sorted ite: stateful.
        read = select(store(mem, x, int_const(1)), y)
        assert not is_pure(simplify(eq(read, int_const(1))))


class TestModelDetails:
    def test_model_as_dict(self):
        solver = Solver()
        solver.add(eq(x, int_const(3)))
        p = var("p", BOOL)
        solver.add(p)
        assert solver.check() is SatResult.SAT
        snapshot = solver.model().as_dict()
        assert snapshot["x"] == 3 and snapshot["p"] is True

    def test_model_select_evaluation(self):
        sort = array_sort(INT, INT)
        a = var("a", sort)
        solver = Solver()
        solver.add(eq(select(a, int_const(0)), int_const(9)))
        assert solver.check() is SatResult.SAT
        model = solver.model()
        assert model.eval(select(a, int_const(0))) == 9

    def test_model_function_evaluation(self):
        f = FuncDecl("f", (INT,), INT)
        solver = Solver()
        solver.add(eq(f(int_const(1)), int_const(10)))
        assert solver.check() is SatResult.SAT
        assert solver.model().eval(f(int_const(1))) == 10

    def test_unconstrained_defaults(self):
        solver = Solver()
        solver.add(smt.true())
        assert solver.check() is SatResult.SAT
        model = solver.model()
        assert model.eval(var("never_seen", INT)) == 0
        assert model.eval(var("never_seen_b", BOOL)) is False


class TestSolverStress:
    def test_many_theory_rounds_converge(self):
        """A formula whose boolean abstraction has many spurious models."""
        solver = Solver()
        atoms = []
        for i in range(6):
            vi = var(f"s{i}", INT)
            atoms.append(smt.or_(eq(vi, int_const(0)), eq(vi, int_const(1))))
        total = smt.add(*[var(f"s{i}", INT) for i in range(6)])
        solver.add(*atoms)
        solver.add(eq(total, int_const(3)))
        assert solver.check() is SatResult.SAT
        model = solver.model()
        assert sum(model.eval(var(f"s{i}", INT)) for i in range(6)) == 3

    def test_unsat_with_many_rounds(self):
        solver = Solver()
        for i in range(5):
            vi = var(f"t{i}", INT)
            solver.add(smt.or_(eq(vi, int_const(0)), eq(vi, int_const(1))))
        total = smt.add(*[var(f"t{i}", INT) for i in range(5)])
        solver.add(smt.gt(total, int_const(5)))
        assert solver.check() is SatResult.UNSAT

    def test_stats_populated(self):
        solver = Solver()
        solver.add(smt.or_(eq(x, int_const(1)), eq(x, int_const(2))))
        solver.add(smt.gt(x, int_const(1)))
        solver.check()
        assert solver.stats["checks"] == 1
