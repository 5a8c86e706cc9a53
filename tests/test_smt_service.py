"""Correctness tests for the solver service's query cache.

The cache must be invisible: every answer it serves — from the syntactic
tier, the exact-key tier, the subset/superset shortcut tiers, or the
model-evaluation tier — must equal what a cold :class:`Solver` says for
the same conjunction.  Verdicts are also sharded by ``int_budget``: a
result obtained under one budget is never served under another.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt import (
    BOOL,
    INT,
    SatResult,
    Solver,
    SolverService,
    and_,
    array_sort,
    eq,
    false,
    gt,
    int_const,
    le,
    lt,
    not_,
    or_,
    true,
    var,
)
from repro.smt.service import _Shard
from repro.smt.solver import Model

x = var("x", INT)
y = var("y", INT)
z = var("z", INT)
p = var("p", BOOL)
q = var("q", BOOL)


def cold_verdict(*formulas) -> SatResult:
    solver = Solver()
    solver.add(*formulas)
    return solver.check()


ATOMS = [
    p,
    q,
    le(x, int_const(2)),
    lt(int_const(0), x),
    eq(x, y),
    le(smt.add(x, y), int_const(5)),
    lt(y, z),
    eq(z, int_const(3)),
    gt(x, int_const(-2)),
    eq(y, smt.add(x, int_const(1))),
]


def formulas(depth: int):
    if depth == 0:
        return st.sampled_from(ATOMS)
    inner = formulas(depth - 1)
    return st.one_of(
        st.sampled_from(ATOMS),
        inner.map(not_),
        st.tuples(inner, inner).map(lambda t: and_(*t)),
        st.tuples(inner, inner).map(lambda t: or_(*t)),
    )


# ---------------------------------------------------------------------------
# Tier behavior (directed)
# ---------------------------------------------------------------------------


class TestSyntacticTier:
    def test_literal_true_and_empty(self):
        svc = SolverService()
        assert svc.check_sat(()) is SatResult.SAT
        assert svc.check_sat((true(),)) is SatResult.SAT
        assert svc.stats.syntactic_hits == 2
        assert svc.stats.full_solves == 0

    def test_literal_false(self):
        svc = SolverService()
        assert svc.check_sat((false(),)) is SatResult.UNSAT
        assert svc.check_sat((p, false(), q)) is SatResult.UNSAT
        assert svc.stats.full_solves == 0

    def test_contradiction_by_negation(self):
        svc = SolverService()
        g = gt(x, int_const(0))
        assert svc.check_sat((g, not_(g))) is SatResult.UNSAT
        assert svc.check_sat((p, and_(not_(p), q))) is SatResult.UNSAT
        assert svc.stats.syntactic_hits == 2
        assert svc.stats.full_solves == 0

    def test_guard_already_asserted_dedupes(self):
        """Asserting a guard twice yields the same normalized key."""
        svc = SolverService()
        g = gt(x, int_const(0))
        assert svc.check_sat((g,)) is SatResult.SAT
        assert svc.check_sat((g, g)) is SatResult.SAT
        assert svc.check_sat((and_(g, g),)) is SatResult.SAT
        assert svc.stats.full_solves == 1


class TestCacheTiers:
    def test_exact_hit(self):
        svc = SolverService()
        query = (gt(x, int_const(0)), lt(x, int_const(5)))
        assert svc.check_sat(query) is SatResult.SAT
        assert svc.check_sat(query) is SatResult.SAT
        assert svc.stats.exact_hits == 1
        assert svc.stats.full_solves == 1

    def test_subset_of_sat_set_answers_sat(self):
        svc = SolverService()
        a, b, c = gt(x, int_const(0)), lt(x, int_const(5)), lt(y, x)
        assert svc.check_sat((a, b, c)) is SatResult.SAT
        assert svc.check_sat((a, c)) is SatResult.SAT
        assert svc.stats.full_solves == 1
        assert svc.stats.subset_hits + svc.stats.model_eval_hits >= 1

    def test_superset_of_unsat_core_answers_unsat(self):
        svc = SolverService()
        a, b = gt(x, int_const(3)), lt(x, int_const(4))
        assert svc.check_sat((a, b)) is SatResult.UNSAT
        assert svc.check_sat((a, b, lt(y, z))) is SatResult.UNSAT
        assert svc.stats.superset_hits == 1
        assert svc.stats.full_solves == 1

    def test_model_eval_tier_extends_prefix(self):
        """KLEE-style: a cached model that happens to satisfy a *new*
        conjunct answers SAT without solving."""
        svc = SolverService()
        assert svc.check_sat((gt(x, int_const(10)),)) is SatResult.SAT
        # x > 10 in any model also has x > 0: not a subset (different key,
        # new conjunct), but the cached model evaluates it true.
        assert svc.check_sat((gt(x, int_const(10)), gt(x, int_const(0)))) is (
            SatResult.SAT
        )
        assert svc.stats.full_solves == 1
        assert svc.stats.model_eval_hits == 1

    def test_cache_disabled_always_solves(self):
        svc = SolverService(cache_enabled=False)
        query = (gt(x, int_const(0)),)
        assert svc.check_sat(query) is SatResult.SAT
        assert svc.check_sat(query) is SatResult.SAT
        assert svc.stats.full_solves == 2
        assert svc.stats.cache_hits == 0


class _Sink:
    """Where the recording models of one query write their evaluations."""

    log: list = []


class _RecordingModel:
    """A model that logs each top-level ``(conjunct, model)`` evaluation;
    ``satisfies`` is :class:`Model`'s own, so the scan oracle logs too."""

    satisfies = Model.satisfies

    def __init__(self, model: Model) -> None:
        self._model = model

    def eval(self, term):
        _Sink.log.append((term, self))
        return self._model.eval(term)


ARRAY = array_sort(INT, INT)
#: Model.eval raises SortError on array equality: it must count as false.
ILL_SORTED = eq(var("arr_a", ARRAY), var("arr_b", ARRAY))
INDEX_CONJUNCTS = [
    p, not_(p), q, not_(q), gt(x, int_const(0)), le(x, int_const(1)),
    lt(x, y), le(y, z), eq(x, z), gt(z, int_const(-2)), or_(p, lt(y, int_const(0))),
    and_(q, le(z, int_const(2))), ILL_SORTED,
]


class TestModelEvalIndex:
    """``_Shard.find_model`` (the model-eval index) against the plain
    newest-first ``Model.satisfies`` scan: same model returned, and no
    ``(conjunct, model)`` pair evaluated that the scan would not
    evaluate, nor any pair evaluated twice while its model is live."""

    @staticmethod
    def _scan(shard, conjuncts):
        return next(
            (m for m in reversed(shard.models) if m.satisfies(conjuncts)), None
        )

    @staticmethod
    def _model(rng):
        return _RecordingModel(
            Model(
                {p: rng.random() < 0.5, q: rng.random() < 0.5},
                {v: rng.randint(-3, 3) for v in (x, y, z)},
                {},
                {},
            )
        )

    def _run(self, shard, seed, steps):
        rng = random.Random(seed)
        index_pairs: set = set()
        recorded = hits = 0
        for _ in range(steps):
            if rng.random() < 0.3:
                recorded += 1
                key = frozenset([gt(x, int_const(recorded))])
                shard.record(key, True, self._model(rng))
                continue
            conjuncts = frozenset(
                rng.sample(INDEX_CONJUNCTS, rng.randint(1, 4))
            )
            _Sink.log = scan_log = []
            expected = self._scan(shard, conjuncts)
            _Sink.log = index_log = []
            found = shard.find_model(conjuncts)
            assert found is expected
            hits += found is not None
            assert set(index_log) <= set(scan_log)
            assert len(set(index_log)) == len(index_log)
            assert not index_pairs & set(index_log)
            index_pairs |= set(index_log)
        return recorded, hits

    @pytest.mark.parametrize("seed", range(8))
    def test_index_agrees_with_the_scan(self, seed):
        recorded, hits = self._run(_Shard(), seed, 300)
        assert recorded and hits

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_wrap_around(self, seed):
        class SmallRing(_Shard):
            MAX_MODELS = 5

        shard = SmallRing()
        recorded, _ = self._run(shard, seed, 200)
        assert recorded > 3 * SmallRing.MAX_MODELS
        assert shard.model_serial == recorded

    def test_default_ring_wraps(self):
        shard = _Shard()
        recorded, _ = self._run(shard, 99, 4 * shard.MAX_MODELS)
        assert recorded > shard.MAX_MODELS

    def test_ill_sorted_conjunct_is_false_under_every_model(self):
        shard = _Shard()
        rng = random.Random(0)
        for serial in range(3):
            shard.record(frozenset([gt(x, int_const(serial))]), True, self._model(rng))
        assert shard.find_model(frozenset([ILL_SORTED])) is None
        known, false, _ = shard.evals[ILL_SORTED]
        assert known == false == 0b111

    def test_wholesale_eviction_clears_the_index(self):
        class Tiny(_Shard):
            MAX_EXACT = 4

        shard = Tiny()
        shard.record(frozenset([p]), True, self._model(random.Random(1)))
        _Sink.log = []
        shard.find_model(frozenset([q, gt(x, int_const(0))]))
        assert shard.evals
        for bound in range(Tiny.MAX_EXACT):
            shard.put(frozenset([lt(x, int_const(bound))]), True)
        assert shard.resets == 1
        assert shard.evals == {}


class TestBudgetSharding:
    def test_no_reuse_across_budgets(self):
        svc = SolverService()
        query = (gt(x, int_const(0)), lt(x, int_const(7)))
        assert svc.check_sat(query, int_budget=4000) is SatResult.SAT
        assert svc.check_sat(query, int_budget=8000) is SatResult.SAT
        assert svc.stats.full_solves == 2  # second budget: fresh shard
        assert svc.check_sat(query, int_budget=4000) is SatResult.SAT
        assert svc.check_sat(query, int_budget=8000) is SatResult.SAT
        assert svc.stats.full_solves == 2  # now both shards are warm

    def test_unknown_never_cached(self, monkeypatch):
        svc = SolverService()
        calls = []

        def fake_solve(conjuncts, int_budget, corrupt=False):
            calls.append(conjuncts)
            svc.stats.full_solves += 1
            return SatResult.UNKNOWN, None

        monkeypatch.setattr(svc, "_solve", fake_solve)
        query = (gt(x, int_const(0)),)
        assert svc.check_sat(query) is SatResult.UNKNOWN
        assert svc.check_sat(query) is SatResult.UNKNOWN
        assert len(calls) == 2  # no caching of UNKNOWN
        assert all(not shard.exact for shard in svc._shards.values())


class TestCacheVersion:
    """``cache_version`` moves with every write ``export_cache`` reads and
    with nothing else — the store's "anything to save?" check."""

    def test_answers_from_the_cache_leave_the_version(self):
        svc = SolverService()
        query = (gt(x, int_const(0)), lt(x, int_const(5)))
        start = svc.cache_version()
        svc.check_sat(query)
        solved = svc.cache_version()
        assert solved > start
        svc.check_sat(query)  # exact hit
        svc.check_sat((false(),))  # syntactic tier
        assert svc.cache_version() == solved

    def test_imports_move_it_only_when_they_add(self):
        source = SolverService()
        source.check_sat((gt(x, int_const(3)), lt(x, int_const(4))))
        source.check_sat((gt(y, int_const(0)),))
        svc = SolverService()
        start = svc.cache_version()
        assert svc.import_cache(source.export_cache()) == 2
        imported = svc.cache_version()
        assert imported > start
        assert svc.import_cache(source.export_cache()) == 0
        assert svc.cache_version() == imported

    def test_reset_and_eviction_move_it(self, monkeypatch):
        svc = SolverService()
        svc.check_sat((gt(x, int_const(0)),))
        before = svc.cache_version()
        svc.reset()
        assert svc.cache_version() > before
        monkeypatch.setattr(_Shard, "MAX_EXACT", 1)
        svc.check_sat((gt(x, int_const(0)),))
        filled = svc.cache_version()
        svc.check_sat((gt(y, int_const(0)),))  # evicts, then inserts
        assert svc.cache_version() > filled


class TestGlobalService:
    def test_one_shot_helpers_route_through_service(self):
        svc = smt.reset_service()
        assert smt.is_satisfiable(gt(x, int_const(0)))
        assert smt.is_valid(or_(p, not_(p)))
        assert svc.stats.queries == 2
        assert smt.get_service() is svc
        smt.reset_service()

    def test_set_service(self):
        mine = SolverService(cache_enabled=False)
        try:
            assert smt.set_service(mine) is mine
            assert smt.get_service() is mine
        finally:
            smt.reset_service()


# ---------------------------------------------------------------------------
# Property: cached answers equal a cold solver (all tiers)
# ---------------------------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(formulas(2), min_size=1, max_size=4), st.data())
def test_cached_answers_match_cold_solver(conjuncts, data):
    svc = SolverService()
    cold = cold_verdict(*conjuncts)
    assert svc.check_sat(conjuncts) is cold
    # Repeat: exact tier must agree.
    assert svc.check_sat(conjuncts) is cold
    # A random subset: subset/model tiers must agree with a cold solver.
    subset = data.draw(st.lists(st.sampled_from(conjuncts), max_size=len(conjuncts)))
    assert svc.check_sat(subset) is cold_verdict(*subset)
    # A random superset: superset/model tiers must agree with a cold solver.
    extra = data.draw(formulas(1))
    superset = conjuncts + [extra]
    assert svc.check_sat(superset) is cold_verdict(*superset)


@settings(max_examples=40, deadline=None)
@given(st.lists(formulas(2), min_size=1, max_size=3))
def test_warm_service_matches_cold_across_queries(conjuncts):
    """One long-lived service across many random queries (the production
    shape) must still answer exactly like cold solvers."""
    svc = _WARM_SERVICE
    assert svc.check_sat(conjuncts) is cold_verdict(*conjuncts)


_WARM_SERVICE = SolverService()


# Atoms over variables that never occur in ATOMS: a warm model has no
# assignment for them, so the model-eval tier must fall back to its
# total-interpretation defaults (0 / False) — and stay sound doing so.
f1 = var("fresh_i1", INT)
f2 = var("fresh_i2", INT)
fp = var("fresh_b", BOOL)

FRESH_ATOMS = [
    fp,
    not_(fp),
    le(f1, int_const(0)),
    lt(int_const(0), f1),
    eq(f1, f2),
    eq(f2, smt.add(x, int_const(1))),
    lt(f1, y),
    eq(f1, int_const(-3)),
]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(formulas(2), min_size=1, max_size=3),
    st.lists(st.sampled_from(FRESH_ATOMS), min_size=1, max_size=3),
)
def test_model_eval_tier_sound_for_fresh_variables(warm_conjuncts, fresh_conjuncts):
    """Pin the model-eval tier against a cold solver on queries containing
    variables the cached models have never seen.

    Cached models are *total* interpretations (unassigned variables read
    as 0/False), so a model-eval hit on a query with fresh variables is
    still a genuine witness — this property keeps that argument honest.
    """
    svc = SolverService()
    # Warm the cache so later queries can hit the model-eval tier.
    svc.check_sat(warm_conjuncts)
    mixed = warm_conjuncts + fresh_conjuncts
    assert svc.check_sat(mixed) is cold_verdict(*mixed)
    # The fresh conjuncts alone must also agree.
    assert svc.check_sat(fresh_conjuncts) is cold_verdict(*fresh_conjuncts)


def test_model_eval_hit_with_fresh_variable_is_correct():
    """Directed: a fresh variable satisfied by the default value 0 may hit
    the model-eval tier, and the verdict must match a cold solver."""
    svc = SolverService()
    warm = [gt(x, int_const(0))]
    assert svc.check_sat(warm) is SatResult.SAT
    fresh = var("model_eval_fresh", INT)
    query = warm + [le(fresh, int_const(0))]  # 0 satisfies the default
    assert svc.check_sat(query) is cold_verdict(*query) is SatResult.SAT
    # And one the default value falsifies: no hit, full solve, still right.
    query2 = warm + [lt(int_const(0), fresh)]
    assert svc.check_sat(query2) is cold_verdict(*query2) is SatResult.SAT


def test_model_eval_never_crosses_budget_shards():
    """A model cached under one int_budget is never consulted for a query
    under another: shards keep budget-dependent UNKNOWNs honest."""
    svc = SolverService()
    formula = gt(x, int_const(0))
    assert svc.check_sat([formula], int_budget=2000) is SatResult.SAT
    hits_before = svc.stats.model_eval_hits
    assert svc.check_sat([formula, le(y, x)], int_budget=4000) is SatResult.SAT
    assert svc.stats.model_eval_hits == hits_before


@pytest.mark.parametrize("budget", [2000, 4000])
def test_model_method_matches_condition(budget):
    svc = SolverService()
    condition = and_(gt(x, int_const(100)), lt(x, int_const(200)))
    model = svc.model(condition, int_budget=budget)
    assert 100 < model.eval(x) < 200
    # Second call may reuse the cached model but must stay correct.
    model2 = svc.model(condition, int_budget=budget)
    assert 100 < model2.eval(x) < 200
