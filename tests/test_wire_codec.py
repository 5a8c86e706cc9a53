"""The term wire codec (``terms.to_wire`` / ``from_wire``).

Terms hash by identity under hash-consing, so they cannot cross a
process boundary as pickles; the wire format ships a structure-shared
post-order node table and re-interns on receipt.  The contract the
parallel engine relies on: decoding in the *same* process returns the
identical interned object — ``from_wire(to_wire(t)) is t`` — and
decoding in any process yields a term that renders and solves the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt.terms import (
    FuncDecl,
    from_wire,
    from_wire_many,
    to_wire,
    to_wire_many,
)

INT_VARS = [smt.var(name, smt.INT) for name in ("i", "j", "k")]
BOOL_VARS = [smt.var(name, smt.BOOL) for name in ("a", "b")]


def int_terms(depth: int):
    leaves = st.one_of(
        st.sampled_from(INT_VARS),
        st.integers(min_value=-8, max_value=8).map(smt.int_const),
    )
    if depth == 0:
        return leaves
    sub_terms = int_terms(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub_terms, sub_terms).map(lambda t: smt.add(*t)),
        st.tuples(sub_terms, sub_terms).map(lambda t: smt.sub(*t)),
        sub_terms.map(smt.neg),
        st.tuples(st.integers(-3, 3), sub_terms).map(
            lambda t: smt.mul(smt.int_const(t[0]), t[1])
        ),
    )


def bool_terms(depth: int):
    atoms = st.one_of(
        st.sampled_from(BOOL_VARS),
        st.just(smt.true()),
        st.just(smt.false()),
        st.tuples(int_terms(1), int_terms(1)).map(lambda t: smt.le(*t)),
        st.tuples(int_terms(1), int_terms(1)).map(lambda t: smt.lt(*t)),
        st.tuples(int_terms(1), int_terms(1)).map(lambda t: smt.eq(*t)),
    )
    if depth == 0:
        return atoms
    sub_terms = bool_terms(depth - 1)
    return st.one_of(
        atoms,
        sub_terms.map(smt.not_),
        st.tuples(sub_terms, sub_terms).map(lambda t: smt.and_(*t)),
        st.tuples(sub_terms, sub_terms).map(lambda t: smt.or_(*t)),
        st.tuples(sub_terms, sub_terms).map(lambda t: smt.implies(*t)),
        st.tuples(sub_terms, int_terms(1), int_terms(1)).map(
            lambda t: smt.eq(smt.ite(*t), smt.int_const(0))
        ),
    )


class TestRoundTrip:
    @given(bool_terms(3))
    @settings(max_examples=200, deadline=None)
    def test_same_process_round_trip_is_identity(self, term):
        assert from_wire(to_wire(term)) is term

    @given(int_terms(3))
    @settings(max_examples=100, deadline=None)
    def test_int_terms_round_trip(self, term):
        assert from_wire(to_wire(term)) is term

    @given(st.lists(bool_terms(2), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_many_preserves_order_and_identity(self, terms):
        back = from_wire_many(to_wire_many(terms))
        assert len(back) == len(terms)
        assert all(a is b for a, b in zip(back, terms))

    def test_arrays_and_uninterpreted_functions(self):
        i, j = INT_VARS[0], INT_VARS[1]
        mem = smt.var("mem", smt.array_sort(smt.INT, smt.INT))
        stored = smt.store(mem, i, smt.add(j, smt.int_const(1)))
        f = FuncDecl("f", (smt.INT, smt.INT), smt.INT)
        term = smt.and_(
            smt.eq(smt.select(stored, j), smt.apply_func(f, i, j)),
            smt.lt(smt.apply_func(f, j, i), smt.int_const(9)),
        )
        assert from_wire(to_wire(term)) is term


    def test_sorts_survive_the_pickled_wire_as_identical_objects(self):
        import pickle

        widget = smt.Sort("Widget")
        mem = smt.var("mem", smt.array_sort(smt.INT, widget))
        f = FuncDecl("g", (widget,), smt.BOOL)
        terms = [
            smt.apply_func(f, smt.select(mem, INT_VARS[0])),
            smt.eq(smt.var("w", widget), smt.var("v", widget)),
        ]
        back = from_wire_many(pickle.loads(pickle.dumps(to_wire_many(terms))))
        assert all(a is b for a, b in zip(back, terms))
        assert back[1].args[0].sort is widget
        assert back[0].args[0].args[0].sort is smt.array_sort(smt.INT, widget)


class TestStructureSharing:
    def test_shared_subterms_encoded_once(self):
        i = INT_VARS[0]
        shared = smt.add(i, smt.int_const(2))
        term = smt.and_(
            smt.lt(shared, smt.int_const(5)), smt.eq(shared, shared)
        )
        nodes, roots = to_wire(term) if False else to_wire_many([term])
        # 'shared' contributes its spine exactly once: i, 2, i+2, 5,
        # lt, eq, and — seven nodes, not the nine a tree walk would emit.
        assert len(nodes) == 7
        assert roots == [len(nodes) - 1]

    def test_sharing_across_roots(self):
        i, j = INT_VARS[0], INT_VARS[1]
        common = smt.le(i, j)
        wire = to_wire_many([common, smt.not_(common), common])
        nodes, roots = wire
        assert len(nodes) == 4  # i, j, le, not
        back = from_wire_many(wire)
        assert back[0] is common and back[2] is common

    def test_empty_many(self):
        assert from_wire_many(to_wire_many([])) == []


class TestErrors:
    def test_from_wire_rejects_multiple_roots(self):
        import pytest

        wire = to_wire_many([smt.true(), smt.false()])
        with pytest.raises(smt.SortError):
            from_wire(wire)


class TestSemanticTransparency:
    """A decoded term is the same formula: the solver agrees with the
    original verdict (this is what makes shipped cache deltas safe)."""

    @given(bool_terms(2))
    @settings(max_examples=50, deadline=None)
    def test_verdict_survives_round_trip(self, term):
        decoded = from_wire(to_wire(term))
        assert smt.is_satisfiable(decoded) == smt.is_satisfiable(term)
