"""Unit tests for sorts and hash-consed term construction."""

import pytest

from repro.smt import (
    BOOL,
    INT,
    FuncDecl,
    SortError,
    add,
    and_,
    apply_func,
    array_sort,
    bool_const,
    distinct,
    eq,
    false,
    ge,
    gt,
    iff,
    int_const,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    select,
    store,
    sub,
    true,
    var,
)
from repro.smt.terms import Kind, Sort


class TestSortInterning:
    def test_constructor_returns_the_canonical_instance(self):
        assert Sort("Int") is INT
        assert Sort("Bool") is BOOL
        assert Sort("Widget") is Sort("Widget")
        assert Sort("Widget") is not Sort("Gadget")

    def test_array_sorts_are_shared(self):
        assert array_sort(INT, INT) is array_sort(INT, INT)
        assert array_sort(INT, BOOL) is not array_sort(INT, INT)
        nested = array_sort(INT, array_sort(INT, BOOL))
        assert nested is Sort("Array", [INT, array_sort(INT, BOOL)])
        assert nested.elem_sort is array_sort(INT, BOOL)

    def test_pickle_and_copy_preserve_identity(self):
        import copy
        import pickle

        for sort in (INT, BOOL, Sort("Widget"), array_sort(INT, INT)):
            assert pickle.loads(pickle.dumps(sort)) is sort
            assert copy.deepcopy(sort) is sort
        decl = FuncDecl("f", (INT, array_sort(INT, BOOL)), BOOL)
        assert pickle.loads(pickle.dumps(decl)).arg_sorts[1] is (
            array_sort(INT, BOOL)
        )

    def test_sorts_are_immutable_and_keep_their_repr(self):
        with pytest.raises(AttributeError):
            INT.name = "Real"
        assert repr(INT) == "Sort(name='Int', params=())"
        assert str(array_sort(INT, BOOL)) == "Array(Int, Bool)"


class TestHashConsing:
    def test_identical_constants_are_shared(self):
        assert int_const(42) is int_const(42)
        assert true() is bool_const(True)
        assert false() is bool_const(False)

    def test_identical_variables_are_shared(self):
        assert var("x", INT) is var("x", INT)

    def test_same_name_different_sort_not_shared(self):
        assert var("x", INT) is not var("x", BOOL)

    def test_compound_terms_are_shared(self):
        x, y = var("x", INT), var("y", INT)
        assert add(x, y) is add(x, y)
        assert add(x, y) is not add(y, x)

    def test_terms_are_immutable(self):
        x = var("x", INT)
        with pytest.raises(AttributeError):
            x.kind = Kind.ADD


class TestSortChecking:
    def test_add_rejects_bool(self):
        with pytest.raises(SortError):
            add(var("p", BOOL), int_const(1))

    def test_not_rejects_int(self):
        with pytest.raises(SortError):
            not_(int_const(1))

    def test_eq_requires_matching_sorts(self):
        with pytest.raises(SortError):
            eq(var("x", INT), var("p", BOOL))

    def test_ite_requires_matching_branches(self):
        with pytest.raises(SortError):
            ite(true(), int_const(1), true())

    def test_ite_requires_bool_condition(self):
        with pytest.raises(SortError):
            ite(int_const(1), int_const(1), int_const(2))

    def test_select_checks_index_sort(self):
        mem = var("m", array_sort(INT, INT))
        with pytest.raises(SortError):
            select(mem, true())

    def test_store_checks_value_sort(self):
        mem = var("m", array_sort(INT, INT))
        with pytest.raises(SortError):
            store(mem, int_const(0), true())

    def test_select_of_non_array_rejected(self):
        with pytest.raises(SortError):
            select(var("x", INT), int_const(0))

    def test_func_decl_arity_checked(self):
        f = FuncDecl("f", (INT, INT), INT)
        with pytest.raises(SortError):
            apply_func(f, int_const(1))

    def test_func_decl_arg_sorts_checked(self):
        f = FuncDecl("f", (INT,), BOOL)
        with pytest.raises(SortError):
            apply_func(f, true())

    def test_int_const_rejects_bool(self):
        with pytest.raises(SortError):
            int_const(True)

    def test_distinct_mixed_sorts_rejected(self):
        with pytest.raises(SortError):
            distinct(var("x", INT), true())


class TestConstructors:
    def test_sub_is_add_of_neg(self):
        x, y = var("x", INT), var("y", INT)
        term = sub(x, y)
        assert term.kind is Kind.ADD
        assert term.args[1].kind is Kind.NEG

    def test_ge_gt_swap_arguments(self):
        x, y = var("x", INT), var("y", INT)
        assert ge(x, y) is le(y, x)
        assert gt(x, y) is lt(y, x)

    def test_empty_and_or(self):
        assert and_().is_true
        assert or_().is_false

    def test_single_argument_collapses(self):
        p = var("p", BOOL)
        assert and_(p) is p
        assert or_(p) is p

    def test_distinct_single_is_true(self):
        assert distinct(var("x", INT)).is_true

    def test_sorts_of_results(self):
        x = var("x", INT)
        mem = var("m", array_sort(INT, INT))
        assert eq(x, x).sort == BOOL
        assert select(mem, x).sort == INT
        assert store(mem, x, x).sort == mem.sort
        assert iff(true(), false()).sort == BOOL

    def test_func_decl_call_syntax(self):
        f = FuncDecl("f", (INT,), INT)
        assert f(int_const(1)) is apply_func(f, int_const(1))


class TestTraversalAndPrinting:
    def test_subterms_visits_each_once(self):
        x = var("x", INT)
        term = add(x, x)
        subs = list(term.subterms())
        assert len(subs) == 2  # the add node and x, shared

    def test_str_roundtrips_structure(self):
        x = var("x", INT)
        assert str(add(x, int_const(1))) == "(x + 1)"
        assert str(not_(true())) == "(not true)"
        assert "ite" in str(ite(var("p", BOOL), x, int_const(0)))
