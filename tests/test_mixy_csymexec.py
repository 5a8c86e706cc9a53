"""Tests for the mini-C symbolic executor (Otter substitute)."""

import pytest

from repro import smt
from repro.mixy.c import parse_program
from repro.mixy.c.ast import INT_T
from repro.mixy.symexec import CErrKind, CSymConfig, CSymExecutor


def run_function(source, name, make_args=None, config=None):
    program = parse_program(source)
    executor = CSymExecutor(program, config)
    fn = program.functions[name]
    args = make_args(executor) if make_args else []
    results = list(executor.execute_function(fn, args, executor.initial_state()))
    return executor, results


class TestValuesAndControl:
    def test_concrete_arithmetic(self):
        _, results = run_function("int f(void) { return 2 + 3 * 4; }", "f")
        assert [str(r.ret) for r in results] == ["14"]

    def test_locals_and_assignment(self):
        src = "int f(void) { int x = 5; x = x + 1; return x; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(6)

    def test_if_forks_on_symbolic(self):
        src = "int f(int c) { if (c) { return 1; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("c")]
        )
        assert sorted(str(r.ret) for r in results) == ["0", "1"]
        assert ex.stats["forks"] == 1

    def test_concrete_condition_no_fork(self):
        src = "int f(void) { int c = 1; if (c) { return 1; } return 0; }"
        ex, results = run_function(src, "f")
        assert len(results) == 1 and results[0].ret is smt.int_const(1)

    def test_infeasible_branch_pruned(self):
        src = """
        int f(int c) {
          if (c > 0) {
            if (c < 0) { return 99; }
            return 1;
          }
          return 0;
        }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        assert "99" not in {str(r.ret) for r in results}

    def test_while_loop_concrete(self):
        src = """
        int f(void) {
          int i = 0; int acc = 0;
          while (i < 5) { acc = acc + i; i = i + 1; }
          return acc;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(10)

    def test_loop_bound_warns(self):
        src = "void f(int n) { int i = 0; while (i < n) { i = i + 1; } }"
        ex, _results = run_function(
            src,
            "f",
            make_args=lambda e: [e.fresh_symbol("n")],
            config=CSymConfig(max_loop_unroll=4),
        )
        assert any(w.kind is CErrKind.LOOP_BOUND for w in ex.warnings)

    def test_logical_and_or(self):
        src = "int f(int a, int b) { return (a && b) || !a; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("a"), e.fresh_symbol("b")]
        )
        assert results  # evaluates without forking (conditions are terms)


class TestNullDereference:
    def test_definite_null_deref(self):
        src = "int f(void) { int *p = NULL; return *p; }"
        ex, results = run_function(src, "f")
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        assert results == []  # the path dies at the error

    def test_maybe_null_deref(self):
        src = "int f(int *p) { return *p; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("p")]
        )
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        # Execution continues on the non-null resolution.
        assert len(results) == 1

    def test_null_check_is_respected(self):
        """Path sensitivity: no warning under `if (p != NULL)`."""
        src = "int f(int *p) { if (p != NULL) { return *p; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("p")]
        )
        assert not any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        assert len(results) == 2

    def test_null_overwritten_before_deref(self):
        """Flow sensitivity: NULL then malloc then deref is clean — the
        paper's x->obj = NULL; x->obj = malloc(...) idiom."""
        src = """
        struct box { int *obj; };
        int f(void) {
          struct box b;
          b.obj = NULL;
          b.obj = (int *) malloc(sizeof(int));
          return *(b.obj);
        }
        """
        ex, results = run_function(src, "f")
        assert not any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)

    def test_write_through_null(self):
        src = "void f(void) { int *p = NULL; *p = 1; }"
        ex, _ = run_function(src, "f")
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)

    def test_warnings_deduplicated(self):
        src = """
        int f(int c) {
          int *p = NULL;
          if (c) { return *p; }
          return *p;
        }
        """
        ex, _ = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        null_warnings = [w for w in ex.warnings if w.kind is CErrKind.NULL_DEREF]
        assert len(null_warnings) == 1  # same description, reported once


class TestMemoryModel:
    def test_struct_fields_are_separate_cells(self):
        src = """
        struct pair { int a; int b; };
        int f(void) {
          struct pair p;
          p.a = 1;
          p.b = 2;
          return p.a + p.b;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(3)

    def test_pointer_to_local(self):
        src = "int f(void) { int x = 7; int *p = &x; *p = 8; return x; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(8)

    def test_double_pointer_update(self):
        src = """
        void clear(int **pp) { *pp = NULL; }
        int f(void) {
          int x = 3;
          int *p = &x;
          clear(&p);
          return p == NULL;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(1)

    def test_lazy_materialization(self):
        """Dereferencing an unconstrained pointer materializes an object
        (paper Section 4.2's lazy initialization)."""
        src = "int f(int **pp) { if (pp != NULL) { return **pp; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("pp")]
        )
        assert ex.stats["lazy_objects"] >= 1

    def test_malloc_is_nonnull(self):
        src = "int f(void) { int *p = (int *) malloc(sizeof(int)); return p == NULL; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(0)


class TestCalls:
    def test_inline_call(self):
        src = """
        int add(int a, int b) { return a + b; }
        int f(void) { return add(2, 3); }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(5)

    def test_callee_forks_propagate(self):
        src = """
        int sign(int x) { if (x < 0) { return 0 - 1; } return 1; }
        int f(int x) { return sign(x); }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("x")])
        assert len(results) == 2

    def test_recursion_depth_capped(self):
        src = "int f(int n) { return f(n); }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("n")],
            config=CSymConfig(max_call_depth=4),
        )
        assert any(w.kind is CErrKind.RECURSION for w in ex.warnings)

    def test_extern_call_havocs(self):
        src = """
        int external_thing(int x);
        int f(void) { return external_thing(1); }
        """
        _, results = run_function(src, "f")
        assert len(results) == 1 and not results[0].ret.is_const

    def test_function_pointer_known_targets(self):
        src = """
        int h1(void) { return 1; }
        int h2(void) { return 2; }
        int f(int c) {
          int (*h)(void);
          h = h1;
          if (c) { h = h2; }
          return h();
        }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        assert sorted(str(r.ret) for r in results) == ["1", "2"]

    def test_symbolic_function_pointer_unsupported(self):
        """Case 4's mechanism: an opaque function pointer cannot be called."""
        src = """
        void f(void (*h)(void)) { h(); }
        """
        ex, _ = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("h")])
        assert any(w.kind is CErrKind.UNSUPPORTED for w in ex.warnings)


class TestBlockScope:
    """Fresh symbols and addresses are named per hint, per block scope."""

    def _executor(self):
        return CSymExecutor(parse_program("int f(void) { return 0; }"))

    def test_scope_restarts_names_and_addresses_per_hint(self):
        ex = self._executor()
        ex.fresh_symbol("x")
        ex.allocate_object(ex.initial_state(), INT_T, "outer")
        runs = []
        for _ in range(2):
            with ex.block_scope():
                _, obj = ex.allocate_object(ex.initial_state(), INT_T, "cell")
                runs.append((ex.fresh_symbol("x"), ex.fresh_symbol("y"),
                             ex.fresh_symbol("x"), obj.base))
        assert runs[0] == runs[1]
        assert [str(t) for t in runs[0][:3]] == ["x!1", "y!1", "x!2"]

    def test_scope_exit_restores_the_enclosing_counters(self):
        ex = self._executor()
        assert [str(ex.fresh_symbol("x")) for _ in range(3)] == [
            "x!1", "x!2", "x!3"
        ]
        for label in ("a", "b"):
            _, before = ex.allocate_object(ex.initial_state(), INT_T, label)
        with pytest.raises(RuntimeError):
            with ex.block_scope():
                ex.fresh_symbol("x")
                ex.allocate_object(ex.initial_state(), INT_T, "inner")
                raise RuntimeError("block crashed")
        assert str(ex.fresh_symbol("x")) == "x!4"
        _, after = ex.allocate_object(ex.initial_state(), INT_T, "c")
        assert after.base == before.base + 1
