"""Tests for the MIXY driver: the four paper cases and the §4.1-4.4
machinery (translation, fixpoint, caching, recursion, aliasing)."""

import pytest

from repro.mixy import Mixy, MixyConfig
from repro.mixy.corpus import CASES, combined_program
from repro.mixy.qual import QualConfig
from repro.mixy.symexec import CSymConfig


def run_case(name, annotated, config=None):
    case = CASES[name]
    mixy = Mixy(case.source(annotated), config)
    warnings = mixy.run(entry="typed", entry_function="main")
    return mixy, warnings


class TestPaperCases:
    """Each case: pure inference warns (false positive); the paper's MIX
    annotations eliminate the warning — the headline result of §4.5."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_unannotated_warns(self, name):
        _, warnings = run_case(name, annotated=False)
        assert warnings, f"{name}: expected a false positive without annotations"
        marker = CASES[name].warning_marker
        assert any(marker in str(w) for w in warnings)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_annotated_is_clean(self, name):
        _, warnings = run_case(name, annotated=True)
        assert warnings == [], f"{name}: {[str(w) for w in warnings]}"

    def test_case1_warning_is_flow_insensitivity(self):
        _, warnings = run_case("case1", annotated=False)
        text = " ".join(str(w) for w in warnings)
        assert "p_sock" in text and "sysutil_free" in text

    def test_case4_warning_is_function_pointer(self):
        """Without the typed extraction, the executor hits the symbolic
        function pointer (its 'limited support' per the paper)."""
        _, warnings = run_case("case4", annotated=False)
        assert any("function pointer" in str(w) for w in warnings)


class TestCombinedProgram:
    def test_no_annotations_warns(self):
        mixy = Mixy(combined_program(0))
        warnings = mixy.run()
        assert len(warnings) >= 1

    def test_two_blocks_clean(self):
        mixy = Mixy(combined_program(2))
        warnings = mixy.run()
        assert warnings == []

    def test_one_block_partial(self):
        """Annotating only sockaddr_clear leaves main_BLOCK's null source."""
        mixy = Mixy(combined_program(1))
        warnings = mixy.run()
        assert len(warnings) >= 1

    def test_distractors_are_clean(self):
        """The clean modules contribute no warnings of their own."""
        mixy = Mixy(combined_program(2))
        warnings = mixy.run()
        assert not any("buf" in str(w) or "vsf_" in str(w) for w in warnings)

    def test_more_blocks_cost_more(self):
        """The §4.6 observation: each added symbolic block increases the
        solver work (absolute times are environment-specific; the shape
        must hold)."""
        calls = []
        for n in (0, 1, 2):
            mixy = Mixy(combined_program(n))
            mixy.run()
            calls.append(
                mixy.executor.stats["solver_calls"] + mixy.stats["symbolic_blocks_run"]
            )
        assert calls[0] < calls[1] < calls[2]


class TestFixpoint:
    def test_fixpoint_reanalyzes_blocks(self):
        """§4.1: a symbolic block analyzed before a null constraint is
        discovered must be re-analyzed once the constraint appears."""
        source = """
        void sysutil_free(void *nonnull p_ptr) MIX(typed);
        int *shared;
        void block_a(void) MIX(symbolic) {
          shared = NULL;
        }
        void block_b(void) MIX(symbolic) {
          sysutil_free(shared);
        }
        int main(void) {
          block_b();
          block_a();
          return 0;
        }
        """
        mixy = Mixy(source)
        warnings = mixy.run()
        # block_b initially sees the optimistic nonnull for `shared`;
        # after block_a constrains it null, re-analysis finds the error.
        assert mixy.stats["fixpoint_iterations"] >= 2
        assert any("sysutil_free" in str(w) for w in warnings)

    def test_fixpoint_terminates_when_stable(self):
        mixy = Mixy(CASES["case1"].source(True))
        mixy.run()
        assert mixy.stats["fixpoint_iterations"] <= mixy.config.max_fixpoint_iters


class TestCaching:
    TWO_CALLERS = """
    void sysutil_free(void *nonnull p_ptr) MIX(typed);
    void helper(int *p) MIX(symbolic) {
      if (p != NULL) { sysutil_free(p); }
    }
    void caller_a(void) { helper((int *) malloc(sizeof(int))); }
    void caller_b(void) { helper((int *) malloc(sizeof(int))); }
    int main(void) { caller_a(); caller_b(); return 0; }
    """

    def test_cache_hits_on_compatible_contexts(self):
        mixy = Mixy(self.TWO_CALLERS)
        mixy.run()
        assert mixy.stats["cache_hits"] >= 1
        # cache_hits also counts typed-block hits: only fewer symbolic
        # block runs show that the symbolic-block cache (§4.3) hit.
        uncached = Mixy(self.TWO_CALLERS, MixyConfig(enable_cache=False))
        uncached.run()
        assert (
            mixy.stats["symbolic_blocks_run"]
            < uncached.stats["symbolic_blocks_run"]
        )

    def test_cache_disabled_reruns(self):
        config = MixyConfig(enable_cache=False)
        mixy = Mixy(self.TWO_CALLERS, config)
        mixy.run()
        assert mixy.stats["cache_hits"] == 0
        assert mixy.stats["symbolic_blocks_run"] >= 2

    def test_cache_does_not_change_verdict(self):
        w_on = Mixy(self.TWO_CALLERS).run()
        w_off = Mixy(self.TWO_CALLERS, MixyConfig(enable_cache=False)).run()
        assert [str(w) for w in w_on] == [str(w) for w in w_off]


class TestRecursion:
    MUTUAL = """
    void sysutil_free(void *nonnull p_ptr) MIX(typed);
    void ping(int *p, int n) MIX(symbolic);
    void pong(int *p, int n) MIX(typed) {
      ping(p, n - 1);
    }
    void ping(int *p, int n) MIX(symbolic) {
      if (n > 0) { pong(p, n); }
      if (p != NULL) { sysutil_free(p); }
    }
    int main(void) {
      ping((int *) malloc(sizeof(int)), 2);
      return 0;
    }
    """

    def test_recursive_blocks_terminate(self):
        """§4.4: typed and symbolic blocks calling each other must not
        switch indefinitely."""
        mixy = Mixy(self.MUTUAL)
        warnings = mixy.run()
        assert mixy.stats["recursion_detected"] >= 1
        assert warnings == []  # the guard makes the free safe


class TestSymbolicEntry:
    def test_whole_program_symbolic(self):
        source = """
        void sysutil_free(void *nonnull p_ptr) MIX(typed);
        int main(void) {
          int *p = NULL;
          sysutil_free(p);
          return 0;
        }
        """
        mixy = Mixy(source)
        warnings = mixy.run(entry="symbolic")
        assert any("sysutil_free" in str(w) for w in warnings)

    def test_globals_zero_initialized(self):
        """C semantics at a symbolic entry: an uninitialized global
        pointer is NULL."""
        source = """
        int *g;
        int main(void) { return *g; }
        """
        mixy = Mixy(source)
        warnings = mixy.run(entry="symbolic")
        assert any("NULL" in str(w) for w in warnings)

    def test_global_initializer_respected(self):
        source = """
        int cell;
        int *g = &cell;
        int main(void) { return *g; }
        """
        # &cell is not a supported static initializer shape; use fn address
        source = """
        void h(void) { }
        void (*g)(void) = h;
        int main(void) { g(); return 0; }
        """
        mixy = Mixy(source)
        warnings = mixy.run(entry="symbolic")
        assert warnings == []

    def test_invalid_entry_mode(self):
        with pytest.raises(ValueError):
            Mixy("int main(void) { return 0; }").run(entry="sideways")


class TestTranslationDetails:
    def test_maybe_null_param_tries_both(self):
        """A param solved `null` enters the block as ite(α, loc, 0): the
        executor explores the null path and warns at the deref."""
        source = """
        void seed(int **pp) { *pp = NULL; }
        int reader(int *p) MIX(symbolic) {
          return *p;
        }
        int main(void) {
          int *q = (int *) malloc(sizeof(int));
          seed(&q);
          return reader(q);
        }
        """
        mixy = Mixy(source)
        warnings = mixy.run()
        assert any("NULL" in str(w) for w in warnings)

    def test_nonnull_param_is_clean(self):
        source = """
        int reader(int *p) MIX(symbolic) {
          return *p;
        }
        int main(void) {
          int *q = (int *) malloc(sizeof(int));
          return reader(q);
        }
        """
        mixy = Mixy(source)
        assert mixy.run() == []

    def test_symbolic_block_null_result_flows_to_types(self):
        """§4.1 symbolic -> types: a block that nulls a watched cell
        constrains the corresponding slot."""
        source = """
        void sysutil_free(void *nonnull p_ptr) MIX(typed);
        void blank(int **pp) MIX(symbolic) { *pp = NULL; }
        int main(void) {
          int *p = (int *) malloc(sizeof(int));
          blank(&p);
          sysutil_free(p);
          return 0;
        }
        """
        mixy = Mixy(source)
        warnings = mixy.run()
        assert any("sysutil_free" in str(w) for w in warnings)

    def test_typed_call_return_qualifier(self):
        """A typed callee whose return may be NULL hands the symbolic
        block a maybe-null value (Case 2's mechanism)."""
        source = """
        char *lookup(int key) MIX(typed) {
          if (key == 0) { return NULL; }
          return "value";
        }
        int probe(int key) MIX(symbolic) {
          char *v = lookup(key);
          return *v;
        }
        int main(void) { return probe(1); }
        """
        mixy = Mixy(source)
        warnings = mixy.run()
        assert any("NULL" in str(w) for w in warnings)

    def test_typed_call_guarded_use_is_clean(self):
        source = """
        char *lookup(int key) MIX(typed) {
          if (key == 0) { return NULL; }
          return "value";
        }
        int probe(int key) MIX(symbolic) {
          char *v = lookup(key);
          if (v != NULL) { return *v; }
          return 0;
        }
        int main(void) { return probe(1); }
        """
        mixy = Mixy(source)
        assert mixy.run() == []
