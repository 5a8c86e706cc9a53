"""The paper's own evaluation claims (E2-E8 in EXPERIMENTS.md), grouped
by the section of the paper that makes them.

Each test keeps the inputs, constants and bounds of the experiment it
comes from; only the verdicts and counters are asserted, never wall
time.  The §4.5 case studies (E1) are asserted by
``tests/test_mixy_driver.py::TestPaperCases`` and the mini-vsftpd
schedule (E2') by ``tests/test_mixy_vsftpd.py::TestAnalysisProgression``.
"""

import pytest

from repro import smt
from repro.core import MixConfig, SoundnessMode, analyze_source
from repro.mixy import Mixy, MixyConfig
from repro.mixy.corpus import combined_program
from repro.symexec import IfStrategy, SymConfig
from repro.typecheck import TypeEnv
from repro.typecheck.types import BOOL, INT, FunType

# ---------------------------------------------------------------------------
# §2 — the motivating idioms (E3)
# ---------------------------------------------------------------------------

IDIOM_ENV = TypeEnv(
    {
        "x": INT,
        "p": BOOL,
        "f": FunType(INT, INT),
        "z": INT,
        "n": INT,
        "multithreaded": BOOL,
        "fork": INT,
        "lock": INT,
        "unlock": INT,
        "work1": INT,
        "work2": INT,
    }
)

# (name, plain source that one analysis alone rejects, or None where the
#  idiom is expressible only with blocks; mixed source with the paper's
#  block placement)
IDIOMS = [
    (
        "unreachable code",
        'if true then 5 else "foo" + 3',
        '{s if true then {t 5 t} else {t "foo" + 3 t} s}',
    ),
    (
        "flow-sensitive reuse",
        None,
        "{s let v = ref 1 in {t !v + 1 t}; v := 2; !v s}",
    ),
    (
        "null-then-malloc analog",
        None,
        "{s let v = ref 1 in v := 1 = 1; v := 7; {t !v + 1 t} s}",
    ),
    (
        "sign refinement",
        None,
        "{s if 0 < x then {t x + 1 t} else if x = 0 then {t 0 t} else {t 0 - x t} s}",
    ),
    (
        "helping symex: unknown function",
        "{s f 1 + 1 s}",
        "{s {t f 1 t} + 1 s}",
    ),
    (
        "helping symex: nonlinear operation",
        "{s z * z s}",
        "{s {t z * z t} s}",
    ),
    (
        "helping symex: long-running loop",
        "{s let i = ref 0 in while !i < n do i := !i + 1 done; !i s}",
        "{s {t let i = ref 0 in while !i < n do i := !i + 1 done; !i t} s}",
    ),
    (
        "intro: multithreaded fork/lock",
        None,
        """
        {s
          (if multithreaded then {t fork t} else {t 0 t});
          {t work1 t};
          (if multithreaded then {t lock t} else {t 0 t});
          {t work2 t};
          (if multithreaded then {t unlock t} else {t 0 t})
        s}
        """,
    ),
]


class TestSection2Idioms:
    @pytest.mark.parametrize("name,plain,mixed", IDIOMS, ids=[i[0] for i in IDIOMS])
    def test_mix_accepts_what_one_analysis_rejects(self, name, plain, mixed):
        report = analyze_source(mixed, env=IDIOM_ENV)
        assert report.ok, f"{name}: {report}"
        if plain is not None:
            bare = analyze_source(plain, env=IDIOM_ENV)
            assert not bare.ok, f"{name}: expected the un-mixed version to fail"


# ---------------------------------------------------------------------------
# §3.1 — deferral versus execution at conditionals (E4)
# ---------------------------------------------------------------------------


def _branches(k: int):
    """k independent branches summed: 2^k paths when forking."""
    source = "{s " + " + ".join(f"(if p{i} then 1 else 0)" for i in range(k)) + " s}"
    return source, TypeEnv({f"p{i}": BOOL for i in range(k)})


def _run_strategy(k: int, strategy: IfStrategy):
    source, env = _branches(k)
    config = MixConfig(sym=SymConfig(if_strategy=strategy, prune_infeasible=False))
    report = analyze_source(source, env=env, config=config)
    assert report.ok
    return report


class TestSection31ForkVersusDefer:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_fork_paths_exponential_defer_constant(self, k):
        fork = _run_strategy(k, IfStrategy.FORK)
        defer = _run_strategy(k, IfStrategy.DEFER)
        assert fork.stats["paths_explored"] == 2**k
        assert defer.stats["paths_explored"] == 1
        assert defer.stats["sym_merges"] == k


# ---------------------------------------------------------------------------
# §3.2 — sound (exhaustive) versus good-enough exploration (E6)
# ---------------------------------------------------------------------------

LOOP_ENV = TypeEnv({"n": INT})
BOUNDED_LOOP = "{s let i = ref 0 in while !i < 3 do i := !i + 1 done; !i s}"
UNBOUNDED_LOOP = "{s let i = ref 0 in while !i < n do i := !i + 1 done; !i s}"


def _run_mode(source: str, mode: SoundnessMode, unroll: int = 8):
    config = MixConfig(sym=SymConfig(max_loop_unroll=unroll), soundness=mode)
    return analyze_source(source, env=LOOP_ENV, config=config)


class TestSection32SoundVersusGoodEnough:
    def test_sound_mode_is_strict(self):
        assert _run_mode(BOUNDED_LOOP, SoundnessMode.SOUND).ok
        assert not _run_mode(UNBOUNDED_LOOP, SoundnessMode.SOUND).ok
        assert _run_mode(UNBOUNDED_LOOP, SoundnessMode.GOOD_ENOUGH).ok

    def test_good_enough_never_rejects_what_sound_accepts(self):
        for source in (BOUNDED_LOOP, UNBOUNDED_LOOP):
            if _run_mode(source, SoundnessMode.SOUND).ok:
                assert _run_mode(source, SoundnessMode.GOOD_ENOUGH).ok


# ---------------------------------------------------------------------------
# §4.3 — caching block results (E5)
# ---------------------------------------------------------------------------


def _call_sites(n_sites: int) -> str:
    callers = "\n".join(
        f"void caller_{i}(void) {{ helper((int *) malloc(sizeof(int))); }}"
        for i in range(n_sites)
    )
    calls = "\n".join(f"  caller_{i}();" for i in range(n_sites))
    return f"""
    void sysutil_free(void *nonnull p_ptr) MIX(typed);
    void helper(int *p) MIX(symbolic) {{
      if (p != NULL) {{ sysutil_free(p); }}
    }}
    {callers}
    int main(void) {{
    {calls}
      return 0;
    }}
    """


def _run_cached(n_sites: int, cache: bool):
    mixy = Mixy(_call_sites(n_sites), MixyConfig(enable_cache=cache))
    warnings = mixy.run()
    assert warnings == []
    return mixy


class TestSection43Caching:
    @pytest.mark.parametrize("n_sites", [1, 2, 4, 8])
    @pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
    def test_every_call_site_is_clean(self, n_sites, cache):
        _run_cached(n_sites, cache)

    def test_cache_reduces_block_runs(self):
        cached = _run_cached(6, cache=True)
        uncached = _run_cached(6, cache=False)
        assert cached.stats["cache_hits"] >= 1
        assert cached.stats["symbolic_blocks_run"] < uncached.stats["symbolic_blocks_run"]


# ---------------------------------------------------------------------------
# §4.4 — recursion between typed and symbolic blocks (E8)
# ---------------------------------------------------------------------------


def _mutual_recursion(chain: int) -> str:
    """A cycle of ``chain`` alternating typed/symbolic functions."""
    decls = []
    bodies = []
    for i in range(chain):
        mix = "MIX(symbolic)" if i % 2 == 0 else "MIX(typed)"
        decls.append(f"void step_{i}(int *p, int n) {mix};")
        bodies.append(
            f"""
            void step_{i}(int *p, int n) {mix} {{
              if (n > 0) {{ step_{(i + 1) % chain}(p, n - 1); }}
              if (p != NULL) {{ sysutil_free(p); }}
            }}
            """
        )
    return (
        "void sysutil_free(void *nonnull p_ptr) MIX(typed);\n"
        + "\n".join(decls)
        + "\n".join(bodies)
        + """
        int main(void) {
          step_0((int *) malloc(sizeof(int)), 3);
          return 0;
        }
        """
    )


class TestSection44Recursion:
    @pytest.mark.parametrize("chain", [2, 4, 6])
    def test_recursive_blocks_terminate_cleanly(self, chain):
        mixy = Mixy(_mutual_recursion(chain))
        warnings = mixy.run()
        assert warnings == []  # the null guard keeps every free safe
        assert mixy.stats["fixpoint_iterations"] <= mixy.config.max_fixpoint_iters


# ---------------------------------------------------------------------------
# §4.6 — cost versus the number of symbolic blocks (E2)
# ---------------------------------------------------------------------------


class TestSection46Cost:
    def test_cost_monotone_and_precision_improves(self):
        costs = []
        warnings_count = []
        for n in (0, 1, 2):
            mixy = Mixy(combined_program(n))
            warnings = mixy.run(entry="typed", entry_function="main")
            costs.append(
                mixy.executor.stats["solver_calls"]
                + 10 * mixy.stats["symbolic_blocks_run"]
            )
            warnings_count.append(len(warnings))
        assert costs[0] < costs[1] < costs[2], costs
        assert warnings_count == [2, 1, 0], warnings_count


# ---------------------------------------------------------------------------
# The SMT substrate on MIX's three query families (E7)
# ---------------------------------------------------------------------------

X = smt.var("x", smt.INT)
Y = smt.var("y", smt.INT)
MEM = smt.var("m", smt.array_sort(smt.INT, smt.INT))


class TestSmtSubstrate:
    def test_path_feasibility(self):
        sat = 0
        for i in range(20):
            formula = smt.and_(
                smt.gt(X, smt.int_const(i)),
                smt.lt(X, smt.int_const(i + 2)),
                smt.eq(smt.add(X, Y), smt.int_const(10)),
            )
            if smt.is_satisfiable(formula):
                sat += 1
        assert sat == 20

    @pytest.mark.parametrize("k", [4, 16])
    def test_exhaustiveness_tautology(self, k):
        # k-way integer split: x < 0, x = 0, ..., x = k-2, x >= k-1.
        guards = [smt.lt(X, smt.int_const(0))]
        guards += [smt.eq(X, smt.int_const(i)) for i in range(k - 1)]
        guards.append(smt.ge(X, smt.int_const(k - 1)))
        assert smt.is_valid(smt.or_(*guards))

    @pytest.mark.parametrize("depth", [4, 16])
    def test_read_through_a_store_chain(self, depth):
        array = MEM
        for i in range(depth):
            array = smt.store(array, smt.int_const(i), smt.int_const(i * i))
        read = smt.select(array, smt.int_const(depth - 1))
        assert smt.is_valid(smt.eq(read, smt.int_const((depth - 1) ** 2)))

    @pytest.mark.parametrize("depth", [2, 4])
    def test_stores_at_symbolic_indices(self, depth):
        """Reading the first-written index after later writes of the same
        value forces read-over-write case splits; the value is 7 either
        way."""
        indices = [smt.var(f"i{j}", smt.INT) for j in range(depth)]
        array = MEM
        for idx in indices:
            array = smt.store(array, idx, smt.int_const(7))
        read = smt.select(array, indices[0])
        assert smt.is_valid(smt.eq(read, smt.int_const(7)))
