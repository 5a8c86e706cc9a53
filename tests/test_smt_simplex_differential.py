"""Differential testing of the arithmetic core.

- The exact rational simplex is compared against scipy's linprog on
  random systems of linear inequalities (rational feasibility).
- The integer search (gcd tightening + branch & bound) is compared
  against brute-force enumeration over a bounded box, with box bounds
  included in the constraints so the domains agree exactly.
- The cores that explain infeasible results are checked to be infeasible
  on their own (brute force, linprog), and compared with the deletion
  minimizer the solver used before it read cores off the simplex.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.smt import INT, var
from repro.smt.intsolve import IntBudgetExceeded, check_integer
from repro.smt.linear import LinAtom, make_atom
from repro.smt.simplex import Simplex, check_rational

VARS = [var(name, INT) for name in ("u", "v", "w")]


def random_system(rng, n_constraints, bound=None):
    """Random atoms sum(c_i x_i) <= k with small integer coefficients."""
    atoms = []
    raw = []
    for _ in range(n_constraints):
        coeffs = {v: rng.randint(-4, 4) for v in VARS}
        k = rng.randint(-8, 8)
        atoms.append(make_atom(coeffs, k))
        raw.append((coeffs, k))
    if bound is not None:
        for v in VARS:
            atoms.append(make_atom({v: 1}, bound))
            atoms.append(make_atom({v: -1}, bound))
            raw.append(({v: 1}, bound))
            raw.append(({v: -1}, bound))
    return atoms, raw


def scipy_feasible(raw):
    """LP feasibility via scipy: minimize 0 subject to Ax <= b."""
    A = []
    b = []
    for coeffs, k in raw:
        A.append([coeffs.get(v, 0) for v in VARS])
        b.append(k)
    result = linprog(
        c=[0.0] * len(VARS),
        A_ub=np.array(A, dtype=float),
        b_ub=np.array(b, dtype=float),
        bounds=[(None, None)] * len(VARS),
        method="highs",
    )
    return result.status == 0  # 0 = optimal (feasible); 2 = infeasible


class TestSimplexAgainstScipy:
    @pytest.mark.parametrize("seed", range(60))
    def test_rational_feasibility_matches(self, seed):
        rng = random.Random(seed)
        atoms, raw = random_system(rng, rng.randint(1, 7))
        ours = check_rational(atoms).feasible
        # NOTE: make_atom gcd-tightens over the *integers*, which can make
        # a rationally-feasible system infeasible (that is its purpose!).
        # For a fair rational comparison, rebuild untightened rows.
        untightened = [
            LinAtom(tuple(sorted(c.items(), key=lambda i: str(i[0]))), k)
            for c, k in ((dict((v, c2) for v, c2 in cs.items() if c2), k) for cs, k in raw)
        ]
        ours_raw = check_rational(untightened).feasible
        assert ours_raw == scipy_feasible(raw)
        # Tightening may only cut rational space, never add to it.
        if ours:
            assert ours_raw

    @pytest.mark.parametrize("seed", range(30))
    def test_feasible_assignment_satisfies_system(self, seed):
        rng = random.Random(seed)
        atoms, _raw = random_system(rng, rng.randint(1, 6))
        result = check_rational(atoms)
        if not result.feasible:
            return
        for atom in atoms:
            total = sum(
                Fraction(c) * result.assignment.get(v, Fraction(0))
                for v, c in atom.coeffs
            )
            assert total <= atom.constant


def brute_force_integer(raw, bound):
    for values in itertools.product(range(-bound, bound + 1), repeat=len(VARS)):
        assignment = dict(zip(VARS, values))
        if all(
            sum(c * assignment[v] for v, c in coeffs.items() if v in assignment) <= k
            for coeffs, k in raw
        ):
            return True
    return False


class TestIntegerSearchAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_bounded_integer_feasibility_matches(self, seed):
        rng = random.Random(seed)
        bound = 3
        atoms, raw = random_system(rng, rng.randint(1, 5), bound=bound)
        result = check_integer(atoms)
        expected = brute_force_integer(raw, bound)
        assert result.feasible == expected
        if result.feasible:
            for coeffs, k in raw:
                total = sum(c * result.model.get(v, 0) for v, c in coeffs.items())
                assert total <= k


# -- cores ---------------------------------------------------------------------


def deletion_minimize(atoms, budget=4000):
    """The solver's former theory-core minimizer, kept as an oracle: drop
    each atom in turn and keep the drop while the rest stays infeasible."""
    core = list(atoms)
    i = 0
    while i < len(core):
        candidate = core[:i] + core[i + 1 :]
        try:
            feasible = check_integer(candidate, budget=budget).feasible
        except IntBudgetExceeded:
            feasible = True
        if feasible:
            i += 1
        else:
            core = candidate
    return core


def rows(atoms):
    return [(dict(a.coeffs), a.constant) for a in atoms]


def core_atoms(atoms, result):
    assert not result.feasible
    assert result.core, "an infeasible result must name its core"
    assert all(0 <= i < len(atoms) for i in result.core)
    return [atoms[i] for i in sorted(result.core)]


class TestIntegerCores:
    @pytest.mark.parametrize("seed", range(80))
    def test_core_is_infeasible_in_the_box(self, seed):
        rng = random.Random(seed)
        bound = 3
        atoms, _raw = random_system(rng, rng.randint(1, 5), bound=bound)
        result = check_integer(atoms)
        if result.feasible:
            assert result.core == frozenset()
            return
        core = core_atoms(atoms, result)
        # Infeasible over all integers implies infeasible in the box.
        assert not brute_force_integer(rows(core), bound)
        assert not check_integer(core).feasible

    @pytest.mark.parametrize("seed", range(80))
    def test_root_core_is_rationally_infeasible(self, seed):
        rng = random.Random(seed)
        atoms, _raw = random_system(rng, rng.randint(1, 7), bound=3)
        if check_rational(atoms).feasible:
            return
        core = core_atoms(atoms, check_integer(atoms))
        assert not scipy_feasible(rows(core))
        assert not check_rational(core).feasible

    @pytest.mark.parametrize("seed", range(80))
    def test_minimizer_oracle_agrees(self, seed):
        rng = random.Random(seed)
        atoms, _raw = random_system(rng, rng.randint(1, 5), bound=3)
        result = check_integer(atoms)
        minimal = deletion_minimize(atoms)
        assert check_integer(minimal).feasible == result.feasible
        if not result.feasible:
            core = core_atoms(atoms, result)
            # Minimizing our core reaches a minimal core inside it.
            minimized = deletion_minimize(core)
            assert minimized and not check_integer(minimized).feasible
            assert len(minimized) <= len(core)


u, v, w = VARS

#: Rationally feasible, integer infeasible: only branch-and-bound refutes
#: them, so their cores are unions of leaf explanations.  The last atom
#: of "strip" and of "diophantine-box" mentions a variable no other atom
#: does.
BRANCHING_SYSTEMS = {
    # 1 <= 3u - 2v <= 2 with v = 0: u would lie in [1/3, 2/3].
    "strip": [
        make_atom({u: 3, v: -2}, 2),
        make_atom({u: -3, v: 2}, -1),
        make_atom({v: 1}, 0),
        make_atom({v: -1}, 0),
        make_atom({w: 1}, 5),
    ],
    # 3u + 5v = 1 has no solution with 0 <= u, v <= 3.
    "diophantine-box": [
        make_atom({u: 3, v: 5}, 1),
        make_atom({u: -3, v: -5}, -1),
        make_atom({u: -1}, 0),
        make_atom({v: -1}, 0),
        make_atom({u: 1}, 3),
        make_atom({v: 1}, 3),
        make_atom({w: -1}, 7),
    ],
    # 2u + 4v + 3w = 1 and 2u - 4v + 3w = 2 in the box [-2, 2]^3.
    "two-planes": [
        make_atom({u: 2, v: 4, w: 3}, 1),
        make_atom({u: -2, v: -4, w: -3}, -1),
        make_atom({u: 2, v: -4, w: 3}, 2),
        make_atom({u: -2, v: 4, w: -3}, -2),
    ]
    + [make_atom({t: 1}, 2) for t in VARS]
    + [make_atom({t: -1}, 2) for t in VARS],
}


class TestBranchAndBoundCores:
    @pytest.mark.parametrize("name", sorted(BRANCHING_SYSTEMS))
    def test_union_of_leaf_cores_is_infeasible(self, name):
        atoms = BRANCHING_SYSTEMS[name]
        assert check_rational(atoms).feasible  # so the search must branch
        assert not brute_force_integer(rows(atoms), 3)
        result = check_integer(atoms)
        core = core_atoms(atoms, result)
        assert not brute_force_integer(rows(core), 3)
        assert not check_integer(core).feasible
        assert not check_integer(deletion_minimize(core)).feasible

    @pytest.mark.parametrize("name", ["strip", "diophantine-box"])
    def test_unrelated_atom_stays_out_of_the_core(self, name):
        atoms = BRANCHING_SYSTEMS[name]
        assert len(atoms) - 1 not in check_integer(atoms).core


class TestExplanationSources:
    def test_contradictory_bounds_name_both_atoms(self):
        atoms = [make_atom({v: 1}, 9), make_atom({u: 1}, 2), make_atom({u: -1}, -3)]
        assert check_rational(atoms).core == {1, 2}
        assert check_integer(atoms).core == {1, 2}

    def test_tightest_bound_is_the_one_named(self):
        # u <= 4 and u <= 2 both bound u; only the tighter one conflicts
        # with u >= 3.
        atoms = [make_atom({u: 1}, 4), make_atom({u: 1}, 2), make_atom({u: -1}, -3)]
        assert check_rational(atoms).core == {1, 2}

    def test_row_conflict_names_the_row_and_its_bounds(self):
        # u + v <= 1, u >= 1, v >= 1, w <= 0.
        atoms = [
            make_atom({u: 1, v: 1}, 1),
            make_atom({w: 1}, 0),
            make_atom({u: -1}, -1),
            make_atom({v: -1}, -1),
        ]
        assert check_rational(atoms).core == {0, 2, 3}

    def test_external_bounds_are_left_out(self):
        simplex = Simplex()
        simplex.add_atom(make_atom({u: 1}, 2), 0)
        simplex.add_atom(make_atom({u: 1, v: 1}, 0), 1)
        simplex.set_bounds(u, Fraction(3), None)
        result = simplex.check()
        assert not result.feasible
        assert result.core == {0}

    def test_trivially_false_atom_is_its_own_core(self):
        atoms = [make_atom({u: 1}, 0), LinAtom((), -1)]
        assert check_integer(atoms).core == {1}
        assert check_rational(atoms).core == {1}
