"""A CDCL SAT solver (conflict-driven clause learning).

Implements the standard modern architecture: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning, VSIDS-style
activity-based branching with phase saving, and Luby restarts.

Literals are non-zero integers (DIMACS convention): ``+v`` is the positive
literal of variable ``v``, ``-v`` the negative one.  Variables are
allocated with :meth:`SatSolver.new_var` and clauses may be added between
:meth:`SatSolver.solve` calls, which is how the lazy SMT loop feeds theory
blocking clauses back into the search.

:meth:`SatSolver.solve` optionally takes *assumptions* — literals decided
(in order, before any heuristic decision) at their own decision levels, in
the MiniSat style.  Returning ``None`` under assumptions means "UNSAT
under these assumptions" and does **not** poison the solver: clauses and
learned clauses remain valid and later calls with different assumptions
may succeed.  Assumptions are what make the incremental
:class:`repro.smt.solver.Solver` possible — retracting a scope amounts to
permanently falsifying its selector literal while keeping every clause
(and everything learned from it) in place.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence


class SatTimeout(Exception):
    """The search hit its wall-clock deadline (see ``solve(deadline=)``).

    Raised from inside the CDCL loop; the solver remains usable (the
    next ``add_clause``/``solve`` backtracks to the root as usual) —
    the caller decides how to degrade, normally to ``UNKNOWN``.
    """


class SatSolver:
    """CDCL solver over literals encoded as signed integers."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[list[int]]] = {}
        self._assign: list[Optional[bool]] = [None]  # 1-indexed by variable
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._pending_unsat = False
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_restarts = 0
        self.num_clauses_added = 0

    # -- construction ----------------------------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        self._assign.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; duplicates removed, tautologies dropped."""
        self.num_clauses_added += 1
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0 or abs(lit) > self._num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._pending_unsat = True
            return
        self._backtrack(0)
        # Drop root-level falsified literals; satisfied clauses are kept as-is.
        clause = [
            lit for lit in clause if self._value(lit) is not False or self._lit_level(lit) > 0
        ]
        if not clause:
            self._pending_unsat = True
            return
        if len(clause) == 1:
            if self._value(clause[0]) is False:
                self._pending_unsat = True
            elif self._value(clause[0]) is None:
                self._enqueue(clause[0], None)
            return
        self._attach(clause)

    def _attach(self, clause: list[int]) -> None:
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(clause)
        self._watches.setdefault(clause[1], []).append(clause)

    # -- assignment helpers ------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        value = self._assign[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _lit_level(self, lit: int) -> int:
        return self._level[abs(lit)]

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        v = abs(lit)
        self._assign[v] = lit > 0
        self._level[v] = self._decision_level
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            v = abs(lit)
            self._phase[v] = self._assign[v]  # type: ignore[assignment]
            self._assign[v] = None
            self._reason[v] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = min(self._queue_head, len(self._trail))

    # -- propagation ---------------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        """Propagate units; return a conflicting clause or None."""
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            falsified = -lit
            watchers = self._watches.get(falsified)
            if not watchers:
                continue
            kept: list[list[int]] = []
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                i += 1
                # Normalize: watched literals at positions 0 and 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._value(other) is True:
                    kept.append(clause)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) is not False:
                        clause[1], clause[j] = clause[j], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._value(other) is False:
                    kept.extend(watchers[i:])
                    self._watches[falsified] = kept
                    return clause
                self.num_propagations += 1
                self._enqueue(other, clause)
            self._watches[falsified] = kept
        return None

    # -- conflict analysis ---------------------------------------------------------

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for i in range(1, self._num_vars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        index = len(self._trail) - 1
        reason: Optional[list[int]] = conflict
        while True:
            assert reason is not None
            for q in reason:
                if lit is not None and q == lit:
                    continue
                v = abs(q)
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self._level[v] >= self._decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            seen[abs(lit)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest decision level in the clause.
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    # -- search -------------------------------------------------------------------

    def _decide(self) -> bool:
        best = 0
        best_activity = -1.0
        for v in range(1, self._num_vars + 1):
            if self._assign[v] is None and self._activity[v] > best_activity:
                best = v
                best_activity = self._activity[v]
        if best == 0:
            return False
        self.num_decisions += 1
        self._trail_lim.append(len(self._trail))
        self._enqueue(best if self._phase[best] else -best, None)
        return True

    #: Deadline poll cadence: check the clock every this many loop
    #: iterations.  Each iteration does a full propagation pass, so the
    #: overshoot past the deadline is a handful of propagations.
    DEADLINE_CHECK_EVERY = 16

    def solve(
        self, assumptions: Sequence[int] = (), deadline: Optional[float] = None
    ) -> Optional[dict[int, bool]]:
        """Search for a model; None means UNSAT (under the assumptions).

        Assumption literals are decided, in order, before any heuristic
        decision.  An assumption found falsified (by the clause database
        plus earlier assumptions) yields ``None`` without marking the
        solver permanently unsatisfiable.

        ``deadline`` is an absolute :func:`time.monotonic` instant.  The
        search polls it periodically and raises :class:`SatTimeout` once
        it has passed; everything learned up to that point is kept.
        """
        if self._pending_unsat:
            return None
        if deadline is not None and time.monotonic() >= deadline:
            raise SatTimeout
        self._backtrack(0)
        conflicts_until_restart = _luby(1) * 100
        restarts = 1
        conflicts_here = 0
        ticks = 0
        while True:
            if deadline is not None:
                ticks += 1
                if ticks >= self.DEADLINE_CHECK_EVERY:
                    ticks = 0
                    if time.monotonic() >= deadline:
                        raise SatTimeout
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_here += 1
                if self._decision_level == 0:
                    self._pending_unsat = True
                    return None
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= self._var_decay
                continue
            if conflicts_here >= conflicts_until_restart:
                conflicts_here = 0
                restarts += 1
                self.num_restarts += 1
                conflicts_until_restart = _luby(restarts) * 100
                self._backtrack(0)
                continue
            # Decide pending assumptions (in order) before branching.  At
            # this point every decision so far is an earlier assumption,
            # so a falsified assumption literal is genuinely implied.
            next_assumption = 0
            for lit in assumptions:
                value = self._value(lit)
                if value is False:
                    return None  # UNSAT under assumptions; solver stays usable
                if value is None:
                    next_assumption = lit
                    break
            if next_assumption:
                self._trail_lim.append(len(self._trail))
                self._enqueue(next_assumption, None)
                continue
            if not self._decide():
                model = {
                    v: bool(self._assign[v]) for v in range(1, self._num_vars + 1)
                }
                return model


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return _luby(i - ((1 << (k - 1)) - 1))
