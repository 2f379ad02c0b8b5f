"""A CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation,
first-UIP conflict analysis, VSIDS-style branching activity, and
geometric restarts.  The implementation favours clarity over raw speed;
the analysis queries it serves are small (hundreds of variables), for
which this is more than fast enough.

Literals are non-zero integers: ``+v`` is the positive literal of
variable ``v`` (variables are numbered from 1), ``-v`` its negation.
Two pseudo-literals :data:`TRUE_LIT` and :data:`FALSE_LIT` denote the
constants; :meth:`SatSolver.add_clause` resolves them away, and encoders
may return them for trivially-valued sub-formulas.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import SolverError

# Pseudo-literals for constant true/false.  They use variable 0 (never
# allocated), so they cannot collide with real literals.
TRUE_LIT = 0x7FFFFFFF
FALSE_LIT = -TRUE_LIT


@dataclass(slots=True)  # long-lived sessions hold tens of thousands
class _Clause:
    literals: list[int]
    learned: bool = False


@dataclass
class SolverCounters:
    """Aggregated CDCL search counters (observability).

    Every :class:`SatSolver` keeps its own live attributes; callers that
    run many solvers (the bounded model finder, incremental sessions)
    fold them into one of these so analysis reports can attribute
    solver work -- decisions, propagations, conflicts, restarts,
    learned clauses -- to pipeline stages.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0

    def add_solver(self, solver: "SatSolver") -> None:
        self.decisions += solver.decisions
        self.propagations += solver.propagations
        self.conflicts += solver.conflicts
        self.restarts += solver.restarts
        self.learned_clauses += solver.learned_clauses

    def add(self, other: "SolverCounters") -> None:
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned_clauses += other.learned_clauses


class SatSolver:
    """Incremental CDCL SAT solver.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve()
        assert solver.value(b) is True
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        # Watch lists indexed by literal.
        self._watches: dict[int, list[_Clause]] = {}
        # Assignment: var -> bool, plus trail bookkeeping.
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, _Clause | None] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        # Branching heuristic: VSIDS activities plus a lazy max-heap of
        # ``(-activity, var)`` entries.  Stale entries (superseded by a
        # bump, or referring to assigned variables) are skipped on pop;
        # every unassigned variable always has a current entry.  Stale
        # entries are dropped wholesale once they outnumber the live ones
        # (see :meth:`_cancel_until`), so a long-lived incremental solver
        # holds O(variables) entries, not one per backtracked assignment.
        self._activity: dict[int, float] = {}
        self._act_heap: list[tuple[float, int]] = []
        self._act_inc = 1.0
        self._act_decay = 0.95
        # Status after top-level conflict.
        self._unsat = False
        self._model: dict[int, bool] | None = None
        # Search counters (observability; see SolverCounters).  Plain
        # attributes bumped inline -- no indirection on the hot loops.
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned_clauses = 0

    # -- public API --------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its positive literal."""
        self._num_vars += 1
        var = self._num_vars
        self._watches[var] = []
        self._watches[-var] = []
        self._activity[var] = 0.0
        heapq.heappush(self._act_heap, (0.0, var))
        return var

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause (a disjunction of literals).

        Must be called before :meth:`solve` (no clause addition while a
        search is suspended).  Constant pseudo-literals are resolved:
        a clause containing :data:`TRUE_LIT` is dropped, occurrences of
        :data:`FALSE_LIT` are removed.
        """
        if self._trail_lim:
            raise SolverError("add_clause while search in progress")
        seen: set[int] = set()
        resolved: list[int] = []
        for lit in literals:
            if lit == TRUE_LIT:
                return  # clause is satisfied
            if lit == FALSE_LIT:
                continue
            if abs(lit) > self._num_vars or lit == 0:
                raise SolverError(f"unknown literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                resolved.append(lit)
        if not resolved:
            self._unsat = True
            return
        if len(resolved) == 1:
            if not self._enqueue(resolved[0], None):
                self._unsat = True
            return
        clause = _Clause(resolved)
        self._clauses.append(clause)
        self._watch(clause)

    def solve(self, assumptions: list[int] | None = None) -> bool:
        """Search for a satisfying assignment.

        Returns ``True`` and records a model, or ``False`` if the formula
        (under ``assumptions``) is unsatisfiable.  The solver can be
        re-solved with different assumptions; clauses learned during one
        call carry over to later ones.
        """
        self._model = None
        if self._unsat:
            return False
        if self._propagate() is not None:
            self._unsat = True
            return False
        assumptions = list(assumptions or [])
        conflicts = 0
        restart_limit = 64
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts += 1
                if self.decision_level == 0:
                    # A conflict with no decisions means the clause
                    # database itself is contradictory (learned clauses
                    # are implied by it, and assumptions sit on decision
                    # levels >= 1), so the verdict is permanent.  Latch
                    # it: the conflicting clause stays falsified on the
                    # trail, and a re-solve would otherwise skip the
                    # already-propagated queue and report SAT.
                    self._cancel_until(0)
                    self._unsat = True
                    return False
                back_level, learned = self._analyze(conflict)
                self._cancel_until(back_level)
                self._learn(learned)
                self._decay_activity()
                if conflicts >= restart_limit:
                    conflicts = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.restarts += 1
                    self._cancel_until(len(assumptions))
                continue
            # Place any pending assumptions as decisions.
            if self.decision_level < len(assumptions):
                lit = assumptions[self.decision_level]
                value = self._value(lit)
                if value is False:
                    self._cancel_until(0)
                    return False
                if value is True:
                    # Already implied: introduce an empty decision level so
                    # assumption indexing stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                self._decide(lit)
                continue
            lit = self._pick_branch()
            if lit is None:
                self._model = dict(self._assign)
                self._cancel_until(0)
                return True
            self._decide(lit)

    def value(self, lit: int) -> bool | None:
        """Truth value of ``lit`` in the last model (None if unsolved)."""
        if lit == TRUE_LIT:
            return True
        if lit == FALSE_LIT:
            return False
        if self._model is None:
            return None
        var = abs(lit)
        if var not in self._model:
            return None
        val = self._model[var]
        return val if lit > 0 else not val

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    # -- internals ----------------------------------------------------------

    def _value(self, lit: int) -> bool | None:
        var = abs(lit)
        if var not in self._assign:
            return None
        val = self._assign[var]
        return val if lit > 0 else not val

    def _watch(self, clause: _Clause) -> None:
        self._watches[clause.literals[0]].append(clause)
        self._watches[clause.literals[1]].append(clause)

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = self.decision_level
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decide(self, lit: int) -> None:
        self.decisions += 1
        self._trail_lim.append(len(self._trail))
        self._enqueue(lit, None)

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns a conflicting clause or None."""
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            self.propagations += 1
            falsified = -lit
            watching = self._watches[falsified]
            index = 0
            while index < len(watching):
                clause = watching[index]
                lits = clause.literals
                # Normalise: watched literals are lits[0] and lits[1].
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                if self._value(other) is True:
                    index += 1
                    continue
                # Look for a replacement watch.
                moved = False
                for slot in range(2, len(lits)):
                    if self._value(lits[slot]) is not False:
                        lits[1], lits[slot] = lits[slot], lits[1]
                        self._watches[lits[1]].append(clause)
                        watching[index] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                # No replacement: clause is unit or conflicting.
                if not self._enqueue(other, clause):
                    self._queue_head = len(self._trail)
                    return clause
                index += 1
        return None

    def _analyze(self, conflict: _Clause) -> tuple[int, list[int]]:
        """First-UIP conflict analysis.

        Returns the backjump level and the learned clause (with the
        asserting literal first).
        """
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = 0
        reason_lits = list(conflict.literals)
        trail_index = len(self._trail) - 1
        current = self.decision_level

        while True:
            for q in reason_lits:
                var = abs(q)
                if var in seen or self._level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump_activity(var)
                if self._level[var] == current:
                    counter += 1
                else:
                    learned.append(q)
            # Find next literal on the trail to resolve on.
            while True:
                lit = self._trail[trail_index]
                trail_index -= 1
                if abs(lit) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
            if reason is None:  # pragma: no cover - defensive
                raise SolverError("decision literal reached during analysis")
            reason_lits = [q for q in reason.literals if q != lit]
        learned.insert(0, -lit)
        if len(learned) == 1:
            return 0, learned
        back_level = max(self._level[abs(q)] for q in learned[1:])
        # Put a literal of the backjump level in the second watch slot.
        for slot in range(1, len(learned)):
            if self._level[abs(learned[slot])] == back_level:
                learned[1], learned[slot] = learned[slot], learned[1]
                break
        return back_level, learned

    def _learn(self, literals: list[int]) -> None:
        self.learned_clauses += 1
        if len(literals) == 1:
            self._enqueue(literals[0], None)
            return
        clause = _Clause(list(literals), learned=True)
        self._clauses.append(clause)
        self._watch(clause)
        self._enqueue(literals[0], clause)

    def _cancel_until(self, level: int) -> None:
        if self.decision_level <= level:
            return
        boundary = self._trail_lim[level]
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            del self._assign[var]
            del self._level[var]
            self._reason.pop(var, None)
            heapq.heappush(self._act_heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)
        if len(self._act_heap) > 2 * self._num_vars + 64:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One current entry per unassigned variable, stale ones dropped.

        :meth:`_pick_branch` returns the best *live* entry, so the pick
        order -- and every decision sequence and model -- is the same
        before and after a rebuild.
        """
        self._act_heap = [
            (-self._activity[v], v)
            for v in self._activity
            if v not in self._assign
        ]
        heapq.heapify(self._act_heap)

    def _pick_branch(self) -> int | None:
        # Pop until a live entry: unassigned variable whose recorded
        # activity is current.  ``(-activity, var)`` ordering reproduces
        # the previous linear scan exactly (highest activity first,
        # lowest variable index on ties), so decision sequences -- and
        # therefore models -- are unchanged.
        heap = self._act_heap
        while heap:
            negact, var = heap[0]
            if var in self._assign or -negact != self._activity[var]:
                heapq.heappop(heap)
                continue
            return -var  # negative-first polarity: good for sparse models
        return None

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._act_inc
        if self._activity[var] > 1e100:
            for v in self._activity:
                self._activity[v] *= 1e-100
            self._act_inc *= 1e-100
            # Every heap entry is stale after a rescale: rebuild.
            self._rebuild_heap()
            return
        if var not in self._assign:
            heapq.heappush(self._act_heap, (-self._activity[var], var))

    def _decay_activity(self) -> None:
        self._act_inc /= self._act_decay
