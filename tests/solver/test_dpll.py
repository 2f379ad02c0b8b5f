"""CDCL SAT solver tests: units, fuzzing against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solver.dpll import FALSE_LIT, TRUE_LIT, SatSolver


def brute_force_sat(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def build(n, clauses, solver_class=SatSolver):
    solver = solver_class()
    for _ in range(n):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver


class TestBasics:
    def test_empty_formula_sat(self):
        assert SatSolver().solve()

    def test_single_unit(self):
        solver = build(1, [[1]])
        assert solver.solve()
        assert solver.value(1) is True
        assert solver.value(-1) is False

    def test_conflicting_units(self):
        solver = build(1, [[1], [-1]])
        assert not solver.solve()

    def test_implication_chain(self):
        clauses = [[-i, i + 1] for i in range(1, 10)] + [[1]]
        solver = build(10, clauses)
        assert solver.solve()
        assert all(solver.value(i) for i in range(1, 11))

    def test_unsat_pigeonhole_2_1(self):
        # Two pigeons, one hole.
        solver = build(2, [[1], [2], [-1, -2]])
        assert not solver.solve()

    def test_tautological_clause_ignored(self):
        solver = build(2, [[1, -1], [2]])
        assert solver.solve()
        assert solver.value(2) is True

    def test_duplicate_literals_collapsed(self):
        solver = build(1, [[1, 1, 1]])
        assert solver.solve()
        assert solver.value(1) is True

    def test_empty_clause_unsat(self):
        solver = build(1, [[]])
        assert not solver.solve()

    def test_unknown_literal_rejected(self):
        solver = SatSolver()
        with pytest.raises(SolverError):
            solver.add_clause([1])

    def test_xor_chain(self):
        # x1 xor x2 = 1 encoded in CNF.
        solver = build(2, [[1, 2], [-1, -2]])
        assert solver.solve()
        assert solver.value(1) != solver.value(2)


class TestPseudoLiterals:
    def test_true_lit_satisfies_clause(self):
        solver = build(1, [[TRUE_LIT, 1]])
        assert solver.solve()

    def test_false_lit_removed(self):
        solver = build(1, [[FALSE_LIT, 1]])
        assert solver.solve()
        assert solver.value(1) is True

    def test_clause_of_false_lits_unsat(self):
        solver = build(1, [[FALSE_LIT]])
        assert not solver.solve()

    def test_value_of_pseudo(self):
        solver = SatSolver()
        solver.solve()
        assert solver.value(TRUE_LIT) is True
        assert solver.value(FALSE_LIT) is False


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = build(2, [[-1, 2]])
        assert solver.solve(assumptions=[1])
        assert solver.value(1) is True
        assert solver.value(2) is True

    def test_conflicting_assumption(self):
        solver = build(1, [[-1]])
        assert not solver.solve(assumptions=[1])

    def test_resolvable_after_assumption_removed(self):
        solver = build(1, [[-1]])
        assert not solver.solve(assumptions=[1])
        assert solver.solve()
        assert solver.value(1) is False

    def test_multiple_assumptions(self):
        solver = build(3, [[-1, -2, 3]])
        assert solver.solve(assumptions=[1, 2])
        assert solver.value(3) is True

    def test_incompatible_assumptions(self):
        solver = build(2, [[-1, -2]])
        assert not solver.solve(assumptions=[1, 2])


class TestModelSoundness:
    def test_model_satisfies_all_clauses(self):
        clauses = [
            [1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3],
        ]
        solver = build(3, clauses)
        assert solver.solve()
        for clause in clauses:
            assert any(solver.value(lit) for lit in clause)


@st.composite
def random_cnf(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=30))
    clauses = []
    for _ in range(m):
        k = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.sampled_from([-1, 1]))
            * draw(st.integers(min_value=1, max_value=n))
            for _ in range(k)
        ]
        clauses.append(clause)
    return n, clauses


class TestFuzzAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, problem):
        n, clauses = problem
        solver = build(n, clauses)
        got = solver.solve()
        assert got == brute_force_sat(n, clauses)
        if got:
            for clause in clauses:
                assert any(solver.value(lit) for lit in clause)

    @given(random_cnf())
    @settings(max_examples=100, deadline=None)
    def test_resolve_is_stable(self, problem):
        """Solving twice gives the same satisfiability."""
        n, clauses = problem
        solver = build(n, clauses)
        first = solver.solve()
        second = solver.solve()
        assert first == second


class _AlwaysCompact(SatSolver):
    """Rebuilds the activity heap after every backjump."""

    def _cancel_until(self, level):
        super()._cancel_until(level)
        self._rebuild_heap()


def _random_3sat(rng, n, m):
    return [
        [rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(3)]
        for _ in range(m)
    ]


def _session_checks(solver, rng, n, checks):
    """Incremental-session traffic: each check's 80 clauses go under a
    fresh activation literal that is retired afterwards.  Over a
    40-variable base of 100 clauses, about 60 % of the checks are UNSAT
    after a search: the backjumps that leave stale heap entries."""
    for _ in range(checks):
        act = solver.new_var()
        for clause in _random_3sat(rng, n, 80):
            solver.add_clause([-act] + clause)
        yield solver.solve(assumptions=[act])
        solver.add_clause([-act])


class TestHeapCompaction:
    """Stale heap entries are dropped once they outnumber live ones."""

    def test_heap_stays_bounded_across_session_checks(self):
        rng = random.Random(7)
        n = 40
        solver = build(n, _random_3sat(rng, n, 100))
        verdicts = []
        for verdict in _session_checks(solver, rng, n, 200):
            verdicts.append(verdict)
            assert len(solver._act_heap) <= 2 * solver.num_vars + 64
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("seed", range(6))
    def test_compaction_never_changes_a_decision(self, seed):
        """The pick order is a function of the live entries alone, so
        rebuilding after every backjump changes no decision, counter or
        model."""
        rng = random.Random(seed)
        n = 40
        clauses = _random_3sat(rng, n, 100)
        plain = build(n, clauses)
        compact = build(n, clauses, _AlwaysCompact)
        runs = [
            list(_session_checks(solver, random.Random(seed), n, 30))
            for solver in (plain, compact)
        ]
        assert runs[0] == runs[1]
        assert plain.solve() == compact.solve()
        assert plain._model == compact._model
        for counter in ("decisions", "propagations", "conflicts",
                        "restarts", "learned_clauses"):
            assert getattr(plain, counter) == getattr(compact, counter)
