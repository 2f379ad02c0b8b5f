"""Verdict-only queries run in incremental sessions: the contract.

Every query whose model nobody reads -- the repair search's pair checks
and each candidate's executability and solo-semantics side conditions
-- goes through :meth:`ConflictChecker._verdict`, which answers it in an
:class:`~repro.solver.smt.IncrementalSession` that asserted the query
family's shared base once.  The contract: every verdict equals a fresh
one-shot solver's on the same constraint list, however many earlier
candidates the session has already retired.

Hand-made mutants this file must kill:

- candidate constraints asserted without the activation literal
  (they leak into every later candidate's query);
- the activation literal not retired after a check (a retired
  candidate can be re-enabled);
- side-condition sessions keyed by aliasing pattern alone, so that
  ``enroll(p, t)`` and ``disenroll(p, t)`` -- equal ``SingleBinding``s --
  share a base built from the wrong operation.
"""

from collections import Counter
from itertools import islice

import pytest

from repro.analysis.cache import SolverCache
from repro.analysis.conflicts import ConflictChecker, SolverSessions
from repro.analysis.generation import generate_candidates
from repro.analysis.repair import repair_conflict
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.solver.dpll import SatSolver
from repro.solver.smt import BoundedModelFinder
from repro.solver.theory import TheoryEncoder

ALL_APPS = [
    pytest.param(ticket_spec, id="ticket"),
    pytest.param(tpcw_spec, id="tpcw"),
    pytest.param(twitter_spec, id="twitter"),
    pytest.param(tournament_spec, id="tournament"),
]


def _spy_verdicts(monkeypatch) -> list[tuple]:
    """Record ``(domain, query, session key, verdict)`` per verdict."""
    recorded: list[tuple] = []
    original = ConflictChecker._verdict

    def spy(self, domain, query, base_slots, sessions, key,
            need_model=False):
        result = original(
            self, domain, query, base_slots, sessions, key, need_model
        )
        recorded.append((domain, list(query), key, result.sat))
        return result

    monkeypatch.setattr(ConflictChecker, "_verdict", spy)
    return recorded


def _spy_activations(monkeypatch) -> list[tuple[SatSolver, list[int]]]:
    """Record every assumption-driven solve: ``(solver, assumptions)``."""
    solves: list[tuple[SatSolver, list[int]]] = []
    original = SatSolver.solve

    def spy(self, assumptions=None):
        if assumptions:
            solves.append((self, list(assumptions)))
        return original(self, assumptions)

    monkeypatch.setattr(SatSolver, "solve", spy)
    return solves


@pytest.mark.parametrize("build", ALL_APPS)
def test_side_condition_sessions_match_fresh_solver(build, monkeypatch):
    """Every side-condition query of every candidate of every conflict
    the scan finds, pushed through one shared container per spec."""
    spec = build()
    # No solver cache: every query reaches a session.
    checker = ConflictChecker(spec)
    witnesses = checker.find_conflicts()
    assert witnesses
    recorded = _spy_verdicts(monkeypatch)
    activations = _spy_activations(monkeypatch)
    sessions = SolverSessions()
    for witness in witnesses:
        for candidate in generate_candidates(spec, witness.op1, witness.op2):
            original = witness.op1 if candidate.side == 1 else witness.op2
            modified = original.with_extra_effects(candidate.extra_effects)
            checker.is_executable(modified, sessions=sessions)
            checker.preserves_solo_semantics(
                original, modified, sessions=sessions
            )
    monkeypatch.undo()

    assert recorded
    for domain, query, key, sat in recorded:
        fresh = BoundedModelFinder(
            domain, params=checker.params, int_bound=checker._int_bound
        ).check_ground(*query)
        assert sat == fresh.sat, (key, [str(f) for f in query])
    per_session = Counter(key for _domain, _query, key, _sat in recorded)
    assert len(sessions) == len(per_session)
    assert {key[0] for key in per_session} <= {"executable", "solo"}
    if len(recorded) > 100:
        # Late candidates sit behind many retired ones.
        assert max(per_session.values()) >= 20
    # A retired candidate can never be re-enabled.
    assert len(activations) == len(recorded)
    for solver, assumptions in activations:
        assert solver.solve(assumptions=assumptions) is False


def test_verdicts_cover_both_answers(monkeypatch):
    """The contract test above is not vacuous on the tournament."""
    spec = tournament_spec()
    checker = ConflictChecker(spec)
    witness = checker.find_first()
    recorded = _spy_verdicts(monkeypatch)
    repair_conflict(spec, checker, witness)
    kinds = {(key[0], sat) for _domain, _query, key, sat in recorded}
    assert {("executable", True), ("executable", False)} <= kinds
    assert {("solo", True), ("solo", False)} <= kinds
    assert {("conflict", True), ("conflict", False)} <= kinds


def test_no_container_gives_the_same_verdicts():
    """A caller with no container gets a throwaway session."""
    spec = tournament_spec()
    witness = ConflictChecker(spec).find_first()
    shared, alone = ConflictChecker(spec), ConflictChecker(spec)
    sessions = SolverSessions()
    candidates = generate_candidates(spec, witness.op1, witness.op2)
    for candidate in islice(candidates, 60):
        original = witness.op1 if candidate.side == 1 else witness.op2
        modified = original.with_extra_effects(candidate.extra_effects)
        assert shared.is_executable(modified, sessions=sessions) == (
            alone.is_executable(modified)
        )
        assert shared.preserves_solo_semantics(
            original, modified, sessions=sessions
        ) == alone.preserves_solo_semantics(original, modified)
    assert shared.queries_issued == alone.queries_issued
    assert shared.solver_solves == alone.solver_solves


#: One tournament repair (``rem_tourn || enroll``, the scan's first
#: witness) through a memory-only cache, as counted before side
#: conditions moved into sessions.
PARENT_REPAIR_QUERIES = 441
PARENT_REPAIR_SOLVES = 398


def test_repair_builds_no_one_shot_solver(monkeypatch):
    """Operation-count guard, no wall clock: a repair search builds no
    fresh solver, and encodes each cached ground invariant at most once
    per session rather than once per candidate."""
    spec = tournament_spec()
    checker = ConflictChecker(spec, cache=SolverCache())
    witness = checker.find_first()
    assert witness.pair == ("rem_tourn", "enroll")
    queries, solves = checker.queries_issued, checker.solver_solves

    def one_shot(self, *formulas):
        raise AssertionError("repair built a one-shot solver")

    grounded: dict[int, object] = {}
    ground_invariant = ConflictChecker._ground_invariant

    def remember(self, *args):
        formula = ground_invariant(self, *args)
        grounded[id(formula)] = formula
        return formula

    encodes: Counter = Counter()
    encode = TheoryEncoder.encode

    def count(self, formula):
        if id(formula) in grounded:
            encodes[(id(self), id(formula))] += 1
        return encode(self, formula)

    monkeypatch.setattr(BoundedModelFinder, "check_ground", one_shot)
    monkeypatch.setattr(ConflictChecker, "_ground_invariant", remember)
    monkeypatch.setattr(TheoryEncoder, "encode", count)
    solutions = repair_conflict(spec, checker, witness)
    monkeypatch.undo()

    assert len(solutions) == 2
    assert encodes and max(encodes.values()) == 1
    sessions = len({encoder for encoder, _formula in encodes})
    assert checker.queries_issued - queries == PARENT_REPAIR_QUERIES
    assert checker.solver_solves - solves == PARENT_REPAIR_SOLVES
    assert sessions < (PARENT_REPAIR_SOLVES // 4)
