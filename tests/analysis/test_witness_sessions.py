"""Scan queries are decided in per-domain sessions: the contract.

:meth:`ConflictChecker.is_conflicting` asks each aliasing pattern's
query of the checker's session for that domain shape.  The session's
base is the four slots the shape alone determines: invariant copies
``""``, ``"1"`` and ``"2"`` and the violation target ``not I_m``.  Both
preconditions, both frame sets and the merged state run under an
activation literal.  Only a SAT verdict pays for a fresh one-shot
solver over the same list, and that solver's model is the witness.

The contract, over every scan query ``run_ipa`` issues on each of the
four specs: the session verdict equals a fresh one-shot solver's, and
every reported witness is the fresh solver's model, so
``fingerprint()`` stays the one pinned in
``fixtures/analysis_outcome.json`` -- also when the reference solver
compacts its activity heap after every backjump.

The four specs guard no operation, so a fifth, guarded tournament
spec (scanned only) is what exercises the preconditions' slots.

Hand-made mutants this file must kill:

- a precondition (slot 1) asserted in the base;
- the witness model read from the session instead of the fresh solver
  (the fingerprint moves);
- the activation literal not retired after a check.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.conflicts import ConflictChecker
from repro.analysis.ipa import run_ipa
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.logic.ast import Atom, conj
from repro.solver.dpll import SatSolver
from repro.solver.smt import BoundedModelFinder, IncrementalSession

ALL_APPS = [
    pytest.param(ticket_spec, id="ticket"),
    pytest.param(tpcw_spec, id="tpcw"),
    pytest.param(twitter_spec, id="twitter"),
    pytest.param(tournament_spec, id="tournament"),
]

OUTCOME = Path(__file__).parent / "fixtures" / "analysis_outcome.json"


def _spy_scan(monkeypatch) -> tuple[list[tuple], list[tuple]]:
    """Record every scan query and every assumption-driven solve.

    Scan queries are the ``need_model`` calls of
    :meth:`ConflictChecker._verdict`; each is recorded as ``(checker,
    domain, query, session verdict, result)``.  Solves are recorded as
    ``(solver, assumptions)``, only inside scan queries.
    """
    scans: list[tuple] = []
    solves: list[tuple] = []
    session_verdicts: list[bool] = []
    in_scan = [False]

    check_under = IncrementalSession.check_under

    def spy_check_under(self, *formulas):
        sat = check_under(self, *formulas)
        session_verdicts.append(sat)
        return sat

    solve = SatSolver.solve

    def spy_solve(self, assumptions=None):
        if in_scan[0] and assumptions:
            solves.append((self, list(assumptions)))
        return solve(self, assumptions)

    verdict = ConflictChecker._verdict

    def spy_verdict(self, domain, query, base_slots, sessions, key,
                    need_model=False):
        if not need_model:
            return verdict(self, domain, query, base_slots, sessions, key)
        before = len(session_verdicts)
        in_scan[0] = True
        try:
            result = verdict(
                self, domain, query, base_slots, sessions, key,
                need_model=True,
            )
        finally:
            in_scan[0] = False
        # No cache: every scan query reaches its session exactly once.
        assert len(session_verdicts) == before + 1
        scans.append((self, domain, list(query), session_verdicts[-1], result))
        return result

    monkeypatch.setattr(IncrementalSession, "check_under", spy_check_under)
    monkeypatch.setattr(SatSolver, "solve", spy_solve)
    monkeypatch.setattr(ConflictChecker, "_verdict", spy_verdict)
    return scans, solves


def _check_scans(scans, monkeypatch) -> ConflictChecker:
    """Every recorded scan query against a fresh one-shot solver.

    Returns the one checker that issued them all.
    """
    (checker,) = {id(scan[0]): scan[0] for scan in scans}.values()
    # The reference solves rebuild their activity heap after every
    # backjump, so the pinned witnesses are also shown not to depend on
    # when the heap is compacted.
    cancel_until = SatSolver._cancel_until

    def compacting(self, level):
        cancel_until(self, level)
        self._rebuild_heap()

    monkeypatch.setattr(SatSolver, "_cancel_until", compacting)
    for _checker, domain, query, session_sat, answer in scans:
        fresh = BoundedModelFinder(
            domain, params=checker.params, int_bound=checker._int_bound
        ).check_ground(*query)
        assert session_sat == fresh.sat, [str(f) for f in query]
        assert answer.sat == fresh.sat
        if fresh.sat:
            assert answer.model.atoms == fresh.model.atoms
            assert answer.model.numerics == fresh.model.numerics
    # Sessions are per domain shape, not per query.
    assert len(checker._witness_sessions) < len(scans)
    return checker


@pytest.mark.parametrize("build", ALL_APPS)
def test_scan_session_verdicts_match_fresh_solver(build, monkeypatch):
    scans, solves = _spy_scan(monkeypatch)
    result = run_ipa(build(), cache=False)
    monkeypatch.undo()

    pinned = json.loads(OUTCOME.read_text(encoding="utf-8"))["apps"]
    assert result.fingerprint() == pinned[result.original.name]["fingerprint"]
    _check_scans(scans, monkeypatch)
    # One conflict per scan round that ended on one.
    conflicts = sum(1 for scan in scans if scan[4].sat)
    assert conflicts == result.rounds - 1
    # A retired activation literal can never be re-enabled.
    assert len(solves) == len(scans)
    for solver, assumptions in solves:
        assert solver.solve(assumptions=assumptions) is False


def guarded_tournament_spec():
    """The tournament with an application guard on every operation.

    Every precondition in the four specs is ``true``, so only a guarded
    spec shows that a precondition stays out of a session's base: the
    session serves operations whose guards contradict each other.
    """
    spec = tournament_spec()

    def atom(name, *args):
        return Atom(spec.schema.pred(name), args)

    guards = {
        "add_player": lambda p: ~atom("player", p),
        "add_tourn": lambda t: ~atom("tournament", t),
        "rem_tourn": lambda t: ~atom("active", t),
        "enroll": lambda p, t: conj(
            [atom("player", p), ~atom("enrolled", p, t)]
        ),
        "disenroll": lambda p, t: atom("enrolled", p, t),
        "begin_tourn": lambda t: conj(
            [atom("tournament", t), ~atom("finished", t)]
        ),
        "finish_tourn": lambda t: atom("active", t),
        "do_match": lambda p, q, t: atom("active", t),
    }
    for name, guard in guards.items():
        op = spec.operation(name)
        spec.operations[name] = replace(op, precondition=guard(*op.params))
    return spec


def test_guarded_scan_verdicts_match_fresh_solver(monkeypatch):
    scans, _solves = _spy_scan(monkeypatch)
    witnesses = ConflictChecker(guarded_tournament_spec()).find_conflicts()
    monkeypatch.undo()
    assert witnesses
    _check_scans(scans, monkeypatch)


def test_sessions_outlive_a_scan():
    """A checker keeps its scan sessions: a second scan over the same
    operations builds no session and reaches the same witnesses."""
    spec = tournament_spec()
    checker = ConflictChecker(spec)
    first = [w.describe() for w in checker.find_conflicts()]
    sessions = len(checker._witness_sessions)
    assert 0 < sessions
    again = [w.describe() for w in checker.find_conflicts()]
    assert again == first
    assert len(checker._witness_sessions) == sessions
