"""Polarity-aware encoding: same verdicts, fewer clauses, unchanged witnesses.

:class:`~repro.solver.smt.IncrementalSession` encodes each formula at
its own polarity, so a gate carries only the directions its
occurrences need and gains the other one, once, when a later query
meets it negated.  That is admissible only if every session verdict
equals a fresh :class:`~repro.solver.smt.BoundedModelFinder`'s and a
brute-force evaluation's, across queries that reuse subformulas in
both polarities and retire their activation literals; if the gates
emit exactly the clauses their polarity needs; and if the finder,
which encodes full equivalences, still emits the clause stream, and so
runs the search and decodes the witness, it did before.  Node hashes
are memoised on the instance, so they must not travel to a process
whose string hashes are salted differently.

Hand-run mutants this file kills (each in a scratch copy of the tree):

- a gate that never adds its missing direction (``CnfBuilder._gate``
  returning a cached variable whatever directions it has emitted):
  ``TestGateDirections`` and ``TestSessionVerdicts``;
- a finder that encodes with one polarity
  (``BoundedModelFinder.check_ground`` encoding its formulas at
  ``POS``):
  ``TestFinderUnchanged``;
- ``SatSolver._propagate`` that forgets to move the replacement watch
  (no append to the new watched literal's list): ``TestFinderUnchanged``
  for every app, beside ``test_dpll_stress.py``'s pigeonhole and
  colouring cases (the session differential's formulas are too small
  to reach it);
- a ``_hash`` that survives pickling (``hash_once`` without its
  ``__getstate__``): both tests of ``TestHashAcrossProcesses``.
"""


from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.conflicts import ConflictChecker
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.logic.ast import (
    Add,
    And,
    Card,
    Cmp,
    Const,
    FalseF,
    Iff,
    Implies,
    IntConst,
    Not,
    Or,
    PredicateDecl,
    Sort,
    TrueF,
    Wildcard,
)
from repro.logic.grounding import Domain
from repro.solver.cnf import BOTH, NEG, POS, CnfBuilder
from repro.solver.dpll import SatSolver
from repro.solver.models import Model, evaluate
from repro.solver.smt import BoundedModelFinder, IncrementalSession

S = Sort("S")
C0, C1 = Const("c0", S), Const("c1", S)
DOMAIN = Domain({S: (C0, C1)})
P = PredicateDecl("p", (S,))
Q = PredicateDecl("q", (S,))
N = PredicateDecl("n", (S,), numeric=True)
ATOMS = (P(C0), P(C1), Q(C0), Q(C1))
NUMPREDS = (N(C0), N(C1))
#: Counters range over [-INT_BOUND, INT_BOUND] in the solver; the
#: brute force enumerates exactly that range.
INT_BOUND = 2
TERMS = (
    Card(P, (Wildcard(S),)),
    Card(Q, (C0,)),
    NUMPREDS[0],
    NUMPREDS[1],
    Add((NUMPREDS[0], Card(P, (Wildcard(S),)))),
    Add((NUMPREDS[0], NUMPREDS[1])),
)
#: Every state of the bounded domain.
MODELS = tuple(
    Model(domain=DOMAIN, atoms=dict(zip(ATOMS, bits)), numerics=dict(zip(NUMPREDS, values)))
    for bits in itertools.product((False, True), repeat=len(ATOMS))
    for values in itertools.product(range(-INT_BOUND, INT_BOUND + 1), repeat=len(NUMPREDS))
)

LEAVES = st.one_of(
    st.sampled_from(ATOMS),
    st.builds(
        Cmp,
        st.sampled_from(("<=", "<", ">=", ">", "==", "!=")),
        st.sampled_from(TERMS),
        st.integers(0, 4).map(IntConst),
    ),
    st.sampled_from((TrueF(), FalseF())),
)


def formulas(leaves):
    def extend(children):
        several = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, several),
            st.builds(Or, several),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def brute_force(tables: dict, *formulas) -> bool:
    """Does some state of the domain satisfy every formula?

    ``tables`` memoises each formula's truth value in every state.
    """
    columns = []
    for formula in formulas:
        column = tables.get(formula)
        if column is None:
            column = tables[formula] = [evaluate(formula, model) for model in MODELS]
        columns.append(column)
    return any(all(row) for row in zip(*columns))


class TestSessionVerdicts:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_verdict_is_the_finders_and_the_brute_forces(self, data):
        """Queries over shared subformulas, each met positively and
        negated in some order, all in one session."""
        base = data.draw(formulas(LEAVES), label="base")
        pool = data.draw(st.lists(formulas(LEAVES), min_size=2, max_size=3), label="pool")
        mixed = formulas(st.one_of(LEAVES, st.sampled_from(pool)))
        drawn = data.draw(
            st.lists(st.lists(mixed, min_size=1, max_size=2).map(tuple), min_size=1, max_size=3),
            label="queries",
        )
        forced = [(f,) for f in pool] + [(Not(f),) for f in pool]
        queries = data.draw(st.permutations(drawn + forced), label="order")
        session = IncrementalSession(DOMAIN, int_bound=INT_BOUND)
        session.assert_base(base)
        tables: dict = {}
        for query in queries:
            expected = brute_force(tables, base, *query)
            finder = BoundedModelFinder(DOMAIN, int_bound=INT_BOUND)
            assert finder.check_ground(base, *query).sat == expected
            assert session.check_under(*query) == expected, query
        assert session.solves == len(queries)


def recording(solver: SatSolver) -> list[list[int]]:
    """Record, in order, every clause added to ``solver``."""
    clauses: list[list[int]] = []
    add = solver.add_clause

    def spy(literals):
        clauses.append(list(literals))
        add(literals)

    solver.add_clause = spy
    return clauses


def recording_builder():
    """A builder whose clauses are recorded, and the atoms' literals."""
    solver = SatSolver()
    clauses = recording(solver)
    builder = CnfBuilder(solver)
    return builder, clauses, [builder.lit_for_atom(atom) for atom in ATOMS]


class TestGateDirections:
    """Operation counts: each polarity emits its own directions only."""

    def test_a_positive_gate_emits_one_direction(self):
        builder, clauses, (x, y, w, _) = recording_builder()
        g = builder.encode(And(ATOMS[:3]), POS)
        assert clauses == [[-g, x], [-g, y], [-g, w]]
        clauses.clear()
        h = builder.encode(Or(ATOMS[:3]), POS)
        assert clauses == [[-h, x, y, w]]

    def test_a_negative_gate_emits_the_other_direction(self):
        builder, clauses, (x, y, w, _) = recording_builder()
        g = -builder.encode(Not(And(ATOMS[:3])), POS)
        assert clauses == [[g, -x, -y, -w]]
        clauses.clear()
        h = builder.encode(Or(ATOMS[:3]), NEG)
        assert clauses == [[h, -x], [h, -y], [h, -w]]

    def test_a_gate_met_both_ways_gains_its_missing_clauses_once(self):
        builder, clauses, (x, y, w, v) = recording_builder()
        conj = And(ATOMS[:2])
        g = builder.encode(conj, POS)
        assert clauses == [[-g, x], [-g, y]]
        clauses.clear()
        # The antecedent of an implication occurs negatively.
        i = builder.encode(Implies(conj, ATOMS[2]), POS)
        assert clauses == [[g, -x, -y], [-i, -g, w]]
        clauses.clear()
        for formula, polarity in (
            (conj, POS),
            (Not(conj), POS),
            (conj, BOTH),
            (Implies(conj, ATOMS[2]), POS),
        ):
            builder.encode(formula, polarity)
        assert clauses == []
        # An equivalence needs both sides whole, whatever its polarity.
        disj = Or(ATOMS[2:])
        e = builder.encode(Iff(disj, ATOMS[0]), POS)
        d = builder.encode(disj, BOTH)
        assert clauses == [[d, -w], [d, -v], [-d, w, v], [-e, -d, x], [-e, d, -x]]

    def test_both_keeps_the_plain_tseitin_clause_order(self):
        builder, clauses, (x, y, w, _) = recording_builder()
        g = builder.tseitin(And(ATOMS[:2]))
        h = builder.tseitin(Or(ATOMS[:2]))
        e = builder.tseitin(Iff(ATOMS[0], ATOMS[2]))
        expected = [[-g, x], [-g, y], [g, -x, -y], [h, -x], [h, -y], [-h, x, y]]
        expected += [[-e, -x, w], [-e, x, -w], [e, x, w], [e, -x, -w]]
        assert clauses == expected

    def test_a_session_adds_a_missing_direction_once(self):
        session = IncrementalSession(DOMAIN, int_bound=INT_BOUND)
        added = recording(session._solver)
        conj = And((ATOMS[0], Not(ATOMS[1]), ATOMS[2]))
        session.assert_base(Or((ATOMS[3], ATOMS[0])))
        assert len(added) == 1 + 1  # one or-gate clause, one assertion
        for query, gate_clauses in ((conj, 3), (Not(conj), 1), (Not(conj), 0)):
            added.clear()
            session.check_under(query)
            # Gate clauses, the activation clause and its retirement.
            assert len(added) == gate_clauses + 2, query


def _first_witness_query(spec):
    """The finder and formulas of the first witness a conflict scan decodes."""
    calls = []
    check_ground = BoundedModelFinder.check_ground

    def spy(self, *formulas):
        calls.append((self, formulas))
        return check_ground(self, *formulas)

    BoundedModelFinder.check_ground = spy
    try:
        ConflictChecker(spec).find_first()
    finally:
        BoundedModelFinder.check_ground = check_ground
    return calls[0]


#: Per app, the first witness query of a cold conflict scan, re-solved
#: by a fresh finder: (clauses added, decisions, propagations,
#: conflicts, digest of the clause stream).  Recorded before sessions
#: became polarity-aware; the finder must not move.
FINDER_PINS = {
    "tournament": (tournament_spec, 844, 4, 299, 0, "e2088ad56bf098f6"),
    "ticket": (ticket_spec, 384, 7, 193, 1, "9cb9fc9b5052a08e"),
    "twitter": (twitter_spec, 377, 2, 144, 0, "0ae64238bee0d2f6"),
    "tpcw": (tpcw_spec, 4174, 6, 1162, 1, "484f6844eeab49bd"),
}


class TestFinderUnchanged:
    @pytest.mark.parametrize("app", sorted(FINDER_PINS))
    def test_the_witness_query_emits_and_searches_as_before(self, app, monkeypatch):
        spec, clauses, decisions, propagations, conflicts, digest = FINDER_PINS[app]
        finder, formulas = _first_witness_query(spec())
        stream: list[tuple[int, ...]] = []
        add = SatSolver.add_clause

        def spy(self, literals):
            stream.append(tuple(literals))
            add(self, literals)

        monkeypatch.setattr(SatSolver, "add_clause", spy)
        fresh = BoundedModelFinder(finder.domain, finder.params, finder._int_bound)
        assert fresh.check_ground(*formulas).sat
        counters = fresh.counters
        assert (
            len(stream),
            counters.decisions,
            counters.propagations,
            counters.conflicts,
            hashlib.sha256(repr(stream).encode()).hexdigest()[:16],
        ) == (clauses, decisions, propagations, conflicts, digest)


_DUMP = """
import pickle, sys
from repro.apps.tournament import tournament_spec
from repro.logic.ast import Atom, Const, PredicateDecl, Sort

player = Sort("Player")
atom = Atom(PredicateDecl("player", (player,)), (Const("p0", player),))
op = tournament_spec().operations["enroll"]
hash(atom), hash(op), [hash(e) for e in op.effects]
sys.stdout.buffer.write(pickle.dumps((atom, op)))
"""

_LOAD = """
import pickle, sys
from repro.apps.tournament import tournament_spec
from repro.logic.ast import Atom, Const, PredicateDecl, Sort

atom, op = pickle.loads(sys.stdin.buffer.read())
player = Sort("Player")
fresh_atom = Atom(PredicateDecl("player", (player,)), (Const("p0", player),))
fresh_op = tournament_spec().operations["enroll"]
assert atom == fresh_atom and op == fresh_op
assert {fresh_atom: 1}[atom] == 1 and {atom: 1}[fresh_atom] == 1
assert {fresh_op: 1}[op] == 1 and {op: 1}[fresh_op] == 1
assert {e: 1 for e in fresh_op.effects}[op.effects[0]] == 1
print("ok")
"""


class TestHashAcrossProcesses:
    def test_a_memoised_hash_is_left_out_of_pickles(self):
        atom = ATOMS[0]
        hash(atom)
        assert "_hash" in atom.__dict__
        copy = pickle.loads(pickle.dumps(atom))
        assert "_hash" not in copy.__dict__
        assert copy == atom and hash(copy) == hash(atom)

    def test_a_pickled_node_is_a_dict_key_under_another_hash_seed(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))

        def run(script, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", script],
                input=stdin,
                env=env,
                capture_output=True,
                check=True,
            ).stdout

        blob = run(_DUMP, "1")
        assert run(_LOAD, "2", stdin=blob).strip() == b"ok"
