"""State-transition encoding tests.

A state is encoded by copying its family's :class:`StateFrame` and
overwriting the positions its effects assign.  The contract: the result
renders exactly as the per-atom walk it replaced (:func:`reference_state`
below), so every solver-cache key is unchanged.  It is checked on hand
cases and on every query of a cold run of the four applications (scan,
pair, executability and solo-semantics queries), plus a scan of an LWW
spec, whose opposing assignments no application makes.

Hand-made mutants this file must kill:

- one frame shared across state families;
- an LWW-opposed atom kept as frame instead of left out;
- the frame list used without a copy, so one query's assignments leak
  into the next query's formula;
- numeric deltas not summed across both sides of the merge.
"""

import itertools
from collections import Counter

import pytest

from repro.analysis import conflicts
from repro.analysis.cache import canonical_query_text
from repro.analysis.conflicts import ConflictChecker
from repro.analysis.ipa import run_ipa
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.errors import AnalysisError
from repro.analysis.encoding import (
    GroundEffects,
    StateFrame,
    family,
    merged_state_constraints,
    rename_formula,
    single_state_constraints,
)
from repro.logic.ast import (
    Add,
    Atom,
    Card,
    Cmp,
    Const,
    ForAll,
    Iff,
    IntConst,
    Not,
    NumPred,
    PredicateDecl,
    Sort,
    Var,
    Wildcard,
    conj,
)
from repro.logic.grounding import Domain
from repro.solver.smt import BoundedModelFinder
from repro.spec import SpecBuilder
from repro.spec.effects import BoolEffect, ConvergenceRules, NumEffect
from repro.spec.effects import ConvergencePolicy

P = Sort("Player")
T = Sort("Tournament")
tournament = PredicateDecl("tournament", (T,))
enrolled = PredicateDecl("enrolled", (P, T))
stock = PredicateDecl("stock", (T,), numeric=True)
PREDS = [tournament, enrolled, stock]
DOMAIN = Domain.of_sizes({P: 2, T: 1})
p0, p1 = DOMAIN.of(P)
(t0,) = DOMAIN.of(T)


class TestFamilyRenaming:
    def test_family_is_deterministic(self):
        assert family(tournament, "m") == family(tournament, "m")
        assert family(tournament, "m").name == "tournament@m"

    def test_empty_tag_is_identity(self):
        assert family(tournament, "") is tournament

    def test_rename_formula(self):
        t = Var("t", T)
        formula = ForAll((t,), Atom(tournament, (t,)))
        renamed = rename_formula(formula, "1")
        assert renamed.body.pred.name == "tournament@1"

    def test_rename_numeric(self):
        formula = Cmp(">=", NumPred(stock, (t0,)), IntConst(0))
        renamed = rename_formula(formula, "2")
        assert renamed.lhs.pred.name == "stock@2"

    def test_rename_card(self):
        formula = Cmp(
            "<=", Card(enrolled, (Wildcard(P), t0)), IntConst(1)
        )
        renamed = rename_formula(formula, "m")
        assert renamed.lhs.pred.name == "enrolled@m"


class TestGroundEffects:
    def test_specific_assignment(self):
        effects = GroundEffects.from_effects(
            [BoolEffect(enrolled, (p0, t0), value=True)], DOMAIN
        )
        assert effects.bool_assigns == {Atom(enrolled, (p0, t0)): True}

    def test_wildcard_expansion(self):
        effects = GroundEffects.from_effects(
            [BoolEffect(enrolled, (Wildcard(P), t0), value=False)], DOMAIN
        )
        assert effects.bool_assigns == {
            Atom(enrolled, (p0, t0)): False,
            Atom(enrolled, (p1, t0)): False,
        }

    def test_specific_overrides_wildcard(self):
        effects = GroundEffects.from_effects(
            [
                BoolEffect(enrolled, (Wildcard(P), t0), value=False),
                BoolEffect(enrolled, (p0, t0), value=True),
            ],
            DOMAIN,
        )
        assert effects.bool_assigns[Atom(enrolled, (p0, t0))] is True
        assert effects.bool_assigns[Atom(enrolled, (p1, t0))] is False

    def test_contradictory_specific_assignments_rejected(self):
        with pytest.raises(AnalysisError):
            GroundEffects.from_effects(
                [
                    BoolEffect(enrolled, (p0, t0), value=True),
                    BoolEffect(enrolled, (p0, t0), value=False),
                ],
                DOMAIN,
            )

    def test_numeric_deltas_accumulate(self):
        effects = GroundEffects.from_effects(
            [NumEffect(stock, (t0,), delta=2), NumEffect(stock, (t0,), -1)],
            DOMAIN,
        )
        assert effects.num_deltas == {NumPred(stock, (t0,)): 1}


def solve(domain, *formulas):
    return BoundedModelFinder(domain, int_bound=8).check(*formulas)


class TestSingleStateConstraints:
    def test_assignment_pins_post_atom(self):
        effects = GroundEffects.from_effects(
            [BoolEffect(tournament, (t0,), value=False)], DOMAIN
        )
        constraints = single_state_constraints(
            StateFrame("1", PREDS, DOMAIN), effects
        )
        post_atom = Atom(family(tournament, "1"), (t0,))
        result = solve(DOMAIN, constraints, post_atom)
        assert not result.sat  # cannot be true: the effect pins it false

    def test_frame_preserves_unassigned(self):
        effects = GroundEffects.from_effects([], DOMAIN)
        constraints = single_state_constraints(
            StateFrame("1", PREDS, DOMAIN), effects
        )
        pre = Atom(tournament, (t0,))
        post = Atom(family(tournament, "1"), (t0,))
        assert not solve(DOMAIN, constraints, pre, ~post).sat
        assert not solve(DOMAIN, constraints, ~pre, post).sat

    def test_numeric_delta_applied(self):
        effects = GroundEffects.from_effects(
            [NumEffect(stock, (t0,), delta=3)], DOMAIN
        )
        constraints = single_state_constraints(
            StateFrame("1", PREDS, DOMAIN), effects
        )
        result = solve(
            DOMAIN,
            constraints,
            Cmp("==", NumPred(stock, (t0,)), IntConst(2)),
        )
        assert result.sat
        post = NumPred(family(stock, "1"), (t0,))
        assert result.model.value(post) == 5


class TestMergedStateConstraints:
    def _merged(self, effects1, effects2, rules):
        return merged_state_constraints(
            StateFrame("m", PREDS, DOMAIN),
            GroundEffects.from_effects(effects1, DOMAIN),
            GroundEffects.from_effects(effects2, DOMAIN),
            rules,
        )

    def test_opposing_add_wins(self):
        rules = ConvergenceRules()  # default add-wins
        constraints = self._merged(
            [BoolEffect(tournament, (t0,), value=True)],
            [BoolEffect(tournament, (t0,), value=False)],
            rules,
        )
        merged_atom = Atom(family(tournament, "m"), (t0,))
        assert not solve(DOMAIN, constraints, ~merged_atom).sat

    def test_opposing_rem_wins(self):
        rules = ConvergenceRules()
        rules.set("tournament", ConvergencePolicy.REM_WINS)
        constraints = self._merged(
            [BoolEffect(tournament, (t0,), value=True)],
            [BoolEffect(tournament, (t0,), value=False)],
            rules,
        )
        merged_atom = Atom(family(tournament, "m"), (t0,))
        assert not solve(DOMAIN, constraints, merged_atom).sat

    def test_lww_leaves_atom_unconstrained(self):
        rules = ConvergenceRules(default=ConvergencePolicy.LWW)
        constraints = self._merged(
            [BoolEffect(tournament, (t0,), value=True)],
            [BoolEffect(tournament, (t0,), value=False)],
            rules,
        )
        merged_atom = Atom(family(tournament, "m"), (t0,))
        assert solve(DOMAIN, constraints, merged_atom).sat
        assert solve(DOMAIN, constraints, ~merged_atom).sat

    def test_single_sided_effect_applies(self):
        rules = ConvergenceRules()
        constraints = self._merged(
            [BoolEffect(tournament, (t0,), value=False)], [], rules
        )
        merged_atom = Atom(family(tournament, "m"), (t0,))
        assert not solve(DOMAIN, constraints, merged_atom).sat

    def test_concurrent_numeric_deltas_sum(self):
        rules = ConvergenceRules()
        constraints = self._merged(
            [NumEffect(stock, (t0,), delta=-1)],
            [NumEffect(stock, (t0,), delta=-2)],
            rules,
        )
        result = solve(
            DOMAIN,
            constraints,
            Cmp("==", NumPred(stock, (t0,)), IntConst(1)),
        )
        assert result.sat
        merged = NumPred(family(stock, "m"), (t0,))
        assert result.model.value(merged) == -2


# -- the reference: the per-atom walk the frame tables replace ---------------


def _ground_terms(preds, domain, numeric):
    for pred in preds:
        if pred.numeric == numeric:
            pools = [domain.of(sort) for sort in pred.arg_sorts]
            for args in itertools.product(*pools):
                yield pred, args


def reference_state(tag, preds, domain, effects1, effects2=None, rules=None):
    """State ``tag`` after ``effects1`` alone, or merged with ``effects2``."""
    assigns2 = effects2.bool_assigns if effects2 else {}
    deltas2 = effects2.num_deltas if effects2 else {}
    parts = []
    for pred, args in _ground_terms(preds, domain, numeric=False):
        atom, renamed = Atom(pred, args), Atom(family(pred, tag), args)
        v1, v2 = effects1.bool_assigns.get(atom), assigns2.get(atom)
        if v1 is None and v2 is None:
            parts.append(Iff(renamed, atom))
            continue
        if v1 is None or v2 is None or v1 == v2:
            value = v1 if v1 is not None else v2
        else:
            value = rules.merged_value(pred)
            if value is None:
                continue  # LWW: either value may win; leave unconstrained
        parts.append(renamed if value else Not(renamed))
    for pred, args in _ground_terms(preds, domain, numeric=True):
        numpred = NumPred(pred, args)
        renamed = NumPred(family(pred, tag), args)
        delta = effects1.num_deltas.get(numpred, 0) + deltas2.get(numpred, 0)
        rhs = Add((numpred, IntConst(delta))) if delta else numpred
        parts.append(Cmp("==", renamed, rhs))
    return conj(parts)


def _effects(*effects):
    return GroundEffects.from_effects(effects, DOMAIN)


class TestFrameTables:
    def test_empty_effects_give_the_frame(self):
        frame = StateFrame("1", PREDS, DOMAIN)
        assert len(frame.frame) == 1 + 2 + 1
        assert single_state_constraints(frame, _effects()) == (
            reference_state("1", PREDS, DOMAIN, _effects())
        )

    @pytest.mark.parametrize("policy", list(ConvergencePolicy))
    def test_opposing_assignments_match_reference(self, policy):
        rules = ConvergenceRules(default=policy)
        e1 = _effects(
            BoolEffect(tournament, (t0,), value=True),
            BoolEffect(enrolled, (p0, t0), value=True),
        )
        e2 = _effects(
            BoolEffect(tournament, (t0,), value=False),
            BoolEffect(enrolled, (Wildcard(P), t0), value=False),
        )
        merged = merged_state_constraints(
            StateFrame("m", PREDS, DOMAIN), e1, e2, rules
        )
        assert str(merged) == str(
            reference_state("m", PREDS, DOMAIN, e1, e2, rules)
        )

    def test_lww_opposed_atom_is_left_out(self):
        e1 = _effects(BoolEffect(tournament, (t0,), value=True))
        e2 = _effects(BoolEffect(tournament, (t0,), value=False))
        merged = merged_state_constraints(
            StateFrame("m", PREDS, DOMAIN), e1, e2,
            ConvergenceRules(default=ConvergencePolicy.LWW),
        )
        assert "tournament@m" not in str(merged)
        assert "enrolled@m" in str(merged)

    def test_deltas_sum_across_both_sides(self):
        e1 = _effects(NumEffect(stock, (t0,), delta=-1))
        e2 = _effects(NumEffect(stock, (t0,), delta=-2))
        merged = merged_state_constraints(
            StateFrame("m", PREDS, DOMAIN), e1, e2, ConvergenceRules()
        )
        assert str(merged).endswith("stock@m(tournament0) == "
                                    "stock(tournament0) + -3)")
        assert merged == reference_state(
            "m", PREDS, DOMAIN, e1, e2, ConvergenceRules()
        )

    def test_cancelling_deltas_keep_the_frame(self):
        e1 = _effects(NumEffect(stock, (t0,), delta=2))
        e2 = _effects(NumEffect(stock, (t0,), delta=-2))
        frame = StateFrame("m", PREDS, DOMAIN)
        merged = merged_state_constraints(frame, e1, e2, ConvergenceRules())
        assert merged.args[-1] is frame.frame[-1]

    def test_a_query_leaves_the_frame_untouched(self):
        """Two queries on one frame: the second sees none of the first's
        assignments, and the first's formula does not change."""
        frame = StateFrame("1", PREDS, DOMAIN)
        assigned = _effects(
            BoolEffect(enrolled, (Wildcard(P), t0), value=True),
            NumEffect(stock, (t0,), delta=1),
        )
        first = single_state_constraints(frame, assigned)
        text = str(first)
        second = single_state_constraints(frame, _effects())
        assert str(first) == text
        assert second == reference_state("1", PREDS, DOMAIN, _effects())

    def test_families_do_not_share_a_frame(self):
        effects = _effects(BoolEffect(tournament, (t0,), value=False))
        for tag in ("1", "2", "m"):
            encoded = single_state_constraints(
                StateFrame(tag, PREDS, DOMAIN), effects
            )
            assert encoded == reference_state(tag, PREDS, DOMAIN, effects)


class TestOutOfFrame:
    """An effect on a term the frame does not hold is an error, named,
    not an assignment silently dropped."""

    banned = PredicateDecl("banned", (P,))

    def test_unknown_predicate_in_single_state(self):
        effects = _effects(BoolEffect(self.banned, (p0,), value=True))
        with pytest.raises(AnalysisError, match=r"banned\(player0\).*'1'"):
            single_state_constraints(StateFrame("1", PREDS, DOMAIN), effects)

    def test_unknown_predicate_on_either_side_of_a_merge(self):
        stray = _effects(BoolEffect(self.banned, (p1,), value=False))
        frame = StateFrame("m", PREDS, DOMAIN)
        for e1, e2 in ((stray, _effects()), (_effects(), stray)):
            with pytest.raises(AnalysisError, match=r"banned\(player1\).*'m'"):
                merged_state_constraints(frame, e1, e2, ConvergenceRules())

    def test_constant_outside_the_domain(self):
        stranger = Const("player7", P)
        effects = _effects(BoolEffect(enrolled, (stranger, t0), value=True))
        with pytest.raises(AnalysisError, match=r"enrolled\(player7, "):
            single_state_constraints(StateFrame("2", PREDS, DOMAIN), effects)

    def test_unknown_numeric_term(self):
        budget = PredicateDecl("budget", (P,), numeric=True)
        effects = _effects(NumEffect(budget, (p0,), delta=5))
        with pytest.raises(AnalysisError, match=r"budget\(player0\).*'1'"):
            single_state_constraints(StateFrame("1", PREDS, DOMAIN), effects)


# -- every query of a real run against the reference --------------------------

APPS = {
    "ticket": ticket_spec,
    "tpcw": tpcw_spec,
    "twitter": twitter_spec,
    "tournament": tournament_spec,
}

#: The state slots of each query kind, by query length: (slot, family).
STATE_SLOTS = {
    9: ((3, "1"), (4, "2"), (7, "m")),  # scan and pair
    4: ((2, "1"),),  # executability
    5: ((2, "1"),),  # solo semantics
}


def _record_queries(monkeypatch) -> Counter:
    """Check every query against its reference as it is issued.

    The state encoders record what they were given; at the verdict each
    state slot is re-encoded by :func:`reference_state`, with the family
    its slot position implies, and the two queries' canonical texts must
    be equal.  Returns the number of queries checked per kind.
    """
    pending: list[tuple] = []
    checked: Counter = Counter()
    single, merged = (
        conflicts.single_state_constraints,
        conflicts.merged_state_constraints,
    )

    def spy_single(frame, effects):
        encoded = single(frame, effects)
        pending.append((encoded, (effects,)))
        return encoded

    def spy_merged(frame, effects1, effects2, rules):
        encoded = merged(frame, effects1, effects2, rules)
        pending.append((encoded, (effects1, effects2, rules)))
        return encoded

    verdict = ConflictChecker._verdict

    def spy_verdict(self, domain, query, base_slots, sessions, key,
                    need_model=False):
        preds = list(self.spec.schema.predicates.values())
        reference = list(query)
        for slot, tag in STATE_SLOTS[len(query)]:
            (inputs,) = [
                args for encoded, args in pending if encoded is query[slot]
            ]
            reference[slot] = reference_state(tag, preds, domain, *inputs)
        assert len(pending) == len(STATE_SLOTS[len(query)])
        pending.clear()
        texts = [
            canonical_query_text(domain, self.params, self._int_bound, q)
            for q in (query, reference)
        ]
        assert texts[0] == texts[1], key
        kind = {9: "pair", 4: "executable", 5: "solo"}[len(query)]
        checked["scan" if need_model else kind] += 1
        return verdict(
            self, domain, query, base_slots, sessions, key, need_model
        )

    monkeypatch.setattr(conflicts, "single_state_constraints", spy_single)
    monkeypatch.setattr(conflicts, "merged_state_constraints", spy_merged)
    monkeypatch.setattr(ConflictChecker, "_verdict", spy_verdict)
    return checked


@pytest.mark.parametrize("name", list(APPS))
def test_every_query_encodes_as_the_reference(name, monkeypatch):
    spec = APPS[name]()
    checked = _record_queries(monkeypatch)
    result = run_ipa(spec, cache=False)
    monkeypatch.undo()
    assert sum(checked.values()) == result.solver_queries
    assert set(checked) == {"scan", "pair", "executable", "solo"}


def lww_flags_spec():
    """Two flags that must not both hold, each operation raising one
    and lowering the other, under last-writer-wins."""
    builder = SpecBuilder("lww-flags")
    builder.predicate("active", "Tournament")
    builder.predicate("finished", "Tournament")
    builder.invariant(
        "forall(Tournament: t) :- not (active(t) and finished(t))"
    )
    builder.operation(
        "begin", "Tournament: t", true=["active(t)"], false=["finished(t)"]
    )
    builder.operation(
        "finish", "Tournament: t", true=["finished(t)"], false=["active(t)"]
    )
    return builder.build(default_rule="lww")


def test_lww_scan_encodes_as_the_reference(monkeypatch):
    checked = _record_queries(monkeypatch)
    witnesses = ConflictChecker(lww_flags_spec()).find_conflicts()
    monkeypatch.undo()
    assert [w.pair for w in witnesses] == [("begin", "finish")]
    assert checked["scan"] > 0


# -- operation-count guard: a warm pass builds each frame once ----------------

#: Frame tables one ``run_ipa`` builds: one per (family, domain shape)
#: its queries visit, however many queries that is.
FRAME_TABLES = {"ticket": 18, "tpcw": 12, "twitter": 33, "tournament": 30}


@pytest.mark.parametrize("name", list(APPS))
def test_warm_pass_builds_each_frame_once(name, tmp_path, monkeypatch):
    """No wall clock: on a warm cache, where no query is solved, the
    ``<=>`` frame nodes built are exactly those of the tables the checker
    built, not one per ground atom per query."""
    cache_dir = tmp_path / "cache"
    run_ipa(APPS[name](), cache_dir=cache_dir)
    spec = APPS[name]()
    tables: list[StateFrame] = []
    frame_init = StateFrame.__init__

    def counted_frame(self, *args):
        frame_init(self, *args)
        tables.append(self)

    built = [0]
    iff_init = Iff.__init__

    def counted_iff(self, *args):
        built[0] += 1
        iff_init(self, *args)

    monkeypatch.setattr(StateFrame, "__init__", counted_frame)
    monkeypatch.setattr(Iff, "__init__", counted_iff)
    warm = run_ipa(spec, cache_dir=cache_dir)
    monkeypatch.undo()

    assert warm.stats.solver_solves == 0
    assert built[0] == sum(len(table.atom_index) for table in tables)
    assert len(tables) == FRAME_TABLES[name]
