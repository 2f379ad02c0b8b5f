"""Differential proof that the one evaluator matches the product loop.

``InvariantOracle.check`` loads an :class:`InvariantWatch`, which
judges each indexed invariant one instance at a time and runs the
product loop only for the rest.  It is admissible only if every
verdict, every witness binding, every violation ordering and every
trial fingerprint equals the product loop's
(:func:`~repro.check.oracles.reference_check`).  This suite drives
both with

- hypothesis-generated random formulas (nested quantifiers including
  shadowed re-binding, cardinalities with wildcards, numeric sums,
  every connective) over random interpretations, indexed and not;
- hypothesis-generated *guarded* invariants ``forall x :- P(x) => Q``:
  the shapes whose instances come from ``P``'s rows, and the
  near-misses (constant or repeated variable in the guard, a binder the
  guard leaves out, a sort mismatch) that must keep the product loop;
- the incremental watch after every model change;
- hand-picked regression shapes the generator is unlikely to weight
  (colliding variable names across sorts, empty domains, witness
  truncation);
- full ``run_trial`` runs per app/config, asserting byte-identical
  fingerprints between ``check`` and the reference.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import build_trial, run_trial
from repro.check.oracles import (
    Interpretation,
    InvariantOracle,
    InvariantWatch,
    _guard_atom,
    eval_formula,
    instance_index,
    reference_check,
)
from repro.logic.ast import (
    Add,
    And,
    Card,
    Cmp,
    Const,
    Exists,
    ForAll,
    Iff,
    Implies,
    IntConst,
    Not,
    NumPred,
    Or,
    Param,
    PredicateDecl,
    Sort,
    Var,
    Wildcard,
)
from repro.obs import REGISTRY
from repro.spec.application import ApplicationSpec
from repro.spec.invariants import Invariant
from repro.spec.predicates import Schema

A = Sort("A")
B = Sort("B")
VA = Var("a", A)
VB = Var("b", B)
#: Same *name* as VA but a different sort: witness pairs then sort by
#: value, not by variable name.
VA2 = Var("a", B)
#: A second A-sorted variable, for guards over a same-sort predicate.
VC = Var("c", A)


def build_fuzz_schema() -> Schema:
    schema = Schema("fuzz")
    schema.sort("A")
    schema.sort("B")
    schema.predicate("p", "A")
    schema.predicate("q", "A", "B")
    schema.predicate("r", "B")
    schema.predicate("s", "A", "A")
    schema.predicate("n", "A", numeric=True)
    schema.predicate("m", "A", "B", numeric=True)
    schema.parameter("P", 3)
    return schema


SCHEMA = build_fuzz_schema()
P_PRED = SCHEMA.predicates["p"]
Q_PRED = SCHEMA.predicates["q"]
R_PRED = SCHEMA.predicates["r"]
S_PRED = SCHEMA.predicates["s"]
#: Shares a name with the schema's ``p(A)`` but not its sorts.
FOREIGN_P = PredicateDecl("p", (B,))
N_PRED = SCHEMA.predicates["n"]
M_PRED = SCHEMA.predicates["m"]

A_NAMES = ("x0", "x1", "x2", "x3")
B_NAMES = ("y0", "y1", "y2")

#: Witness limits: 0 (the product loop appends before it tests the
#: count, so it still yields one), 1 and the default 5.
WITNESS_LIMITS = st.sampled_from((0, 1, 5))


def spec_of(formula, name: str = "") -> ApplicationSpec:
    return ApplicationSpec(
        schema=SCHEMA, invariants=[Invariant(formula, name=name)]
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def leaves():
    num_atoms = [
        NumPred(N_PRED, (VA,)),
        NumPred(M_PRED, (VA, VB)),
        NumPred(N_PRED, (Const("x1", A),)),
        Card(Q_PRED, (VA, Wildcard(B))),
        Card(Q_PRED, (Wildcard(A), VB)),
        Card(P_PRED, (Wildcard(A),)),
        Card(Q_PRED, (Const("x0", A), VB)),
        Param("P"),
        IntConst(2),
    ]
    nums = st.one_of(
        st.sampled_from(num_atoms),
        st.builds(
            lambda t, u: Add((t, u)),
            st.sampled_from(num_atoms),
            st.sampled_from(num_atoms),
        ),
    )
    cmps = st.builds(
        Cmp,
        st.sampled_from(("<=", "<", ">=", ">", "==", "!=")),
        nums,
        nums,
    )
    atoms = st.sampled_from(
        [
            P_PRED(VA),
            Q_PRED(VA, VB),
            R_PRED(VB),
            P_PRED(Const("x2", A)),
            Q_PRED(VA, Const("y0", B)),
        ]
    )
    return st.one_of(atoms, cmps)


def bodies():
    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda x, y: And((x, y)), children, children),
            st.builds(lambda x, y: Or((x, y)), children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            # Re-binding VA / VB inside the body shadows the outer
            # binder -- the interpreter and the generated locals must
            # agree on inner-wins semantics.
            st.builds(lambda x: ForAll((VA,), x), children),
            st.builds(lambda x: Exists((VB,), x), children),
            st.builds(lambda x: Exists((VA, VB), x), children),
        )

    return st.recursive(leaves(), extend, max_leaves=10)


def invariants():
    return st.one_of(
        st.builds(lambda x: ForAll((VA, VB), x), bodies()),
        st.builds(lambda x: ForAll((VB, VA), x), bodies()),
        st.builds(lambda x: Exists((VA, VB), x), bodies()),
        st.builds(lambda x: Not(Exists((VA, VB), x)), bodies()),
    )


#: (builder, takes the guard-driven path) per guarded shape.  Bodies
#: mention VA and VB; shapes that bind only VA close VB themselves.
GUARDED_SHAPES = (
    (lambda x: ForAll((VA, VB), Implies(Q_PRED(VA, VB), x)), True),
    # Guard arguments in non-binder order: rows unpack as (a, b) while
    # witnesses and their sort order follow the binders (b, a).
    (lambda x: ForAll((VB, VA), Implies(Q_PRED(VA, VB), x)), True),
    (lambda x: ForAll((VA,), Implies(P_PRED(VA), Exists((VB,), x))), True),
    (
        lambda x: ForAll(
            (VC, VA), Implies(S_PRED(VA, VC), Exists((VB,), x))
        ),
        True,
    ),
    # Near-misses: each must keep the product loop.
    (  # a repeated variable
        lambda x: ForAll((VA,), Implies(S_PRED(VA, VA), Exists((VB,), x))),
        False,
    ),
    (  # a constant in the guard
        lambda x: ForAll(
            (VA,),
            Implies(Q_PRED(VA, Const("y0", B)), Exists((VB,), x)),
        ),
        False,
    ),
    (  # a binder the guard leaves out
        lambda x: ForAll((VA, VB), Implies(P_PRED(VA), x)),
        False,
    ),
    (
        lambda x: ForAll(
            (VA2,), Implies(R_PRED(VA2), Exists((VA, VB), x))
        ),
        True,
    ),
    (  # same, but over a "p" the schema declares differently: p's
        # rows are A-constants the B-sorted binder never ranges over
        lambda x: ForAll(
            (VA2,), Implies(FOREIGN_P(VA2), Exists((VA, VB), x))
        ),
        False,
    ),
)


def guarded_invariants():
    # Flat bodies let the first two shapes be indexed: their instances
    # come from the guard's rows.
    return st.builds(
        lambda shape, body: (shape[0](body), shape[1]),
        st.sampled_from(GUARDED_SHAPES),
        st.one_of(bodies(), flat_bodies()),
    )


def has_guard(formula) -> bool:
    return _guard_atom(formula, SCHEMA) is not None


def interpretations():
    def build(p_rows, q_rows, r_rows, s_rows, n_cells, m_cells, param):
        return Interpretation(
            relations={
                "p": {(x,) for x in p_rows},
                "q": set(q_rows),
                "r": {(y,) for y in r_rows},
                "s": set(s_rows),
            },
            numerics={
                "n": {(x,): v for x, v in n_cells.items()},
                "m": dict(m_cells),
            },
            params={"P": param},
        )

    pairs = st.tuples(
        st.sampled_from(A_NAMES), st.sampled_from(B_NAMES)
    )
    return st.builds(
        build,
        st.sets(st.sampled_from(A_NAMES)),
        st.sets(pairs),
        st.sets(st.sampled_from(B_NAMES)),
        st.sets(
            st.tuples(st.sampled_from(A_NAMES), st.sampled_from(A_NAMES))
        ),
        st.dictionaries(
            st.sampled_from(A_NAMES), st.integers(-3, 6), max_size=4
        ),
        st.dictionaries(pairs, st.integers(-3, 6), max_size=6),
        st.integers(0, 5),
    )


def check_both(spec, interp, max_witnesses=5):
    """(``check``, reference) violation lists over isolated copies."""
    oracle = InvariantOracle(spec, max_witnesses=max_witnesses)
    checked = oracle.check(copy.deepcopy(interp), "r0")
    reference = reference_check(oracle, copy.deepcopy(interp), "r0")
    return checked, reference


def flat_bodies():
    """Bodies without nested quantifiers: the shapes the instance
    index answers per instance (wildcards, constants in reads, reads
    that bind only some binders, binder-free reads among them)."""

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda x, y: And((x, y)), children, children),
            st.builds(lambda x, y: Or((x, y)), children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    return st.recursive(leaves(), extend, max_leaves=6)


def a_bodies():
    """Flat bodies over ``a`` alone: single-binder product loops, whose
    instances enter and leave with the A pool."""
    nums = st.sampled_from(
        [
            NumPred(N_PRED, (VA,)),
            Card(Q_PRED, (VA, Wildcard(B))),
            Card(S_PRED, (Wildcard(A), VA)),
            Param("P"),
            IntConst(1),
        ]
    )
    leaf = st.one_of(
        st.sampled_from(
            [P_PRED(VA), S_PRED(VA, VA), S_PRED(VA, Const("x0", A))]
        ),
        st.builds(Cmp, st.sampled_from(("<=", ">=", "!=")), nums, nums),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda x, y: And((x, y)), children, children),
            st.builds(lambda x, y: Or((x, y)), children, children),
        )

    return st.recursive(leaf, extend, max_leaves=4)


def watched_invariants():
    return st.one_of(
        invariants(),
        guarded_invariants().map(lambda shaped: shaped[0]),
        st.builds(lambda x: ForAll((VA, VB), x), flat_bodies()),
        st.builds(lambda x: ForAll((VA,), x), a_bodies()),
        st.builds(
            lambda x: ForAll((VA, VB), Implies(Q_PRED(VA, VB), x)),
            flat_bodies(),
        ),
        # Guard arguments in non-binder order.
        st.builds(
            lambda x: ForAll((VB, VA), Implies(Q_PRED(VA, VB), x)),
            flat_bodies(),
        ),
    )


# ---------------------------------------------------------------------------
# Hypothesis differential suite
# ---------------------------------------------------------------------------


class TestRandomFormulas:
    @given(watched_invariants(), interpretations(), WITNESS_LIMITS)
    @settings(max_examples=150, deadline=None)
    def test_verdicts_and_witnesses_agree(self, formula, interp, max_w):
        spec = spec_of(formula)
        checked, reference = check_both(spec, interp, max_witnesses=max_w)
        assert checked == reference

    @given(guarded_invariants(), interpretations(), WITNESS_LIMITS)
    @settings(max_examples=250, deadline=None)
    def test_guarded_invariants_agree_on_either_path(
        self, shaped, interp, max_w
    ) -> None:
        formula, guard_driven = shaped
        spec = spec_of(formula)
        assert has_guard(formula) == guard_driven
        index = instance_index(formula, SCHEMA)
        if index is not None:
            assert (index.guard is not None) == guard_driven
        checked, reference = check_both(spec, interp, max_witnesses=max_w)
        assert checked == reference

    @given(watched_invariants(), interpretations())
    @settings(max_examples=100, deadline=None)
    def test_eval_formula_agrees_with_check_verdict(
        self, formula, interp
    ) -> None:
        spec = spec_of(formula)
        interp.params = dict(interp.params) or {"P": 3}
        holds = eval_formula(formula, interp, interp.domain(spec))
        checked, _ = check_both(spec, interp)
        assert holds == (not checked)

    @given(watched_invariants(), interpretations())
    @settings(max_examples=60, deadline=None)
    def test_check_is_deterministic_across_instances(
        self, formula, interp
    ) -> None:
        spec = spec_of(formula)
        first = InvariantOracle(spec).check(copy.deepcopy(interp), "r0")
        second = InvariantOracle(spec).check(copy.deepcopy(interp), "r0")
        assert first == second


def move(model: Interpretation, target: Interpretation) -> list:
    """Bring ``model`` to ``target`` the way a live view does, returning
    the net ``(pred, row, step)`` changes."""
    changes = []
    for name, rows in target.relations.items():
        have = model.relations[name]
        for row in list(have - rows):
            model.remove(name, row)
            changes.append((name, row, -1))
        for row in rows - have:
            model.insert(name, row)
            changes.append((name, row, 1))
    for name, cells in target.numerics.items():
        have = model.numerics[name]
        for key in [key for key in have if key not in cells]:
            del have[key]
            changes.append((name, key, -1))
        for key, value in cells.items():
            old = have.get(key)
            if old != value:
                have[key] = value
                changes.append((name, key, 0 if old is not None else 1))
    return changes


def toggles():
    """One small model edit: a row in or out, a cell set or dropped."""
    a, b = st.sampled_from(A_NAMES), st.sampled_from(B_NAMES)
    cell = st.one_of(st.none(), st.integers(-3, 6))
    return st.one_of(
        st.tuples(st.just("p"), st.tuples(a)),
        st.tuples(st.just("q"), st.tuples(a, b)),
        st.tuples(st.just("r"), st.tuples(b)),
        st.tuples(st.just("s"), st.tuples(a, a)),
        st.tuples(st.just("n"), st.tuples(a), cell),
        st.tuples(st.just("m"), st.tuples(a, b), cell),
    )


def edited(state: Interpretation, edits) -> Interpretation:
    state = copy.deepcopy(state)
    for pred, row, *value in edits:
        if value:
            cells = state.numerics[pred]
            if value[0] is None:
                cells.pop(row, None)
            else:
                cells[row] = value[0]
        else:
            state.relations[pred] ^= {row}
    return state


class TestInstanceWatch:
    """The incremental watch reports what the product loop reports,
    after every model change: many small edits (one to three facts)
    and a few wholesale ones."""

    @given(
        watched_invariants(),
        interpretations(),
        st.lists(
            st.one_of(
                st.lists(toggles(), min_size=1, max_size=3),
                interpretations(),
            ),
            min_size=1,
            max_size=10,
        ),
        WITNESS_LIMITS,
    )
    @settings(max_examples=250, deadline=None)
    def test_watch_equals_full_check_after_every_change(
        self, formula, start, steps, max_w
    ) -> None:
        spec = spec_of(formula)
        oracle = InvariantOracle(spec, max_witnesses=max_w)
        model = copy.deepcopy(start)
        watch = InvariantWatch(oracle, model, "r0")
        watch.load()
        state = start
        for step in steps:
            if isinstance(step, Interpretation):
                state = copy.deepcopy(step)
                state.params = dict(start.params)
            else:
                state = edited(state, step)
            watch.apply(move(model, state))
            full = reference_check(oracle, copy.deepcopy(state), "r0")
            assert watch.violations() == full

    def test_a_constant_leaving_the_pool_drops_its_instance(self) -> None:
        # x0 is in the A pool only through q(x0, y0).  Dropping that row
        # changes no fact the body reads, but x0 leaves the pool, so its
        # falsified instance must go with it.
        formula = ForAll((VA,), Cmp(">=", NumPred(N_PRED, (VA,)), IntConst(1)))
        oracle = InvariantOracle(spec_of(formula))
        start = Interpretation(
            relations={"p": set(), "q": {("x0", "y0")}, "r": set(), "s": set()},
            numerics={"n": {}, "m": {}},
            params={"P": 3},
        )
        model = copy.deepcopy(start)
        watch = InvariantWatch(oracle, model, "r0")
        watch.load()
        assert watch.violations() == reference_check(
            oracle, copy.deepcopy(start), "r0"
        )
        assert watch.violations()
        state = edited(start, [("q", ("x0", "y0"))])
        watch.apply(move(model, state))
        assert watch.violations() == reference_check(oracle, state, "r0") == []


# ---------------------------------------------------------------------------
# Targeted regression shapes
# ---------------------------------------------------------------------------


class TestRegressionShapes:
    def test_shadowed_rebinding_inner_wins(self) -> None:
        # forall a. exists a. p(a): the inner binder must fully shadow
        # the outer one, so the formula holds whenever *any* A-constant
        # satisfies p, regardless of the outer iterate.
        formula = ForAll((VA,), Exists((VA,), P_PRED(VA)))
        interp = Interpretation(
            relations={
                "p": {("x1",)},
                "q": {("x0", "y0"), ("x1", "y0")},
            },
            params={"P": 3},
        )
        checked, reference = check_both(spec_of(formula), interp)
        assert checked == reference == []

    def test_colliding_witness_names_sort_at_runtime(self) -> None:
        # Both binders are named "a" (different sorts): witness pairs
        # sort by value, on the product loop and on the guard's rows.
        interp = Interpretation(
            relations={"q": {("x0", "y1"), ("x1", "y0")}}, params={"P": 3}
        )
        product = ForAll((VA, VA2), Not(Q_PRED(VA, VA2)))
        guarded = ForAll((VA2, VA), Implies(Q_PRED(VA, VA2), P_PRED(VA)))
        assert instance_index(product, SCHEMA) is None
        assert instance_index(guarded, SCHEMA) is not None
        for formula in (product, guarded):
            checked, reference = check_both(spec_of(formula), interp)
            assert checked == reference
            assert checked
            assert all(len(v.witness) == 2 for v in checked)

    def test_empty_domain_is_vacuous(self) -> None:
        formula = ForAll((VA,), P_PRED(VA))
        assert instance_index(formula, SCHEMA) is not None
        interp = Interpretation(params={"P": 3})
        checked, reference = check_both(spec_of(formula), interp)
        assert checked == reference == []

    def test_witness_truncation_matches(self) -> None:
        formula = ForAll((VA,), P_PRED(VA))
        interp = Interpretation(
            relations={
                "p": set(),
                "q": {(x, "y0") for x in A_NAMES},
            },
            params={"P": 3},
        )
        for max_w in (1, 2, 3, 10):
            checked, reference = check_both(
                spec_of(formula), interp, max_witnesses=max_w
            )
            assert checked == reference
            assert len(checked) == min(max_w, len(A_NAMES))

    def test_guard_loop_truncates_like_the_product(self) -> None:
        # Twelve falsifying rows, guard arguments in non-binder order:
        # the survivors must be the product's first ``max_w`` bindings
        # in (b, a) order, not the first rows the set happens to yield.
        formula = ForAll((VB, VA), Implies(Q_PRED(VA, VB), P_PRED(VA)))
        spec = spec_of(formula)
        assert instance_index(formula, SCHEMA).guard is not None
        interp = Interpretation(
            relations={"q": {(x, y) for x in A_NAMES for y in B_NAMES}},
            params={"P": 3},
        )
        for max_w in (1, 2, 5, 12, 20):
            checked, reference = check_both(
                spec, interp, max_witnesses=max_w
            )
            assert checked == reference
            assert len(checked) == min(max_w, 12)
        assert checked[0].witness == (("a", "x0"), ("b", "y0"))
        assert checked[1].witness == (("a", "x1"), ("b", "y0"))

    def test_guard_free_spec_skips_domain_extraction(
        self, monkeypatch
    ) -> None:
        # Only the product loop reads ``Interpretation.domain``: an
        # indexed invariant's instances come from its guard's rows or
        # from the pool the watch counts itself.
        extracted = []
        domain = Interpretation.domain
        monkeypatch.setattr(
            Interpretation,
            "domain",
            lambda interp, spec: extracted.append(spec) or domain(interp, spec),
        )
        interp = Interpretation(
            relations={"p": {("x0",)}, "q": {("x0", "y0"), ("x1", "y0")}},
            params={"P": 3},
        )
        guarded = ForAll((VA, VB), Implies(Q_PRED(VA, VB), P_PRED(VA)))
        product = ForAll((VA,), P_PRED(VA))
        for formula in (guarded, product):
            InvariantOracle(spec_of(formula)).check(copy.deepcopy(interp), "r0")
        assert extracted == []
        # A domain needed only inside the consequent still counts.
        nested = ForAll(
            (VA, VB), Implies(Q_PRED(VA, VB), Exists((VA,), P_PRED(VA)))
        )
        InvariantOracle(spec_of(nested)).check(copy.deepcopy(interp), "r0")
        assert len(extracted) == 1

    def test_card_memo_agrees_with_fresh_count(self) -> None:
        interp = Interpretation(
            relations={"q": {("x0", "y0"), ("x0", "y1"), ("x1", "y0")}},
            params={"P": 2},
        )
        formula = ForAll((VA,), Cmp("<=", Card(Q_PRED, (VA, Wildcard(B))), Param("P")))
        checked, reference = check_both(spec_of(formula), interp)
        assert checked == reference == []
        group = interp.card_group("q", (0,))
        assert group == {("x0",): 2, ("x1",): 1}
        assert interp.card_group("q", (0,)) is group  # memoized

    def test_formula_eval_counter_ticks(self) -> None:
        counter = REGISTRY.counter("check.formula.evals")
        before = counter.value
        formula = ForAll((VA,), P_PRED(VA))
        interp = Interpretation(relations={"p": {("x0",)}}, params={"P": 3})
        check_both(spec_of(formula), interp)
        assert counter.value >= before + 2  # both paths tick it


# ---------------------------------------------------------------------------
# Whole-trial digest identity (sim + check stack)
# ---------------------------------------------------------------------------


APPS = ("tournament", "ticket", "tpcw", "twitter")


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("config", ["Causal", "IPA"])
def test_trial_fingerprints_identical(app, config, monkeypatch):
    spec = build_trial(app, config, root_seed=11, index=1)
    checked = run_trial(spec)
    monkeypatch.setattr(InvariantOracle, "check", reference_check)
    reference = run_trial(spec)
    assert checked.fingerprint == reference.fingerprint
    assert checked.violations == reference.violations
    assert checked.digests == reference.digests


def test_live_deployment_spec_identical(monkeypatch):
    # The deployment dict is everything `repro serve` replays live --
    # schedules and the digests the live cluster must reproduce byte
    # for byte.  The evaluator must not perturb any of it.
    from repro.net.oracle import record_trial

    spec = build_trial("tournament", "Causal", root_seed=11, index=1)
    _, checked = record_trial(spec)
    monkeypatch.setattr(InvariantOracle, "check", reference_check)
    _, reference = record_trial(spec)
    assert checked == reference
