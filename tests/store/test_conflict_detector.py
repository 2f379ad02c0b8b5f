"""The live detector's delta contract: incremental == full evaluation.

:class:`~repro.store.conflicts.ConflictDetector` keeps the rows every
object contributes, the observed model and every invariant's falsified
instances, and re-judges only what the records it is told about name:
the elements an ``AWSet``/``RWSet`` payload names, or the whole key
for any other payload or object type.  That is admissible only if, at
every check, the model it keeps equals the adapter's full ``extract``
over the same replica and its violations equal the product loop's full
evaluation of that extract
(:func:`~repro.check.oracles.reference_check`) -- witnesses and order
included, for every application and variant the checker runs, under
any interleaving of local commits and remote applies -- if each
adapter's per-element ``row_of`` agrees with its whole-object
``rows``, if a check costs the elements a record names and no more, if
a check evaluates no instance its changed facts cannot reach, and if
every state change that does *not* arrive as a record forces a full
re-read.

Schedules come from real simulated runs (lossy links plus
anti-entropy, seeds drawn by hypothesis): each region's log is its
commit/apply order, replayed here record by record into an observer
replica with a detector attached.

Hand-run mutants of ``store/conflicts.py`` this file kills:

- an ``AWRemove`` naming only its first element: ``TestElementCost``'s
  observed remove, whose count and model go stale.  The simulated
  schedules alone miss it: their multi-element observed removes all
  land on Twitter's row-less ``copies:`` keys, which now cost no
  membership test, or on compensation sets;
- ``RWRemoveWhere`` treated as naming nothing: the fresh-extract and
  full-evaluation tests on IPA tournament and TPC-W, and the whole-key
  guards;
- a ``CompensationSet`` key treated as elementwise: the fresh-extract
  and full-evaluation tests on IPA tournament and ticket, whose reads
  trim, and the whole-key guards.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.apps import ADAPTERS, resolve_config
from repro.check.harness import session_region
from repro.crdts import AWSet, CompensationSet, PNCounter, RWSet
from repro.crdts.awset import AWAdd, AWRemove
from repro.crdts.pattern import Pattern
from repro.crdts.rwset import RWAdd, RWRemove
from repro.check.oracles import (
    InvariantOracle,
    instance_index,
    reference_check,
)
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.logic.ast import (
    Add,
    And,
    Atom,
    Card,
    Cmp,
    Const,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    NumPred,
    Or,
    Var,
)
from repro.logic.parser import parse_invariant
from repro.obs import REGISTRY
from repro.sim import FaultPlan, Simulator
from repro.spec.invariants import Invariant
from repro.store import Cluster
from repro.store.conflicts import ConflictDetector
from repro.store.replica import Replica

REGIONS = ("us-east", "us-west", "eu-west")
APPS = ("tournament", "ticket", "tpcw", "twitter")
CONFIGS = ("Causal", "IPA")  # IPA is rem-wins for Twitter

REBUILDS = REGISTRY.counter("store.conflicts.full_rebuilds")
RESCANNED = REGISTRY.counter("store.conflicts.keys_rescanned")
ELEMENTS = REGISTRY.counter("store.conflicts.elements_checked")
EVALUATED = REGISTRY.counter("store.conflicts.instances_evaluated")

#: A key per app that a *read* can materialise with no record naming
#: it; TPC-W's starts from the registry's configured stock level, so it
#: changes the model the moment it exists.
READ_ONLY_KEYS = {
    "tournament": "capacity:never-written",
    "ticket": "sold:never-written",
    "tpcw": "stock:never-written",
    "twitter": "timeline:never-written",
}


def _parsed(text: str):
    return lambda schema: parse_invariant(text, schema.symbol_table())


def _some_row(guard: str, pred: str, outer: str, inner: str):
    """``forall(outer: x) :- guard(x) => (exists(inner: y) :- pred(y, x))``
    (the parser takes quantifiers at the top only)."""

    def build(schema):
        x = Var("x", schema.sorts[outer])
        y = Var("y", schema.sorts[inner])
        return ForAll(
            (x,),
            Implies(
                schema.predicates[guard](x),
                Exists((y,), schema.predicates[pred](y, x)),
            ),
        )

    return build


#: Invariants beside each app's own, for the shapes its 13 shipped
#: ones leave out: a product loop whose falsified instances leave by
#: the domain alone (nothing they read changes), whole re-evaluation (a
#: nested quantifier, no binder), and invariant 2 with its consequent swapped,
#: so the traces' disenrolments reach its *second* ``enrolled`` read.
EXTRA_INVARIANTS = {
    "tournament": (
        _parsed("forall(Tournament: t) :- tournament(t)"),
        _parsed(
            "forall(Player: p, q, Tournament: t) :- inMatch(p, q, t) => "
            "enrolled(q, t) and enrolled(p, t)"
        ),
        _some_row("active", "enrolled", "Tournament", "Player"),
    ),
    "ticket": (
        _parsed("forall(Event: e) :- event(e)"),
        _parsed("exists(Event: e) :- #sold(*, e) >= 2"),
    ),
    "tpcw": (
        _parsed("forall(Product: i) :- product(i)"),
    ),
    "twitter": (
        _parsed("forall(User: u) :- user(u)"),
        _some_row("user", "inTimeline", "User", "Tweet"),
    ),
}


class WithInvariants:
    """An adapter whose spec carries extra invariants."""

    def __init__(self, adapter, builders) -> None:
        self._adapter = adapter
        self._builders = builders

    def __getattr__(self, name):
        return getattr(self._adapter, name)

    def spec(self, params):
        spec = self._adapter.spec(params)
        return dataclasses.replace(
            spec,
            invariants=[
                *spec.invariants,
                *(Invariant(build(spec.schema)) for build in self._builders),
            ],
        )


def region_log(app: str, config: str, seed: int, n_ops: int = 100):
    """One region's applied records, in its application order."""
    adapter = ADAPTERS[app]
    mode, variant = resolve_config(app, config)
    params = adapter.defaults()
    sim = Simulator()
    cluster = Cluster(
        sim,
        adapter.registry(variant, params),
        regions=REGIONS,
        mode=mode,
        faults=FaultPlan(seed=seed, drop=0.15, duplicate=0.05),
    )
    cluster.start_antientropy(interval_ms=150, seed=seed + 1)
    driver = adapter.make_app(cluster, variant, params)
    adapter.setup(driver, params, REGIONS[0])
    start = sim.now

    def issue(op) -> None:
        try:
            adapter.dispatch(
                driver, session_region(op.session), op.op, op.args,
                lambda _label: None,
            )
        except StoreError:
            pass

    for op in adapter.generate(seed, REGIONS, n_ops, params):
        sim.at(start + op.at_ms, issue, op)
    sim.run(until=start + 60_000)
    cluster.flush_replication()
    assert cluster.run_until_converged() is not None
    return list(cluster.replica(REGIONS[seed % len(REGIONS)]).log)


class Observer:
    """A replica + detector pair standing in for a live server."""

    def __init__(
        self,
        app: str,
        config: str,
        name: str = "observer",
        max_witnesses: int = 5,
        extra: tuple = (),
    ):
        self.adapter = WithInvariants(ADAPTERS[app], extra)
        _mode, self.variant = resolve_config(app, config)
        self.params = self.adapter.defaults()
        self.region = name
        self.replica = Replica(
            name, self.adapter.registry(self.variant, self.params)
        )
        self.node = SimpleNamespace(store=self.replica)
        self.detector = ConflictDetector(self)
        # Read when the first check builds the instance watch.
        self.detector._oracle.max_witnesses = max_witnesses
        self.oracle = InvariantOracle(
            self.adapter.spec(self.params), max_witnesses
        )

    def apply(self, record) -> None:
        self.replica.apply_remote(record)
        self.detector.note_apply(record)

    def fresh(self):
        return self.adapter.extract(self.replica, self.variant, self.params)

    def assert_model_is_fresh_extract(self) -> None:
        assert self.detector.model() == self.fresh()

    def assert_violations_are_full_evaluation(self) -> None:
        assert self.detector.violations() == reference_check(
            self.oracle, self.fresh(), self.region
        )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
class TestIncrementalModel:
    @given(seed=st.integers(0, 10_000), stride=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_equals_fresh_extract_after_every_record(
        self, app, config, seed, stride
    ) -> None:
        records = region_log(app, config, seed)
        assert records  # set-up alone commits
        observer = Observer(app, config)
        rebuilds = REBUILDS.value
        for index, record in enumerate(records):
            observer.apply(record)
            # stride > 1: several records' keys accumulate per check,
            # as after ``adapter.setup`` on a live server.
            if index % stride == 0:
                observer.assert_model_is_fresh_extract()
            if index == len(records) // 2:
                # A read materialises an object no record names.
                observer.replica.get_object(READ_ONLY_KEYS[app])
                observer.assert_model_is_fresh_extract()
        observer.assert_model_is_fresh_extract()
        # One full read at the first check, deltas ever after.
        assert REBUILDS.value == rebuilds + 1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_row_of_spells_out_rows_for_every_elementwise_key(
        self, app, config, seed
    ) -> None:
        records = region_log(app, config, seed)
        observer = Observer(app, config)
        adapter, variant = observer.adapter, observer.variant
        for index, record in enumerate(records):
            observer.apply(record)
            if index % 7 and index != len(records) - 1:
                continue
            for key in observer.replica.keys():
                obj = observer.replica.get_object(key)
                if type(obj) not in (AWSet, RWSet):
                    continue
                rows = list(adapter.rows(key, obj, variant))
                spelled = [
                    pair
                    for element in obj.value()
                    for pair in adapter.row_of(key, element, variant)
                ]
                assert set(rows) == set(spelled), key
                # Distinct members, distinct pairs.
                assert len(set(spelled)) == len(spelled), key

    def test_a_check_costs_what_each_record_names(self, app, config):
        """Per record: one membership check per distinct element named
        on a kept ``AWSet``/``RWSet`` key that maps to rows, one whole
        re-read per other key, and nothing else."""
        records = region_log(app, config, seed=5)
        observer = Observer(app, config)
        replica = observer.replica
        observer.detector.model()  # the one full rebuild, with no rows
        for record in records:
            known = set(replica.keys())
            observer.apply(record)
            named: dict[str, set | None] = {}
            for key, payload in record.updates:
                if isinstance(payload, (AWAdd, RWAdd, RWRemove)):
                    elements = {payload.element}
                elif isinstance(payload, AWRemove):
                    elements = {element for element, _dots in payload.dots}
                else:
                    elements = None
                if elements is None or named.get(key, set()) is None:
                    named[key] = None
                else:
                    named.setdefault(key, set()).update(elements)
            whole = checked = 0
            for key, elements in named.items():
                obj = replica.get_object(key)
                if (
                    elements is None
                    or key not in known
                    or type(obj) not in (AWSet, RWSet)
                ):
                    whole += 1
                else:
                    checked += sum(
                        1
                        for element in elements
                        if observer.adapter.row_of(
                            key, element, observer.variant
                        )
                    )
            rescanned, counted = RESCANNED.value, ELEMENTS.value
            observer.assert_model_is_fresh_extract()
            assert RESCANNED.value - rescanned == whole
            assert ELEMENTS.value - counted == checked


class TestElementCost:
    """The operation-count guard on hand-built records: k elements of
    an n-element set cost k membership checks and no whole re-read, and
    elements that map to no rows cost none; every other payload or
    object type re-reads exactly its own key."""

    def observer(self, app, config):
        observer = Observer(app, config)
        observer.detector.model()
        return observer

    def commit(self, observer, updates):
        txn = observer.replica.begin()
        for key, prepare in updates:
            txn.update(key, prepare)
        record = txn.commit()
        observer.detector.note_commit(record)
        return record

    def cost(self, observer, updates):
        """(keys re-read whole, elements checked) by the next check."""
        self.commit(observer, updates)
        rescanned, counted = RESCANNED.value, ELEMENTS.value
        observer.assert_model_is_fresh_extract()
        return RESCANNED.value - rescanned, ELEMENTS.value - counted

    @pytest.mark.parametrize("config", CONFIGS)
    def test_k_elements_of_a_large_set_cost_k_checks(self, config):
        observer = self.observer("twitter", config)
        assert self.cost(observer, [
            ("tweets", lambda s, w=w: s.prepare_add(f"w{w}"))
            for w in range(300)
        ]) == (1, 0)  # a key the detector has not read yet
        assert len(observer.replica.get_object("tweets")) == 300
        assert self.cost(observer, [
            ("tweets", lambda s: s.prepare_add("new")),
            ("tweets", lambda s: s.prepare_remove("w7")),
            ("tweets", lambda s: s.prepare_remove("w8")),
            ("tweets", lambda s: s.prepare_add("w7")),
        ]) == (0, 3)

    def test_elements_of_a_rowless_set_cost_no_checks(self):
        """Twitter's ``copies:`` sets map to no rows: adding to and
        removing from one changes no model row and tests nothing."""
        observer = self.observer("twitter", "Causal")
        adapter, variant = observer.adapter, observer.variant
        assert adapter.row_of("copies:w1", "u1", variant) == ()
        assert self.cost(observer, [
            ("copies:w1", lambda s, u=u: s.prepare_add(f"u{u}"))
            for u in range(5)
        ]) == (1, 0)  # a key the detector has not read yet
        assert self.cost(observer, [
            ("copies:w1", lambda s: s.prepare_add("u9")),
            ("copies:w1", lambda s: s.prepare_remove("u1")),
            ("copies:w1", lambda s: s.prepare_remove("u2")),
        ]) == (0, 0)
        assert self.cost(observer, [
            ("copies:w1", lambda s: s.prepare_remove("u3")),
            ("tweets", lambda s: s.prepare_add("w1")),
        ]) == (1, 0)  # ``tweets`` is new to the detector
        assert self.cost(observer, [
            ("copies:w1", lambda s: s.prepare_add("u3")),
            ("tweets", lambda s: s.prepare_add("w2")),
        ]) == (0, 1)
        assert observer.replica.get_object("copies:w1").value() == {
            "u0", "u3", "u4", "u9"
        }

    def test_an_observed_remove_checks_every_element_it_names(self):
        observer = self.observer("tournament", "Causal")
        self.cost(observer, [
            ("enrolled", lambda s, p=p: s.prepare_add((f"p{p}", "t1")))
            for p in range(50)
        ])
        pattern = Pattern.of("*", "t1")
        assert self.cost(observer, [
            ("enrolled", lambda s: s.prepare_remove_where(pattern)),
        ]) == (0, 50)
        assert not observer.replica.get_object("enrolled").value()

    def test_a_wildcard_remove_rereads_its_key_whole(self):
        observer = self.observer("tournament", "IPA")
        self.cost(observer, [
            ("enrolled", lambda s, p=p: s.prepare_add((f"p{p}", "t1")))
            for p in range(20)
        ])
        pattern = Pattern.of("*", "t1")
        assert self.cost(observer, [
            ("enrolled", lambda s: s.prepare_remove_where(pattern)),
            ("enrolled", lambda s: s.prepare_add(("q", "t2"))),
        ]) == (1, 0)

    def test_compensation_set_and_counter_keys_reread_their_own_keys(self):
        observer = self.observer("ticket", "IPA")
        self.cost(observer, [("sold:e1", lambda s: s.prepare_add("k0"))])
        assert type(observer.replica.get_object("sold:e1")) is CompensationSet
        assert self.cost(observer, [
            ("sold:e1", lambda s, k=k: s.prepare_add(f"k{k}"))
            for k in range(1, 20)
        ]) == (1, 0)
        observer = self.observer("tpcw", "Causal")
        self.cost(observer, [("stock:i1", lambda c: c.prepare_add(-1))])
        assert isinstance(observer.replica.get_object("stock:i1"), PNCounter)
        assert self.cost(observer, [
            ("stock:i1", lambda c: c.prepare_add(-2)),
        ]) == (1, 0)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
class TestViolationsEqualFullEvaluation:
    """The detector's violations after every record are the product
    loop's full evaluation of a fresh ``extract``: same records, same
    witnesses, same order, at every witness limit, for the shipped
    invariants and the extra shapes."""

    @given(
        seed=st.integers(0, 10_000),
        stride=st.integers(1, 4),
        max_witnesses=st.sampled_from((0, 1, 5)),
    )
    @settings(max_examples=8, deadline=None)
    def test_after_every_record(
        self, app, config, seed, stride, max_witnesses
    ) -> None:
        records = region_log(app, config, seed)
        observer = Observer(
            app,
            config,
            max_witnesses=max_witnesses,
            extra=EXTRA_INVARIANTS[app],
        )
        for index, record in enumerate(records):
            observer.apply(record)
            if index % stride == 0:
                observer.assert_violations_are_full_evaluation()
            if index == len(records) // 2:
                observer.replica.get_object(READ_ONLY_KEYS[app])
                observer.assert_violations_are_full_evaluation()
        observer.assert_violations_are_full_evaluation()


def _reads(node, out: list) -> None:
    """Every atom, cardinality and numeric term under ``node``."""
    if isinstance(node, (Atom, Card, NumPred)):
        out.append(node)
    elif isinstance(node, Not):
        _reads(node.arg, out)
    elif isinstance(node, (And, Or)):
        for arg in node.args:
            _reads(arg, out)
    elif isinstance(node, (Implies, Iff, Cmp)):
        _reads(node.lhs, out)
        _reads(node.rhs, out)
    elif isinstance(node, Add):
        for term in node.terms:
            _reads(term, out)


def _facts(model) -> dict:
    """(pred, row) -> value for every row (True) and numeric cell."""
    facts = {
        (name, row): True
        for name, rows in model.relations.items()
        for row in rows
    }
    for name, cells in model.numerics.items():
        for key, value in cells.items():
            facts[(name, key)] = value
    return facts


def reachable(spec, before, after) -> tuple[int, int]:
    """(instances a change reaches, instances enumerated), by brute
    force over every invariant instance before or after the change.

    An instance is reached when a fact one of its reads names changed,
    or when a product loop's binder value entered or left its pool.
    """
    old, new = _facts(before), _facts(after)
    changed = {
        fact for fact in old.keys() | new.keys()
        if old.get(fact) != new.get(fact)
    }
    pools = {}
    moved = {}
    for model in (before, after):
        for sort, consts in model.domain(spec).constants.items():
            names = {const.name for const in consts}
            pools.setdefault(sort.name, set()).update(names)
            moved.setdefault(sort.name, []).append(names)
    moved = {sort: a ^ b for sort, (a, b) in moved.items()}
    reached = total = 0
    for invariant in spec.invariants:
        formula = invariant.formula
        index = instance_index(formula, spec.schema)
        if index is None:
            continue
        binders = formula.vars
        if index.guard is not None:
            guard, positions = index.guard
            candidates = set()
            for model in (before, after):
                for row in model.relations.get(guard, ()):
                    binding = [None] * len(binders)
                    for pos, i in enumerate(positions):
                        binding[i] = row[pos]
                    candidates.add(tuple(binding))
        else:
            candidates = set(
                itertools.product(
                    *(sorted(pools.get(v.sort.name, ())) for v in binders)
                )
            )
        reads = []
        _reads(formula.body, reads)
        for binding in candidates:
            total += 1
            env = dict(zip(binders, binding))
            hit = index.guard is None and any(
                value in moved.get(v.sort.name, ())
                for v, value in zip(binders, binding)
            )
            for read in reads:
                pattern = tuple(
                    env[arg] if isinstance(arg, Var)
                    else arg.name if isinstance(arg, Const)
                    else None
                    for arg in read.args
                )
                hit = hit or any(
                    name == read.pred.name
                    and len(row) == len(pattern)
                    and all(p is None or p == r for p, r in zip(pattern, row))
                    for name, row in changed
                )
            reached += hit
    return reached, total


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
def test_a_check_evaluates_only_reachable_instances(app, config):
    """The operation-count guard: a check evaluates no more instances
    than its changed facts reach through any read, counted by brute
    force -- and fewer than half of what full evaluations would."""
    records = region_log(app, config, seed=7)
    observer = Observer(app, config)
    spec = observer.adapter.spec(observer.params)
    observer.detector.violations()  # the one full rebuild, with no rows
    evaluated_total = reached_total = everything = 0
    for record in records:
        before = observer.fresh()
        observer.apply(record)
        counted = EVALUATED.value
        observer.detector.violations()
        evaluated = EVALUATED.value - counted
        reached, total = reachable(spec, before, observer.fresh())
        assert evaluated <= reached
        evaluated_total += evaluated
        reached_total += reached
        everything += total
    assert 0 < evaluated_total <= reached_total < everything / 2


class TestInvalidation:
    """State that changed without a record drops the kept rows."""

    APP, CONFIG = "twitter", "IPA"

    def observers(self):
        records = region_log(self.APP, self.CONFIG, seed=3)
        behind = Observer(self.APP, self.CONFIG, "behind")
        ahead = Observer(self.APP, self.CONFIG, "ahead")
        for record in records[: len(records) // 2]:
            behind.apply(record)
        for record in records:
            ahead.apply(record)
        behind.assert_model_is_fresh_extract()
        ahead.assert_model_is_fresh_extract()
        return records, behind, ahead

    def test_snapshot_install_forces_a_rebuild(self):
        _records, behind, ahead = self.observers()
        stale = behind.detector.model()
        assert ahead.replica.compact_log(ahead.replica.vv, min_records=1) > 0
        _tail, snapshot = ahead.replica.sync_answer(VersionVector())
        rebuilds = REBUILDS.value
        assert behind.replica.install_snapshot(snapshot)
        behind.assert_model_is_fresh_extract()
        assert REBUILDS.value == rebuilds + 1
        assert behind.detector.model() == ahead.detector.model() != stale

    def test_recovery_forces_a_rebuild(self):
        records, _behind, ahead = self.observers()
        # Salvage recovery: the replica restarts from a truncated log.
        rebuilds = REBUILDS.value
        ahead.replica.adopt_log(records[: len(records) // 3])
        ahead.assert_model_is_fresh_extract()
        assert REBUILDS.value == rebuilds + 1
        # A restarted process builds a new detector: nothing kept.
        restarted = ConflictDetector(ahead)
        assert restarted.model() == ahead.fresh()
        assert REBUILDS.value == rebuilds + 2
