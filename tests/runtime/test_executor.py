"""Generic spec-executor unit tests."""

import pytest

from repro.analysis import run_ipa
from repro.analysis.compensation import Compensation
from repro.crdts import AWSet, PNCounter, RWSet
from repro.errors import SpecError
from repro.runtime import SpecExecutor, materialize, registry_for_spec
from repro.runtime.state import counter_key, domain_of_values, predicate_key
from repro.sim import Simulator
from repro.spec import SpecBuilder
from repro.store import Cluster

from tests.conftest import make_mini_tournament_spec


def build(spec, compensations=()):
    sim = Simulator()
    cluster = Cluster(sim, registry_for_spec(spec))
    executor = SpecExecutor(spec, cluster, compensations=compensations)
    return sim, cluster, executor


def settle(sim):
    sim.run(until=sim.now + 2_000.0)


class TestRegistryForSpec:
    def test_rules_drive_crdt_choice(self):
        spec = make_mini_tournament_spec()
        from repro.spec.effects import ConvergencePolicy

        spec.rules.set("enrolled", ConvergencePolicy.REM_WINS)
        registry = registry_for_spec(spec)
        assert isinstance(registry.create(predicate_key("enrolled")), RWSet)
        assert isinstance(registry.create(predicate_key("player")), AWSet)

    def test_numeric_predicates_get_counters(self):
        b = SpecBuilder("n")
        b.predicate("stock", "Item", numeric=True)
        registry = registry_for_spec(b.build())
        assert isinstance(
            registry.create(counter_key("stock", ("i1",))), PNCounter
        )


class TestExecution:
    def test_effects_translated(self):
        spec = make_mini_tournament_spec()
        sim, cluster, executor = build(spec)
        done = []
        executor.execute("us-east", "add_player", {"p": "p1"}, done.append)
        executor.execute("us-east", "add_tourn", {"t": "t1"}, done.append)
        settle(sim)
        executor.execute(
            "us-east", "enroll", {"p": "p1", "t": "t1"}, done.append
        )
        settle(sim)
        assert done == ["add_player", "add_tourn", "enroll"]
        replica = cluster.replica("us-east")
        assert ("p1", "t1") in replica.get_object(
            predicate_key("enrolled")
        ).value()

    def test_missing_argument_rejected(self):
        spec = make_mini_tournament_spec()
        _sim, _cluster, executor = build(spec)
        with pytest.raises(SpecError, match="missing argument"):
            executor.execute("us-east", "enroll", {"p": "p1"})

    def test_precondition_rejects_invalid_origin_state(self):
        """Enrolling in a nonexistent tournament is refused locally."""
        spec = make_mini_tournament_spec()
        sim, _cluster, executor = build(spec)
        done = []
        executor.execute("us-east", "add_player", {"p": "p1"}, done.append)
        settle(sim)
        executor.execute(
            "us-east", "enroll", {"p": "p1", "t": "ghost"}, done.append
        )
        settle(sim)
        assert done == ["add_player", "enroll_rejected"]
        assert executor.rejected == 1

    def test_precondition_check_can_be_disabled(self):
        spec = make_mini_tournament_spec()
        sim = Simulator()
        cluster = Cluster(sim, registry_for_spec(spec))
        executor = SpecExecutor(spec, cluster, check_preconditions=False)
        done = []
        executor.execute(
            "us-east", "enroll", {"p": "p1", "t": "ghost"}, done.append
        )
        settle(sim)
        assert done == ["enroll"]
        assert executor.audit("us-east")  # violation visible

    def test_numeric_effects(self):
        b = SpecBuilder("shop")
        b.predicate("stock", "Item", numeric=True)
        b.invariant("forall(Item: i) :- stock(i) >= 0")
        b.operation("restock", "Item: i", incr=["stock(i) 5"])
        b.operation("buy", "Item: i", decr=["stock(i)"])
        spec = b.build()
        sim, cluster, executor = build(spec)
        executor.execute("us-east", "restock", {"i": "widget"})
        settle(sim)
        executor.execute("us-east", "buy", {"i": "widget"})
        settle(sim)
        key = counter_key("stock", ("widget",))
        assert cluster.replica("us-east").get_object(key).value() == 4

    def test_numeric_precondition_rejects_oversell(self):
        b = SpecBuilder("shop2")
        b.predicate("stock", "Item", numeric=True)
        b.invariant("forall(Item: i) :- stock(i) >= 0")
        b.operation("buy", "Item: i", decr=["stock(i)"])
        spec = b.build()
        sim, _cluster, executor = build(spec)
        done = []
        executor.execute("us-east", "buy", {"i": "widget"}, done.append)
        settle(sim)
        assert done == ["buy_rejected"]  # stock is 0


class TestWildcardsAndTouch:
    def test_ipa_patched_spec_runs_mechanically(self):
        """The analysis output (wildcard clears, touches, rule changes)
        executes without any hand-written code."""
        spec = make_mini_tournament_spec()
        result = run_ipa(spec)
        patched = result.modified
        sim, cluster, executor = build(patched)
        executor.execute("us-east", "add_player", {"p": "p1"})
        executor.execute("us-east", "add_tourn", {"t": "t1"})
        settle(sim)
        executor.execute("us-west", "enroll", {"p": "p1", "t": "t1"})
        executor.execute("eu-west", "rem_tourn", {"t": "t1"})
        settle(sim)
        assert cluster.converged()
        for region in cluster.regions:
            assert executor.audit(region) == []


class TestCompensations:
    def capacity_setup(self):
        b = SpecBuilder("cap")
        b.predicate("enrolled", "Player", "Tournament")
        b.parameter("Capacity", 2)
        b.invariant(
            "forall(Tournament: t) :- #enrolled(*, t) <= Capacity"
        )
        b.operation(
            "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
        )
        spec = b.build()
        result = run_ipa(spec)
        assert result.compensations
        sim, cluster, executor = build(
            result.modified, compensations=result.compensations
        )
        return sim, cluster, executor

    def test_trim_compensation_repairs_oversell(self):
        sim, cluster, executor = self.capacity_setup()
        # Three concurrent enrolments against capacity 2: each origin
        # sees a valid local state, the merge oversells.
        for index, region in enumerate(cluster.regions):
            executor.execute(
                region, "enroll", {"p": f"p{index}", "t": "t1"}
            )
        settle(sim)
        assert executor.audit("us-east")  # oversold before repair
        executor.apply_compensations("us-east")
        settle(sim)
        for region in cluster.regions:
            assert executor.audit(region) == []

    def test_trim_groups_by_tournament(self):
        sim, cluster, executor = self.capacity_setup()
        for index, region in enumerate(cluster.regions):
            executor.execute(
                region, "enroll", {"p": f"p{index}", "t": "t1"}
            )
        executor.execute("us-east", "enroll", {"p": "px", "t": "t2"})
        settle(sim)
        executor.apply_compensations("us-east")
        settle(sim)
        enrolled = cluster.replica("us-east").get_object(
            predicate_key("enrolled")
        ).value()
        # t2's single enrolment is untouched.
        assert ("px", "t2") in enrolled
        assert sum(1 for _p, t in enrolled if t == "t1") <= 2

    def test_a_compensation_the_executor_cannot_run_is_refused(self):
        # A repair that silently did nothing would still report
        # "compensate"; the executor refuses it up front instead.
        b = SpecBuilder("stock")
        b.predicate("stock", "Item", numeric=True)
        b.invariant("forall(Item: i) :- stock(i) >= 0")
        b.operation("sell", "Item: i", decr=["stock(i)"])
        spec = b.build()
        replenish = Compensation(
            invariant=spec.invariants[0],
            kind="replenish-counter",
            predicate="stock",
            trigger_ops=("sell",),
            bound_value=0,
        )
        with pytest.raises(SpecError, match="replenish-counter"):
            build(spec, compensations=(replenish,))


class TestMaterialize:
    def test_round_trip(self):
        spec = make_mini_tournament_spec()
        sim, cluster, executor = build(spec)
        executor.execute("us-east", "add_player", {"p": "p1"})
        settle(sim)
        domain = domain_of_values(
            spec, {"Player": ["p1"], "Tournament": ["t1"]}
        )
        model = materialize(cluster.replica("us-east"), spec, domain)
        from repro.logic.ast import Atom

        player = spec.schema.pred("player")
        (p1,) = domain.of(spec.schema.sorts["Player"])
        assert model.holds(Atom(player, (p1,)))
