"""Causal-stability GC integration tests (§4.2.1)."""

from repro.crdts import Pattern, RWSet
from repro.sim.events import Simulator
from repro.sim.latency import EU_WEST, REGIONS, US_EAST, US_WEST
from repro.store.cluster import Cluster
from repro.store.registry import TypeRegistry


def make_cluster():
    registry = TypeRegistry()
    registry.register("rwset", RWSet)
    sim = Simulator()
    return sim, Cluster(sim, registry)


class TestStabilityService:
    def test_pattern_tombstones_collected_when_stable(self):
        sim, cluster = make_cluster()
        cluster.start_stability_service(interval_ms=500.0)

        def clear(txn):
            txn.update(
                "rwset",
                lambda s: s.prepare_remove_where(Pattern.of("*", "t1")),
            )
            return "clear"

        cluster.submit(US_EAST, clear, lambda _op: None)
        sim.run(until=sim.now + 100.0)
        # Before replication completes the tombstone is not stable.
        east = cluster.replica(US_EAST).get_object("rwset")
        assert east._pattern_tombstones
        sim.run(until=sim.now + 3_000.0)
        assert not east._pattern_tombstones
        for region in (US_WEST, EU_WEST):
            obj = cluster.replica(region).get_object("rwset")
            assert not obj._pattern_tombstones

    def test_gc_does_not_change_visibility(self):
        sim, cluster = make_cluster()
        cluster.start_stability_service(interval_ms=500.0)

        def add(txn):
            txn.update("rwset", lambda s: s.prepare_add(("p1", "t2")))
            txn.update(
                "rwset",
                lambda s: s.prepare_remove_where(Pattern.of("*", "t1")),
            )
            return "mix"

        cluster.submit(US_EAST, add, lambda _op: None)
        sim.run(until=sim.now + 3_000.0)
        for region in REGIONS:
            value = cluster.replica(region).get_object("rwset").value()
            assert value == {("p1", "t2")}

    def test_partition_blocks_stability(self):
        """A partitioned replica pins the stable vector (no GC)."""
        sim, cluster = make_cluster()
        cluster.start_stability_service(interval_ms=500.0)
        cluster.fail_region(EU_WEST)

        def clear(txn):
            txn.update(
                "rwset",
                lambda s: s.prepare_remove_where(Pattern.of("*", "t1")),
            )
            return "clear"

        cluster.submit(US_EAST, clear, lambda _op: None)
        sim.run(until=sim.now + 5_000.0)
        east = cluster.replica(US_EAST).get_object("rwset")
        assert east._pattern_tombstones  # eu-west never confirmed

    def test_service_idempotent_start(self):
        sim, cluster = make_cluster()
        cluster.start_stability_service(interval_ms=500.0)
        cluster.start_stability_service(interval_ms=500.0)
        sim.run(until=sim.now + 1_200.0)
        # Exactly one schedule alive (1 pending tick).
        assert sim.pending == 1
