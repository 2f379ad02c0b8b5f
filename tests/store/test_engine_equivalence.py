"""Behavioural identity across shard counts.

Sharding is a placement choice, never a semantics choice.  For any
workload -- including seeded fault plans with drops, duplication,
reordering, a partition and a crash/recovery window -- every replica
must converge to byte-identical state digests whatever the shard count
({1, 3, 8}).

The scripted add-only schedule is fixed up-front from the seed (same
trick as the batching equivalence suite), so the committed-record set
is identical across configurations; the digests then compare the full
pipeline -- routing, per-shard snapshots and recovery from the commit
log -- against the historical single-dict behaviour.  The store holds
nothing durable: a replica recovers from its commit log alone.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crdts import AWSet
from repro.errors import StoreError
from repro.sim.events import Simulator
from repro.sim.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.sim.latency import EU_WEST, REGIONS, US_EAST, US_WEST, GeoLatencyModel
from repro.store.cluster import Cluster, replica_state_digest
from repro.store.registry import TypeRegistry

SHARD_COUNTS = (1, 3, 8)


def make_registry() -> TypeRegistry:
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    return registry


def add_op(key, element):
    def body(txn):
        txn.update(key, lambda s: s.prepare_add(element))
        return "add"

    return body


def chaos_plan(seed):
    return FaultPlan(
        seed=seed,
        drop=0.20,
        duplicate=0.10,
        reorder=0.15,
        reorder_delay_ms=100.0,
        partitions=(
            PartitionWindow(1_500.0, 3_000.0, (US_EAST,), (US_WEST, EU_WEST)),
        ),
        crashes=(CrashWindow(EU_WEST, 3_500.0, 4_500.0),),
    )


def scripted_run(shards, seed=7, n_ops=60, faults=None):
    """A fixed seeded schedule on one shard count."""
    sim = Simulator()
    cluster = Cluster(
        sim,
        make_registry(),
        latency=GeoLatencyModel(jitter=0.0),
        faults=faults,
        shards=shards,
    )
    if faults is not None:
        cluster.start_antientropy(interval_ms=200.0, seed=seed + 1)
    rng = random.Random(seed)
    blocked = []
    for i in range(n_ops):
        when = 100.0 + i * 40.0 + rng.random() * 20.0
        region = REGIONS[rng.randrange(len(REGIONS))]
        key = f"k{rng.randrange(12)}"
        element = f"e{i}"

        def submit(region=region, key=key, element=element):
            try:
                cluster.submit(region, add_op(key, element), lambda _op: None)
            except StoreError:
                blocked.append(element)

        sim.at(when, submit)
    sim.run(until=100.0 + n_ops * 60.0 + 2_000.0)
    elapsed = cluster.run_until_converged(timeout_ms=120_000.0)
    assert elapsed is not None, "run failed to converge"
    return cluster, blocked


class TestEngineShardMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS[1:])
    def test_chaos_digests_identical_to_reference(self, shards):
        """Drops, a partition and a crash/recovery window: every shard
        count lands on the single-shard reference digest."""
        reference, blocked_ref = scripted_run(1, faults=chaos_plan(7))
        expected = reference.state_digest()
        assert len(set(expected.values())) == 1
        run, blocked = scripted_run(shards, faults=chaos_plan(7))
        assert blocked == blocked_ref
        assert run.state_digest() == expected
        for region in REGIONS:
            assert run.replica(region).vv.entries == reference.replica(region).vv.entries

    def test_sharded_replicas_actually_shard(self):
        run, _ = scripted_run(8)
        replica = run.replica(US_EAST)
        assert replica.n_shards == 8
        populated = sum(1 for m in replica.storage.maps if m)
        assert populated > 1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=1, max_value=30),
    shards=st.sampled_from(SHARD_COUNTS),
    chaos=st.booleans(),
)
@example(seed=7, n_ops=20, shards=1, chaos=True)
@example(seed=7, n_ops=20, shards=4, chaos=True)
@example(seed=9, n_ops=20, shards=4, chaos=False)
def test_any_schedule_any_shard_count_same_digest(seed, n_ops, shards, chaos):
    """Property: for any seeded schedule (faulty or perfect), any shard
    count converges to the digests of the historical single-shard
    store, and survives a reroute, a recovery and a snapshot install."""
    faults = chaos_plan(seed) if chaos else None
    reference, _ = scripted_run(1, seed=seed, n_ops=n_ops, faults=faults)
    expected = reference.state_digest()
    assert len(set(expected.values())) == 1
    run, _ = scripted_run(shards, seed=seed, n_ops=n_ops, faults=faults)
    assert run.state_digest() == expected
    replica, peer = run.replica(US_EAST), run.replica(US_WEST)
    # Rerouted from the reference's single shard.
    replica.storage.restore_shards(reference.replica(US_EAST).storage.snapshot_shards())
    # A key the log never wrote is dropped by recovery: with no
    # snapshot yet, that is ``clear`` plus a full replay.
    replica.storage.set("stray", AWSet())
    replica.rebuild_from_log()
    assert "stray" not in replica.storage.keys()
    assert replica.install_snapshot(peer._take_snapshot())
    assert replica_state_digest(replica) == expected[US_EAST]


class TestKillMidCommit:
    """A killed replica recovers from its commit log alone."""

    def test_memory_engine_recovers_from_log_alone(self):
        run, _ = scripted_run(3, seed=13)
        replica = run.replica(US_EAST)
        digest = replica_state_digest(replica)
        replica.rebuild_from_log()
        assert replica_state_digest(replica) == digest
