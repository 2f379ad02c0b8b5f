"""Behavioural identity across storage engines and shard counts.

The acceptance bar for pluggable storage: engines and sharding are
*durability* choices, never *semantics* choices.  For any workload --
including seeded fault plans with drops, duplication, reordering, a
partition and a crash/recovery window -- every replica must converge
to byte-identical state digests whatever the engine (memory, file,
sqlite) and whatever the shard count ({1, 3, 8}).

The scripted add-only schedule is fixed up-front from the seed (same
trick as the batching equivalence suite), so the committed-record set
is identical across configurations; the digests then compare the full
pipeline -- routing, per-shard snapshots and recovery -- against the
historical single-dict behaviour.  Whatever the live maps went through
(a schedule, a rerouted ``restore_shards``, ``clear`` plus
``rebuild_from_log``, ``install_snapshot``), the next durability point
leaves the durable engines holding exactly those maps.

Kill-mid-commit is pinned per durable engine at the torn-write level:
a crash half-way through an engine append must reload to exactly the
last durability point, and a replica rebuilt from its commit log after
the tear must reproduce the pre-crash digest.
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

ENGINES = ("memory", "file", "sqlite")
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


def scripted_run(engine, shards, seed=7, n_ops=60, faults=None):
    """A fixed seeded schedule on one engine/shard configuration."""
    sim = Simulator()
    cluster = Cluster(
        sim,
        make_registry(),
        latency=GeoLatencyModel(jitter=0.0),
        faults=faults,
        engine=engine,
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
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_chaos_digests_identical_to_reference(self, engine, shards):
        """Drops, a partition and a crash/recovery window: every
        engine x shard configuration lands on the reference digest."""
        reference, blocked_ref = scripted_run("memory", 1, faults=chaos_plan(7))
        expected = reference.state_digest()
        assert len(set(expected.values())) == 1
        if engine == "memory" and shards == 1:
            return  # the reference itself
        run, blocked = scripted_run(engine, shards, faults=chaos_plan(7))
        assert blocked == blocked_ref
        assert run.state_digest() == expected
        for region in REGIONS:
            assert run.replica(region).vv.entries == reference.replica(region).vv.entries

    def test_sharded_replicas_actually_shard(self):
        run, _ = scripted_run("memory", 8)
        replica = run.replica(US_EAST)
        assert replica.n_shards == 8
        populated = sum(1 for m in replica.storage.maps if m)
        assert populated > 1


def assert_checkpoint_is_live(storage):
    """After a durability point, a durable store's engines hold exactly its live maps."""
    storage.sync()
    if storage.durable:
        persisted = [
            {key: obj.value() for key, obj in shard.items()} for shard in storage.load_persisted()
        ]
        live = [{key: obj.value() for key, obj in shard.items()} for shard in storage.maps]
        assert persisted == live


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=1, max_value=30),
    engine=st.sampled_from(ENGINES),
    shards=st.sampled_from(SHARD_COUNTS),
    chaos=st.booleans(),
)
@example(seed=7, n_ops=20, engine="file", shards=1, chaos=True)
@example(seed=7, n_ops=20, engine="sqlite", shards=4, chaos=True)
@example(seed=9, n_ops=20, engine="file", shards=4, chaos=False)
def test_any_schedule_any_engine_same_digest(seed, n_ops, engine, shards, chaos):
    """Property: for any seeded schedule (faulty or perfect), any
    engine x shard configuration converges to the digests of the
    historical memory x 1 store, and every durability point on the way
    out persists exactly the live maps."""
    faults = chaos_plan(seed) if chaos else None
    reference, _ = scripted_run("memory", 1, seed=seed, n_ops=n_ops, faults=faults)
    expected = reference.state_digest()
    assert len(set(expected.values())) == 1
    run, _ = scripted_run(engine, shards, seed=seed, n_ops=n_ops, faults=faults)
    assert run.state_digest() == expected
    replica, peer = run.replica(US_EAST), run.replica(US_WEST)
    assert_checkpoint_is_live(replica.storage)
    # Rerouted from the reference's single shard.
    replica.storage.restore_shards(reference.replica(US_EAST).storage.snapshot_shards())
    assert_checkpoint_is_live(replica.storage)
    # A key the log never wrote, persisted, then dropped by recovery:
    # with no snapshot yet, that is ``clear`` plus a full replay.
    replica.storage.set("stray", AWSet())
    assert_checkpoint_is_live(replica.storage)
    replica.rebuild_from_log()
    assert_checkpoint_is_live(replica.storage)
    assert replica.install_snapshot(peer._take_snapshot())
    assert_checkpoint_is_live(replica.storage)
    assert replica_state_digest(replica) == expected[US_EAST]


class TestKillMidCommit:
    """Torn durable writes: recovery lands on the last durability point."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_file_engine_torn_append(self, shards):
        run, _ = scripted_run("file", shards, seed=13)
        replica = run.replica(US_EAST)
        digest = replica_state_digest(replica)
        # Durability point, then a crash half-way through a later append.
        replica.storage.checkpoint()
        persisted_digests = [e.digest(replica._registry) for e in replica.storage.engines]
        for engine in replica.storage.engines:
            engine.put("torn-key", AWSet())
            engine.close()
            with open(engine.path, "r+b") as fh:
                fh.seek(0, 2)
                fh.truncate(fh.tell() - 3)  # tear the final frame
        # Reload: the torn frame is repaired away, the checkpoint's
        # state is intact, and the replica's own recovery (commit log
        # replay) reproduces the pre-crash digest.
        assert [e.digest(replica._registry) for e in replica.storage.engines] == persisted_digests
        replica.rebuild_from_log()
        assert replica_state_digest(replica) == digest

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sqlite_engine_uncommitted_staged_puts(self, shards):
        run, _ = scripted_run("sqlite", shards, seed=13)
        replica = run.replica(US_EAST)
        digest = replica_state_digest(replica)
        replica.storage.checkpoint()
        persisted_digests = [e.digest(replica._registry) for e in replica.storage.engines]
        # Stage puts but "crash" before sync: a fresh connection on the
        # same database must not see them.
        import sqlite3

        for engine in replica.storage.engines:
            engine.put("staged-key", AWSet())
            path = engine.path
            engine._conn.close()  # crash: no commit
            engine._conn = sqlite3.connect(path)
        assert [e.digest(replica._registry) for e in replica.storage.engines] == persisted_digests
        replica.rebuild_from_log()
        assert replica_state_digest(replica) == digest

    def test_memory_engine_recovers_from_log_alone(self):
        run, _ = scripted_run("memory", 3, seed=13)
        replica = run.replica(US_EAST)
        digest = replica_state_digest(replica)
        replica.rebuild_from_log()
        assert replica_state_digest(replica) == digest
