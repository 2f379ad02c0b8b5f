"""One object map per replica lands on pinned digests.

A replica's store is one plain dict.  For seeded schedules --
including fault plans with drops, duplication, reordering, a partition
and a crash/recovery window -- every replica must converge to the
state digests and version vectors pinned below, recorded when the
store could still split its keyspace across shards (every shard count
landed on these same values).

The scripted add-only schedule is fixed up-front from the seed (same
trick as the batching equivalence suite), so the committed-record set
is the same on every run; the digests then cover the full pipeline --
snapshots and recovery from the commit log.  The store holds nothing
durable: a replica recovers from its commit log alone.

Recipe for the pinned values: for each ``(seed, n_ops, chaos)`` in
:data:`PINNED`, run
``scripted_run(seed=seed, n_ops=n_ops, faults=chaos_plan(seed) if chaos
else None)`` and record ``cluster.state_digest()[region]`` (equal in
every region) and ``dict(cluster.replica(region).vv.entries)`` (equal
in every region once converged).
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

#: ``(seed, n_ops, chaos) -> (state digest, version vector)``, the same
#: in every region.
PINNED = {
    (7, 60, True): (
        "71cf8afac057470a2a52b3ac3ea9a790495cd758a2959106c3293fab1a872cc8",
        {US_EAST: 25, US_WEST: 21, EU_WEST: 14},
    ),
    (7, 20, True): (
        "057f78242a1fb911dc4096e0fe541a5e440ec7ceacbd249be8813ea6091435e7",
        {US_EAST: 9, US_WEST: 4, EU_WEST: 7},
    ),
    (9, 20, False): (
        "74cce4a5b8b3cbdd7403974dc1fcef2c5a9c85288d6c2ca3bfe720733b842505",
        {US_EAST: 6, US_WEST: 8, EU_WEST: 6},
    ),
}


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


def scripted_run(seed=7, n_ops=60, faults=None):
    """A fixed seeded schedule."""
    sim = Simulator()
    cluster = Cluster(
        sim,
        make_registry(),
        latency=GeoLatencyModel(jitter=0.0),
        faults=faults,
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


@pytest.mark.parametrize("seed, n_ops, chaos", sorted(PINNED))
def test_schedule_lands_on_pinned_digests(seed, n_ops, chaos):
    """Drops, a partition and a crash/recovery window (or none): the
    one-map store converges to the pinned digest and version vector."""
    digest, entries = PINNED[(seed, n_ops, chaos)]
    faults = chaos_plan(seed) if chaos else None
    run, blocked = scripted_run(seed=seed, n_ops=n_ops, faults=faults)
    assert blocked == []
    assert run.state_digest() == {region: digest for region in REGIONS}
    for region in REGIONS:
        assert dict(run.replica(region).vv.entries) == entries


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=1, max_value=30),
    chaos=st.booleans(),
)
@example(seed=7, n_ops=20, chaos=True)
@example(seed=9, n_ops=20, chaos=False)
def test_any_schedule_survives_recovery_and_snapshot(seed, n_ops, chaos):
    """Property: for any seeded schedule (faulty or perfect) every
    replica converges, and a replica keeps its digest through a
    recovery and a snapshot install."""
    faults = chaos_plan(seed) if chaos else None
    run, _ = scripted_run(seed=seed, n_ops=n_ops, faults=faults)
    expected = run.state_digest()
    assert len(set(expected.values())) == 1
    replica, peer = run.replica(US_EAST), run.replica(US_WEST)
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
        run, _ = scripted_run(seed=13)
        replica = run.replica(US_EAST)
        digest = replica_state_digest(replica)
        replica.rebuild_from_log()
        assert replica_state_digest(replica) == digest
