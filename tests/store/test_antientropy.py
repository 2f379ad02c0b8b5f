"""Anti-entropy, crash recovery, and convergence under faults."""

from repro.apps.common import Variant
from repro.apps.tournament import TournamentApp, tournament_registry
from repro.crdts import AWSet
from repro.crdts.clock import VersionVector
from repro.sim.events import Simulator
from repro.sim.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.sim.latency import EU_WEST, US_EAST, US_WEST
from repro.store.cluster import Cluster
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica


def set_registry():
    reg = TypeRegistry()
    reg.register_prefix("", AWSet)
    return reg


def make_cluster(faults=None, antientropy=True):
    sim = Simulator()
    cluster = Cluster(sim, set_registry(), faults=faults)
    if antientropy:
        cluster.start_antientropy(interval_ms=100.0, seed=17)
    return sim, cluster


def add(cluster, region, key, element, done=None):
    cluster.submit(
        region,
        lambda txn: (
            txn.update(key, lambda s, e=element: s.prepare_add(e)),
            "add",
        )[1],
        done or (lambda _op: None),
    )


class TestReplicaLog:
    def test_records_since_serves_missing_suffix(self):
        replica = Replica("A", set_registry())
        records = []
        for element in "xyz":
            txn = replica.begin()
            txn.update("s", lambda s, e=element: s.prepare_add(e))
            records.append(txn.commit())
        vv = VersionVector({"A": 1})
        assert replica.records_since(vv) == records[1:]
        assert replica.records_since(replica.vv) == []

    def test_rebuild_from_log_restores_state(self):
        a = Replica("A", set_registry())
        b = Replica("B", set_registry())
        for element in "xy":
            txn = a.begin()
            txn.update("s", lambda s, e=element: s.prepare_add(e))
            record = txn.commit()
            b.apply_remote(record)
        txn = b.begin()
        txn.update("s", lambda s: s.prepare_add("z"))
        txn.commit()
        before_value = b.get_object("s").value()
        before_vv = b.vv.copy()
        b.rebuild_from_log()
        assert b.get_object("s").value() == before_value
        assert b.vv == before_vv
        assert b.recoveries == 1
        # The commit clock is rebuilt too: new commits keep advancing.
        txn = b.begin()
        txn.update("s", lambda s: s.prepare_add("w"))
        txn.commit()
        assert b.vv.get("B") == 2


class TestAntiEntropyHealing:
    def test_lossy_network_converges_with_antientropy(self):
        plan = FaultPlan(seed=23, drop=0.5)
        sim, cluster = make_cluster(faults=plan)
        for i in range(30):
            add(cluster, (US_EAST, US_WEST, EU_WEST)[i % 3], "s", i)
        elapsed = cluster.run_until_converged(timeout_ms=120_000.0)
        assert elapsed is not None
        digests = cluster.state_digest()
        assert len(set(digests.values())) == 1
        assert cluster.replica(US_EAST).get_object("s").value() == set(
            range(30)
        )
        assert cluster.antientropy.records_retransmitted > 0

    def test_lossy_network_stalls_without_antientropy(self):
        plan = FaultPlan(seed=23, drop=0.5)
        sim, cluster = make_cluster(faults=plan, antientropy=False)
        for i in range(30):
            add(cluster, (US_EAST, US_WEST, EU_WEST)[i % 3], "s", i)
        assert cluster.run_until_converged(timeout_ms=30_000.0) is None

    def test_partition_heals_after_window(self):
        plan = FaultPlan(
            seed=5,
            partitions=(
                PartitionWindow(
                    0.0, 3_000.0, (US_EAST,), (US_WEST, EU_WEST)
                ),
            ),
        )
        sim, cluster = make_cluster(faults=plan)
        add(cluster, US_EAST, "s", "from-east")
        add(cluster, US_WEST, "s", "from-west")
        sim.run(until=2_500.0)
        assert cluster.replica(US_WEST).get_object("s").value() == {
            "from-west"
        }
        assert cluster.run_until_converged(timeout_ms=30_000.0) is not None
        for region in (US_EAST, US_WEST, EU_WEST):
            assert cluster.replica(region).get_object("s").value() == {
                "from-east",
                "from-west",
            }

    def test_backoff_grows_during_partition(self):
        plan = FaultPlan(
            seed=5,
            partitions=(
                PartitionWindow(
                    0.0, 8_000.0, (US_EAST,), (US_WEST, EU_WEST)
                ),
            ),
        )
        sim, cluster = make_cluster(faults=plan)
        sim.run(until=7_000.0)
        backoff = cluster.antientropy.backoff_ms
        assert backoff[(US_EAST, US_WEST)] > 100.0
        assert cluster.antientropy.sync_timeouts > 0


class TestCrashRecovery:
    def test_crashed_replica_catches_up_after_recovery(self):
        plan = FaultPlan(crashes=(CrashWindow(EU_WEST, 500.0, 4_000.0),))
        sim, cluster = make_cluster(faults=plan)
        add(cluster, US_EAST, "s", "before")
        sim.run(until=1_000.0)
        # Committed while eu-west is down: broadcast skips it.
        add(cluster, US_EAST, "s", "during")
        add(cluster, US_WEST, "s", "during-2")
        sim.run(until=3_000.0)
        assert cluster.is_crashed(EU_WEST)
        assert cluster.replica(EU_WEST).get_object("s").value() == {
            "before"
        }
        assert cluster.run_until_converged(timeout_ms=60_000.0) is not None
        assert cluster.replica(EU_WEST).get_object("s").value() == {
            "before",
            "during",
            "during-2",
        }
        assert cluster.replica(EU_WEST).recoveries == 1

    def test_submit_to_crashed_region_raises(self):
        import pytest

        from repro.errors import StoreError

        plan = FaultPlan(crashes=(CrashWindow(EU_WEST, 0.0, 1_000.0),))
        sim, cluster = make_cluster(faults=plan)
        sim.run(until=100.0)
        with pytest.raises(StoreError, match="unavailable"):
            add(cluster, EU_WEST, "s", "x")

    def test_crash_loses_pending_buffer_but_recovers(self):
        """Records buffered (undeliverable) at crash time are lost with
        the volatile state and re-fetched by anti-entropy."""
        plan = FaultPlan(crashes=(CrashWindow(EU_WEST, 200.0, 2_000.0),))
        sim, cluster = make_cluster(faults=plan)
        add(cluster, US_EAST, "s", "x")
        sim.run(until=150.0)
        cluster.receiver(EU_WEST).clear()  # nothing pending is fine too
        assert cluster.run_until_converged(timeout_ms=60_000.0) is not None
        digests = cluster.state_digest()
        assert len(set(digests.values())) == 1


class TestIpaInvariantsUnderChaos:
    def test_tournament_invariants_hold_on_lossy_network(self):
        plan = FaultPlan(seed=41, drop=0.3, duplicate=0.2, reorder=0.2)
        sim = Simulator()
        cluster = Cluster(
            sim, tournament_registry(Variant.IPA), faults=plan
        )
        cluster.start_antientropy(interval_ms=100.0, seed=3)
        app = TournamentApp(cluster, Variant.IPA)
        app.setup(["p1", "p2", "p3"], ["t1"], US_EAST)
        sim.run(until=sim.now + 2_000.0)
        app.enroll(US_WEST, "p1", "t1", lambda _op: None)
        app.enroll(EU_WEST, "p2", "t1", lambda _op: None)
        app.rem_tourn(US_EAST, "t1", lambda _op: None)
        app.do_match(US_WEST, "p1", "p2", "t1", lambda _op: None)
        assert cluster.run_until_converged(timeout_ms=120_000.0) is not None
        for region in (US_EAST, US_WEST, EU_WEST):
            assert app.count_violations(region) == 0


class TestConvergenceGatedBackoff:
    """The retry policy resets only when a round actually converged.

    A round that was *answered* but left the requester behind the
    responder's vector must hold its current delay: snapping back to
    the base rate on every served response lets a persistently-behind
    pair flood its peer at full rate while never catching up.
    """

    def test_answered_but_diverged_round_holds_delay(self):
        from repro.store.antientropy import SyncResponse

        sim, cluster = make_cluster()
        engine = cluster.antientropy
        pair = (US_EAST, US_WEST)
        state = engine._pairs[pair]
        # Grow the pair's backoff as a run of timeouts would.
        state.delay_ms = 1_600.0
        state.outstanding = 7
        # An answered round whose records do NOT close the gap: the
        # responder's vector claims records the requester never gets.
        engine._on_response(
            SyncResponse(
                responder=US_WEST,
                requester=US_EAST,
                request_id=7,
                records=(),
                vv=VersionVector({"B": 5}),
            )
        )
        assert state.outstanding is None
        assert not state.converged
        engine._tick(pair)
        # Held, not reset: only convergence earns the base rate back.
        assert state.delay_ms == 1_600.0

    def test_converged_round_resets_delay(self):
        from repro.store.antientropy import SyncResponse

        sim, cluster = make_cluster()
        engine = cluster.antientropy
        pair = (US_EAST, US_WEST)
        state = engine._pairs[pair]
        state.delay_ms = 1_600.0
        state.outstanding = 9
        engine._on_response(
            SyncResponse(
                responder=US_WEST,
                requester=US_EAST,
                request_id=9,
                records=(),
                vv=cluster.replica(US_WEST).vv.copy(),
            )
        )
        assert state.converged
        engine._tick(pair)
        assert state.delay_ms == 100.0  # back to the base interval

    def test_backoff_resets_after_partition_heals(self):
        plan = FaultPlan(
            seed=5,
            partitions=(
                PartitionWindow(
                    0.0, 8_000.0, (US_EAST,), (US_WEST, EU_WEST)
                ),
            ),
        )
        sim, cluster = make_cluster(faults=plan)
        add(cluster, US_WEST, "s", "x")
        sim.run(until=7_000.0)
        grown = cluster.antientropy.backoff_ms[(US_EAST, US_WEST)]
        assert grown > 100.0
        assert cluster.run_until_converged(timeout_ms=60_000.0) is not None
        # One post-heal round marks the pair converged; the tick after
        # that resets the delay -- two backed-off cycles at most.
        sim.run(until=sim.now + 15_000.0)
        healed = cluster.antientropy.backoff_ms[(US_EAST, US_WEST)]
        assert healed == 100.0


class TestRestart:
    def test_stop_then_start_keeps_one_loop_per_pair(self):
        """``stop()`` used to leave every pair's next tick in the heap,
        so a ``start()`` before it fired ran two chains side by side
        (424 digests in the ten seconds below, against 267)."""

        def digests_in_ten_seconds(restart: bool) -> int:
            sim = Simulator()
            cluster = Cluster(sim, set_registry())
            engine = cluster.start_antientropy(interval_ms=200.0, seed=17)
            sim.run(until=1_000.0)
            if restart:
                engine.stop()
                engine.start()
            before = engine.digests_sent
            sim.run(until=11_000.0)
            return engine.digests_sent - before

        steady = digests_in_ten_seconds(restart=False)
        # The restart re-staggers first ticks, so allow a few either way.
        assert abs(digests_in_ten_seconds(restart=True) - steady) <= 12

    def test_stopped_engine_sends_nothing(self):
        sim, cluster = make_cluster()
        sim.run(until=1_000.0)
        cluster.antientropy.stop()
        sent = cluster.antientropy.digests_sent
        sim.run(until=5_000.0)
        assert cluster.antientropy.digests_sent == sent
