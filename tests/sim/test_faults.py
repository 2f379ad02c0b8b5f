"""Fault-injection layer: plans, injector verdicts, network behaviour."""

import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.faults import (
    CLEAN,
    CrashWindow,
    FaultInjector,
    FaultPlan,
    PartitionWindow,
)
from repro.sim.latency import (
    EU_WEST,
    REGIONS,
    GeoLatencyModel,
    US_EAST,
    US_WEST,
)
from repro.sim.network import Network

FIXTURES = Path(__file__).parent / "fixtures"


def flat_latency():
    return GeoLatencyModel(jitter=0.0)


class TestFaultPlanValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop=1.5)

    def test_rejects_inverted_partition_window(self):
        with pytest.raises(SimulationError):
            PartitionWindow(10.0, 5.0, (US_EAST,), (US_WEST,))

    def test_rejects_region_on_both_sides(self):
        with pytest.raises(SimulationError):
            PartitionWindow(0.0, 5.0, (US_EAST,), (US_EAST, US_WEST))

    def test_rejects_inverted_crash_window(self):
        with pytest.raises(SimulationError):
            CrashWindow(US_EAST, 10.0, 10.0)


class TestInjectorVerdicts:
    def test_clean_plan_passes_everything(self):
        injector = FaultInjector(FaultPlan())
        for _ in range(50):
            verdict = injector.on_send(US_EAST, US_WEST, 0.0)
            assert not verdict.dropped
            assert verdict.copies == ((0.0, True),)
        assert injector.dropped == 0

    def test_local_messages_never_faulted(self):
        injector = FaultInjector(FaultPlan(seed=1, drop=1.0))
        verdict = injector.on_send(US_EAST, US_EAST, 0.0)
        assert not verdict.dropped

    def test_drop_probability_respected(self):
        injector = FaultInjector(FaultPlan(seed=3, drop=0.5))
        for _ in range(400):
            injector.on_send(US_EAST, US_WEST, 0.0)
        assert 140 <= injector.dropped <= 260

    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(seed=11, drop=0.3, duplicate=0.2, reorder=0.2)
        a, b = FaultInjector(plan), FaultInjector(plan)
        verdicts_a = [a.on_send(US_EAST, US_WEST, 0.0) for _ in range(200)]
        verdicts_b = [b.on_send(US_EAST, US_WEST, 0.0) for _ in range(200)]
        assert verdicts_a == verdicts_b

    def test_partition_blocks_both_ways_and_heals(self):
        plan = FaultPlan(
            partitions=(
                PartitionWindow(100.0, 200.0, (US_EAST,), (US_WEST, EU_WEST)),
            )
        )
        injector = FaultInjector(plan)
        assert not injector.on_send(US_EAST, US_WEST, 50.0).dropped
        assert injector.on_send(US_EAST, US_WEST, 150.0).dropped
        assert injector.on_send(EU_WEST, US_EAST, 150.0).dropped
        # Within one side the partition is invisible.
        assert not injector.on_send(US_WEST, EU_WEST, 150.0).dropped
        assert not injector.on_send(US_EAST, US_WEST, 200.0).dropped
        assert injector.partition_drops == 2

    def test_crash_window_query(self):
        plan = FaultPlan(crashes=(CrashWindow(EU_WEST, 100.0, 200.0),))
        injector = FaultInjector(plan)
        assert not injector.crashed(EU_WEST, 50.0)
        assert injector.crashed(EU_WEST, 150.0)
        assert not injector.crashed(EU_WEST, 200.0)
        assert not injector.crashed(US_EAST, 150.0)


class TestNetworkUnderFaults:
    def test_dropped_message_never_delivers(self):
        sim = Simulator()
        network = Network(
            sim, flat_latency(), FaultInjector(FaultPlan(seed=1, drop=1.0))
        )
        got = []
        network.send(US_EAST, US_WEST, "m", got.append)
        sim.run()
        assert got == []
        assert network.messages_dropped == 1

    def test_duplicate_delivers_twice(self):
        sim = Simulator()
        network = Network(
            sim,
            flat_latency(),
            FaultInjector(FaultPlan(seed=1, duplicate=1.0)),
        )
        got = []
        network.send(US_EAST, US_WEST, "m", got.append)
        sim.run()
        assert got == ["m", "m"]
        assert network.messages_duplicated == 1

    def test_reordering_overrides_fifo(self):
        """A reordered message may be overtaken by a later send."""
        sim = Simulator()
        plan = FaultPlan(seed=2, reorder=1.0, reorder_delay_ms=500.0)
        network = Network(sim, flat_latency(), FaultInjector(plan))
        got = []
        network.send(US_EAST, US_WEST, "slow", got.append)
        # Clean network for the second message.
        clean = Network(sim, flat_latency())
        clean.send(US_EAST, US_WEST, "fast", got.append)
        sim.run()
        assert network.messages_reordered == 1
        assert got.index("fast") < got.index("slow") or got == [
            "slow",
            "fast",
        ]

    def test_fifo_preserved_without_reordering(self):
        sim = Simulator()
        plan = FaultPlan(seed=5, duplicate=0.5)
        network = Network(sim, flat_latency(), FaultInjector(plan))
        got = []
        for i in range(20):
            network.send(US_EAST, US_WEST, i, got.append)
        sim.run()
        primaries = [m for m in dict.fromkeys(got)]
        assert primaries == sorted(primaries)


class TestDeterministicTieBreak:
    def test_equal_arrival_delivers_in_send_order(self):
        """Zero-jitter sends on one edge arrive FIFO-clamped to the
        same ordering; ties at identical instants break by send
        sequence number, not by any hash order."""
        sim = Simulator()
        network = Network(sim, flat_latency())
        got = []
        # Two edges with identical latency: us-east->us-west and
        # us-east->eu-west both take 40 ms, so all four arrivals tie.
        network.send(US_EAST, US_WEST, "a", got.append)
        network.send(US_EAST, EU_WEST, "b", got.append)
        network.send(US_EAST, US_WEST, "c", got.append)
        network.send(US_EAST, EU_WEST, "d", got.append)
        sim.run()
        # c/d are clamped behind a/b on their edges; across edges the
        # send sequence decides.
        assert got == ["a", "b", "c", "d"]

    def test_identical_runs_deliver_identically(self):
        def run():
            sim = Simulator()
            plan = FaultPlan(
                seed=13, drop=0.2, duplicate=0.2, reorder=0.3
            )
            network = Network(
                sim, GeoLatencyModel(jitter=0.1, seed=5), FaultInjector(plan)
            )
            got = []
            for i in range(100):
                target = (US_WEST, EU_WEST)[i % 2]
                network.send(US_EAST, target, i, got.append)
            sim.run()
            return got, network.messages_dropped, network.messages_reordered

        assert run() == run()


def lossy_deliveries(seed: int) -> dict:
    """120 messages round the three regions under a lossy plan with a
    partition window; what arrived, when, and every fault counter."""
    plan = FaultPlan(
        seed=seed,
        drop=0.04,
        duplicate=0.03,
        reorder=0.2,
        partitions=(
            PartitionWindow(300.0, 500.0, REGIONS[:1], REGIONS[1:]),
        ),
    )
    sim = Simulator()
    injector = FaultInjector(plan)
    network = Network(
        sim, GeoLatencyModel(seed=seed + 1), injector=injector
    )
    arrived = []
    for index in range(120):
        source = REGIONS[index % 3]
        target = REGIONS[(index + 1 + index // 3 % 2) % 3]
        sim.at(
            index * 7.0,
            network.send,
            source,
            target,
            index,
            lambda i: arrived.append([i, sim.now]),
        )
    sim.run()
    return {
        "arrived": arrived,
        "network": [
            network.messages_sent,
            network.messages_delivered,
            network.messages_dropped,
            network.messages_duplicated,
            network.messages_reordered,
        ],
        "injector": [
            injector.dropped,
            injector.duplicated,
            injector.reordered,
            injector.partition_drops,
        ],
    }


class TestUnfaultedMessagesShareTheCleanVerdict:
    """A lossy plan's messages that no fault hit get the shared
    ``CLEAN`` (so ``Network.send`` stays on its fast path) after the
    same five draws: deliveries and counters are those recorded at
    a74d154, where every verdict was a fresh ``Delivery``."""

    def test_no_fault_means_the_shared_verdict(self):
        injector = FaultInjector(
            FaultPlan(seed=11, drop=0.1, duplicate=0.1, reorder=0.2)
        )
        verdicts = [
            injector.on_send(US_EAST, US_WEST, 0.0) for _ in range(300)
        ]
        plain = [v for v in verdicts if v.copies == ((0.0, True),)]
        assert plain and all(v is CLEAN for v in plain)

    @pytest.mark.parametrize("seed", [3, 17, 101, 2024, 99991])
    def test_deliveries_match_the_parent_commit(self, seed):
        pinned = json.loads(
            (FIXTURES / "lossy_deliveries.json").read_text(encoding="utf-8")
        )
        assert lossy_deliveries(seed) == pinned[str(seed)]


class TestFaultPlanSerialization:
    def full_plan(self):
        return FaultPlan(
            seed=42,
            drop=0.1,
            duplicate=0.05,
            reorder=0.2,
            reorder_delay_ms=120.0,
            duplicate_delay_ms=60.0,
            partitions=(
                PartitionWindow(100.0, 500.0, (US_EAST,), (US_WEST, EU_WEST)),
                PartitionWindow(600.0, 700.0, (US_WEST,), (EU_WEST,)),
            ),
            crashes=(CrashWindow(EU_WEST, 200.0, 400.0),),
        )

    def test_round_trip_preserves_every_field(self):
        plan = self.full_plan()
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        # And the dict itself is stable across the round trip.
        assert again.to_dict() == plan.to_dict()

    def test_round_trip_is_json_safe(self):
        import json

        plan = self.full_plan()
        rehydrated = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert rehydrated == plan

    def test_defaults_round_trip_from_empty_dict(self):
        assert FaultPlan.from_dict({}) == FaultPlan()

    def test_from_dict_revalidates_zero_length_partition(self):
        data = self.full_plan().to_dict()
        window = data["partitions"][0]
        window["end_ms"] = window["start_ms"]  # zero-length window
        with pytest.raises(SimulationError, match="heals before"):
            FaultPlan.from_dict(data)

    def test_from_dict_revalidates_zero_length_crash(self):
        data = self.full_plan().to_dict()
        data["crashes"][0]["end_ms"] = data["crashes"][0]["start_ms"]
        with pytest.raises(SimulationError):
            FaultPlan.from_dict(data)

    def test_from_dict_revalidates_overlapping_sides(self):
        data = self.full_plan().to_dict()
        data["partitions"][0]["side_b"].append(US_EAST)  # now on both sides
        with pytest.raises(SimulationError):
            FaultPlan.from_dict(data)

    def test_from_dict_revalidates_probabilities(self):
        data = self.full_plan().to_dict()
        data["drop"] = 1.5
        with pytest.raises(SimulationError):
            FaultPlan.from_dict(data)
