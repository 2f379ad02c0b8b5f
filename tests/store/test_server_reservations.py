"""Service model, processing queue and reservation manager tests."""

import pytest

from repro.errors import ReservationError
from repro.sim.events import Simulator
from repro.sim.latency import EU_WEST, US_EAST, US_WEST, GeoLatencyModel
from repro.sim.network import Network
from repro.store.reservations import ReservationManager
from repro.store.server import ProcessingQueue, ServiceModel


class TestServiceModel:
    def test_cost_composition(self):
        model = ServiceModel(
            base_ms=1.0, per_update_ms=0.1, per_object_ms=0.5,
            per_read_ms=0.2,
        )
        assert model.cost(reads=2, updates=3, objects=2) == pytest.approx(
            1.0 + 0.4 + 0.3 + 1.0
        )


class TestProcessingQueue:
    def test_sequential_service(self):
        sim = Simulator()
        queue = ProcessingQueue(sim)
        finished = []
        for index in range(3):
            queue.submit(
                lambda: 10.0, lambda i=index: finished.append((i, sim.now))
            )
        sim.run()
        assert [time for _i, time in finished] == [10.0, 20.0, 30.0]
        assert queue.processed == 3

    def test_run_executes_at_dispatch_time(self):
        sim = Simulator()
        queue = ProcessingQueue(sim)
        state = []
        queue.submit(lambda: (state.append(sim.now), 5.0)[1], lambda: None)
        queue.submit(lambda: (state.append(sim.now), 5.0)[1], lambda: None)
        sim.run()
        assert state == [0.0, 5.0]

    def test_depth_tracking(self):
        sim = Simulator()
        queue = ProcessingQueue(sim)
        for _ in range(5):
            queue.submit(lambda: 1.0, lambda: None)
        assert queue.max_depth >= 4
        sim.run()
        assert queue.depth == 0


def manager():
    sim = Simulator()
    network = Network(sim, GeoLatencyModel(jitter=0.0))
    mgr = ReservationManager(sim, network)
    mgr.register("res", US_EAST)
    return sim, mgr


class TestReservationManager:
    def test_local_acquire_immediate(self):
        sim, mgr = manager()
        fired = []
        mgr.acquire(US_EAST, ("res",), lambda: fired.append(sim.now))
        assert fired == [0.0]

    def test_remote_acquire_costs_round_trip(self):
        sim, mgr = manager()
        fired = []
        mgr.acquire(US_WEST, ("res",), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [80.0]
        assert mgr.holder_of("res") == US_WEST

    def test_second_acquire_local_after_migration(self):
        sim, mgr = manager()
        mgr.acquire(US_WEST, ("res",), lambda: None)
        sim.run()
        fired = []
        mgr.acquire(US_WEST, ("res",), lambda: fired.append(sim.now))
        assert fired == [sim.now]

    def test_queued_transfers_serialise(self):
        sim, mgr = manager()
        times = []
        mgr.acquire(US_WEST, ("res",), lambda: times.append(sim.now))
        mgr.acquire(EU_WEST, ("res",), lambda: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(80.0)
        # Second transfer goes US_WEST -> EU_WEST: +160 RTT.
        assert times[1] == pytest.approx(240.0)

    def test_multiple_reservations_acquired_in_order(self):
        sim = Simulator()
        network = Network(sim, GeoLatencyModel(jitter=0.0))
        mgr = ReservationManager(sim, network)
        mgr.register("r1", US_EAST)
        mgr.register("r2", US_WEST)
        fired = []
        mgr.acquire(EU_WEST, ("r2", "r1"), lambda: fired.append(sim.now))
        sim.run()
        # r1 first (sorted): 80 RTT, then r2: 160 RTT.
        assert fired == [pytest.approx(240.0)]
        assert mgr.holder_of("r1") == EU_WEST
        assert mgr.holder_of("r2") == EU_WEST

    def test_unknown_reservation(self):
        sim, mgr = manager()
        with pytest.raises(ReservationError):
            mgr.acquire(US_EAST, ("ghost",), lambda: None)

    def test_unavailable_holder_blocks(self):
        """Paper §5.2.5: if the holder is down, the op cannot execute."""
        sim, mgr = manager()
        mgr.mark_unavailable(US_EAST)
        fired = []
        mgr.acquire(US_WEST, ("res",), lambda: fired.append(sim.now))
        sim.run(until=10_000.0)
        assert fired == []
        # Healing lets the queued acquisition proceed.
        mgr.mark_available(US_EAST)
        mgr.acquire(US_WEST, ("res",), lambda: fired.append(sim.now))
        sim.run()
        assert len(fired) >= 1

    def test_transfer_counter(self):
        sim, mgr = manager()
        mgr.acquire(US_WEST, ("res",), lambda: None)
        sim.run()
        mgr.acquire(US_WEST, ("res",), lambda: None)
        assert mgr.transfers == 1
