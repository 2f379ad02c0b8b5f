"""Server capacity model: service times and a FIFO processing queue.

Peak-throughput experiments (Figures 4 and 7) need servers that
*saturate*: as closed-loop clients multiply, queueing delay takes over
and latency climbs while throughput flattens.  Each replica therefore
owns a :class:`ProcessingQueue` with one worker, and each
transaction costs service time proportional to the work it does --
which is also precisely where IPA's extra updates and the Figure 8
microbenchmarks show up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.sim.events import Simulator


@dataclass
class ServiceModel:
    """Service-time accounting for one transaction.

    ``base_ms`` covers request handling and commit; ``per_update_ms``
    is the cost of preparing+applying one CRDT update on an object
    already loaded (cheap -- §5.2.5 notes subsequent updates to a
    loaded object "only impose processing costs"); ``per_object_ms``
    is the cost of loading/writing one distinct object, the dominant
    term in the multi-object microbenchmark (Figure 8, bottom).
    """

    base_ms: float = 0.6
    per_update_ms: float = 0.02
    per_object_ms: float = 0.95
    per_read_ms: float = 0.1

    def cost(self, reads: int, updates: int, objects: int) -> float:
        return (
            self.base_ms
            + reads * self.per_read_ms
            + updates * self.per_update_ms
            + objects * self.per_object_ms
        )


class ProcessingQueue:
    """A FIFO queue drained by one simulated worker.

    ``submit(run, done)``: when the worker frees up, ``run()`` executes
    (instantaneously mutating store state) and returns its service cost
    in ms; ``done()`` fires once that cost has elapsed.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._idle = 1
        self._queue: deque[tuple[Callable[[], float], Callable[[], None]]] = (
            deque()
        )
        self.max_depth = 0
        self.processed = 0

    def submit(
        self, run: Callable[[], float], done: Callable[[], None]
    ) -> None:
        if self._idle and not self._queue:
            # Idle worker, empty queue: run immediately without the
            # deque round-trip.  Depth accounting matches the queued
            # path (the task transits at depth 1).
            if self.max_depth == 0:
                self.max_depth = 1
            self._idle -= 1
            cost = run()
            self.processed += 1
            self._sim.schedule(cost, self._finish, done)
            return
        self._queue.append((run, done))
        depth = len(self._queue)
        if depth > self.max_depth:
            self.max_depth = depth
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle and self._queue:
            run, done = self._queue.popleft()
            self._idle -= 1
            cost = run()
            self.processed += 1
            self._sim.schedule(cost, self._finish, done)

    def _finish(self, done: Callable[[], None]) -> None:
        self._idle += 1
        done()
        self._dispatch()

    @property
    def depth(self) -> int:
        return len(self._queue)
