"""The discrete-event engine: a clock and a pending-event heap.

Time is measured in milliseconds (float) to match the latency numbers
the paper reports.  Events are callbacks scheduled at absolute times;
ties break by insertion order, keeping runs fully deterministic.

Every simulated message, service completion and timer passes through
this heap, so events are plain ``(time, seq, fn, args)`` tuples: heapq
compares them in C (the unique ``seq`` breaks ties before the
incomparable callback is ever reached), and callers pass
``schedule(delay, fn, *args)`` instead of allocating a closure per
message.  Cancellation is tracked in a side set of sequence numbers so
the common no-cancellation run pays nothing for it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

# (time, seq, fn, args) -- `seq` is unique per simulator, so tuple
# comparison never falls through to the callback.
Event = tuple[float, int, Callable[..., None], tuple]


class Simulator:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[Event] = []
        self._cancelled: set[int] = set()

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``fn(*args)`` after ``delay`` ms; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        event = (self._now + delay, seq, fn, args)
        heappush(self._heap, event)
        return event

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        now = self._now
        self._seq = seq = self._seq + 1
        event = (time if time > now else now, seq, fn, args)
        heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        self._cancelled.add(event[1])

    def run(self, until: float | None = None) -> None:
        """Process events until the queue drains or ``until`` (ms)."""
        heap = self._heap
        pop = heappop
        cancelled = self._cancelled
        if until is None:
            while heap:
                time_, seq, fn, args = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now = time_
                fn(*args)
            return
        while heap:
            if heap[0][0] > until:
                self._now = until
                return
            time_, seq, fn, args = pop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now = time_
            fn(*args)
        if until > self._now:
            self._now = until

    @property
    def pending(self) -> int:
        cancelled = self._cancelled
        if not cancelled:
            return len(self._heap)
        return sum(1 for event in self._heap if event[1] not in cancelled)
