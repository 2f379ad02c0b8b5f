"""Message-passing network over the simulated clock.

Messages between regions take one jittered one-way latency; delivery
order between a pair of endpoints is FIFO (a delivery is never
scheduled before one already in flight on the same edge), which the
causal-delivery layer of the store relies on for per-origin ordering.

Two properties matter for reproducible chaos runs:

- **Stable tie-break.**  Deliveries that land at the same simulated
  instant fire in send order: each ``send`` schedules its deliveries
  immediately, and the simulator breaks equal-time ties by insertion
  order.  No ordering ever depends on hash iteration or other
  cross-version nondeterminism.
- **Fault injection.**  When constructed with a
  :class:`~repro.sim.faults.FaultInjector`, every inter-region message
  first receives a verdict: dropped (lossy link or partition),
  duplicated (an extra delayed copy), or reordered (the copy skips the
  FIFO clamp and takes extra latency, so it can overtake neighbours).
  Reordered and duplicate copies do not advance the FIFO high-water
  mark -- a straggler delays only itself.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Simulator
from repro.sim.faults import CLEAN, FaultInjector
from repro.sim.latency import GeoLatencyModel


class Network:
    """Delivers payloads between named regions with geo latency."""

    def __init__(
        self,
        sim: Simulator,
        latency: GeoLatencyModel,
        injector: FaultInjector | None = None,
    ) -> None:
        self._sim = sim
        self._latency = latency
        self._injector = injector
        self._last_delivery: dict[tuple[str, str], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0

    def send(
        self,
        source: str,
        target: str,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Deliver ``payload`` to ``deliver`` after one-way latency.

        FIFO per (source, target) edge: delivery time is clamped to not
        precede earlier messages on the same edge -- unless the fault
        injector marks this message as reordered.
        """
        self.messages_sent += 1
        base = self._latency.one_way(source, target)
        sim = self._sim
        now = sim.now
        injector = self._injector
        verdict = (
            CLEAN if injector is None
            else injector.on_send(source, target, now)
        )
        if verdict is CLEAN:
            # Fault-free fast path: one FIFO copy, no counter updates,
            # delivery scheduling inlined.
            arrival = now + base
            edge = (source, target)
            last_delivery = self._last_delivery
            last = last_delivery.get(edge, 0.0)
            if last > arrival:
                arrival = last
            last_delivery[edge] = arrival
            self.messages_delivered += 1
            sim.at(arrival, deliver, payload)
            return
        if verdict.dropped:
            self.messages_dropped += 1
            return
        self.messages_duplicated += max(0, len(verdict.copies) - 1)
        if verdict.copies and not verdict.copies[0][1]:
            self.messages_reordered += 1
        for extra, fifo in verdict.copies:
            self._schedule_delivery(
                source, target, base + extra, fifo, payload, deliver
            )

    def _schedule_delivery(
        self,
        source: str,
        target: str,
        delay: float,
        fifo: bool,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        arrival = self._sim.now + delay
        if fifo:
            edge = (source, target)
            last = self._last_delivery.get(edge, 0.0)
            if last > arrival:
                arrival = last
            self._last_delivery[edge] = arrival
        # Scheduled deliveries always fire (the simulator never cancels
        # them), so the delivered counter is bumped here rather than
        # paying an extra callback frame per message.
        self.messages_delivered += 1
        self._sim.at(arrival, deliver, payload)

    def rtt(self, source: str, target: str) -> float:
        """Mean round-trip time (used by latency accounting)."""
        return self._latency.rtt_between(source, target)
