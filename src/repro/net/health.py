"""Failure detection and recovery primitives for the live fleet.

Three small machines, each clock-free (callers pass ``now_ms``) so the
same code is unit-testable with a fake clock and drives real wall time
in the servers:

- :class:`FailureDetector` -- phi-accrual suspicion over heartbeat
  inter-arrival times (Hayashibara et al.), simplified to the
  exponential-distribution form: with ``mean`` the sliding-window mean
  interval and ``elapsed`` the silence since the last heartbeat,
  ``phi = log10(e) * elapsed / mean``.  A peer is *suspect* once phi
  crosses the threshold -- crossing at ``threshold = 8`` with the
  default window means roughly ``18x`` the mean interval of silence,
  far past jitter but well under an anti-entropy cycle.  Up/down
  transitions are edge-counted so servers can export
  ``net.health.suspects`` / ``net.health.recoveries`` without scraping
  state.

- :class:`CircuitBreaker` -- per-link connect protection: after
  ``failure_threshold`` consecutive failures the circuit *opens* for a
  cooldown drawn from the shared decorrelated-jitter
  :class:`~repro.net.retry.RetryPolicy` (so repeated outages back off
  and de-synchronise across links); once the cooldown passes, the next
  ``allow`` half-opens the circuit for exactly one probe, and the
  probe's outcome closes or re-opens it.

- :class:`HintQueue` -- bounded durable buffering of wire messages for
  a down peer (hinted handoff).  Hints are whole frame-able message
  dicts persisted as :mod:`repro.store.framedlog` frames, so a
  process death loses nothing already handed off; the bound evicts the
  *oldest* hints first because anti-entropy is the backstop for
  anything the queue sheds.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Any

from repro.net import wire
from repro.net.retry import RetryPolicy
from repro.store import framedlog

#: log10(e): converts "elapsed in units of the mean interval" to phi.
_PHI_FACTOR = math.log10(math.e)


class FailureDetector:
    """Phi-accrual suspicion over per-peer heartbeat arrivals.

    ``interval_ms`` seeds the expected inter-arrival mean until enough
    real samples accumulate, and floors the estimated mean afterwards
    (a burst of back-to-back heartbeats must not make the detector
    hair-triggered).  Peers start *up* with a grace period of one
    interval: a peer that never speaks is only suspected once silence
    from ``start_ms`` crosses the threshold, like any other silence.
    """

    def __init__(
        self,
        peers: tuple[str, ...],
        interval_ms: float,
        start_ms: float = 0.0,
        threshold: float = 8.0,
        window: int = 32,
    ) -> None:
        self.interval_ms = float(interval_ms)
        self.threshold = float(threshold)
        self._window = window
        self._last: dict[str, float] = {peer: start_ms for peer in peers}
        self._gaps: dict[str, deque[float]] = {
            peer: deque(maxlen=window) for peer in peers
        }
        self._up: dict[str, bool] = {peer: True for peer in peers}
        self.heartbeats = 0
        self.suspects = 0
        self.recoveries = 0

    def note_alive(self, peer: str, now_ms: float) -> bool:
        """Record a sign of life; True if this was a down->up recovery."""
        if peer not in self._last:
            return False
        self.heartbeats += 1
        gap = now_ms - self._last[peer]
        if gap > 0.0:
            self._gaps[peer].append(gap)
        self._last[peer] = now_ms
        if not self._up[peer]:
            self._up[peer] = True
            self.recoveries += 1
            return True
        return False

    def phi(self, peer: str, now_ms: float) -> float:
        gaps = self._gaps[peer]
        mean = (
            sum(gaps) / len(gaps) if gaps else self.interval_ms
        )
        if mean < self.interval_ms:
            mean = self.interval_ms
        elapsed = now_ms - self._last[peer]
        if elapsed <= 0.0:
            return 0.0
        return _PHI_FACTOR * elapsed / mean

    def is_up(self, peer: str, now_ms: float) -> bool:
        """Current verdict for ``peer``; edge-counts an up->down flip."""
        up = self.phi(peer, now_ms) < self.threshold
        if self._up[peer] and not up:
            self._up[peer] = False
            self.suspects += 1
        elif up and not self._up[peer]:
            self._up[peer] = True
            self.recoveries += 1
        return up

    def up_count(self, now_ms: float) -> int:
        return sum(1 for peer in self._last if self.is_up(peer, now_ms))

    def snapshot(self, now_ms: float) -> dict[str, Any]:
        """Status-frame payload: per-peer phi and verdict, plus edges."""
        return {
            "peers": {
                peer: {
                    "up": self.is_up(peer, now_ms),
                    "phi": round(self.phi(peer, now_ms), 2),
                    "silence_ms": round(now_ms - self._last[peer], 1),
                }
                for peer in sorted(self._last)
            },
            "suspects": self.suspects,
            "recoveries": self.recoveries,
        }


class CircuitBreaker:
    """Consecutive-failure circuit with jittered cooldowns.

    States: *closed* (allow everything), *open* (allow nothing until
    ``now_ms`` passes the cooldown), *half-open* (exactly one probe in
    flight; its outcome decides).  The cooldown grows across repeated
    openings via the policy's decorrelated jitter and resets with the
    first success, matching every other backoff in the repo.
    """

    def __init__(
        self, policy: RetryPolicy, failure_threshold: int = 3
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self._policy = policy
        self._threshold = failure_threshold
        self.state = "closed"
        self._failures = 0
        self._open_until = 0.0
        self.opened = 0

    def allow(self, now_ms: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now_ms >= self._open_until:
                self.state = "half-open"
                return True
            return False
        # half-open: the single probe is out; hold further traffic.
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self._failures = 0
        self._policy.reset()

    def record_failure(self, now_ms: float) -> None:
        self._failures += 1
        if self.state == "half-open" or self._failures >= self._threshold:
            self.state = "open"
            self._open_until = now_ms + self._policy.next_delay_ms()
            self.opened += 1

    def cooldown_remaining_ms(self, now_ms: float) -> float:
        if self.state != "open":
            return 0.0
        return max(0.0, self._open_until - now_ms)


class HintQueue:
    """Bounded, durable handoff buffer of wire messages for one peer.

    ``append`` persists the message write-through (framed-log frame
    around the wire codec's body bytes) before mirroring it in memory,
    so hints survive a crash of the *holding* replica too.  The bound
    keeps the newest ``limit`` hints -- the oldest are the ones
    anti-entropy has had the longest to cover.  ``drain`` empties both
    the memory mirror and the file; redelivery is idempotent upstream
    (servers dedup records by version vector), so a crash between
    drain and delivery at worst re-sends.

    Hints are regenerable (anti-entropy covers whatever is lost), so
    loading always salvages: any damaged hint -- torn, CRC-broken or
    refused by the codec -- cuts the file there, and every hint the cut
    loses counts into ``dropped`` like the bound's evictions.
    """

    def __init__(self, path: str, limit: int = 512) -> None:
        if limit < 1:
            raise ValueError("hint limit must be >= 1")
        self.path = os.fspath(path)
        self.limit = limit
        self._log = framedlog.FramedLog(self.path)
        messages, self.dropped = framedlog.read(self.path, _load_hint, salvage=True)
        self._messages: deque[dict] = deque(messages)
        while len(self._messages) > limit:
            self._messages.popleft()
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._messages)

    def append(self, message: dict) -> None:
        self._log.append(wire.encode_body(message))
        self._log.sync()
        self._messages.append(message)
        if len(self._messages) > self.limit:
            self._messages.popleft()
            self.dropped += 1

    def drain(self) -> list[dict]:
        """All buffered hints, oldest first; resets the queue."""
        hints = list(self._messages)
        self._messages.clear()
        self._log.rewrite(())  # drained hints are the deliverer's problem
        return hints

    def close(self) -> None:
        self._log.close()


def _load_hint(body: bytes) -> dict:
    try:
        return wire.load_frame(body)
    except wire.WireError as exc:
        raise framedlog.Refused(f"undecodable hint ({exc})") from exc
