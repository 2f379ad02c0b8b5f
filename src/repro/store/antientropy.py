"""Anti-entropy: version-vector digest exchange with retransmission.

Broadcast replication (:meth:`Cluster._replicate`) is fire-and-forget;
on a faulty network a commit record can be lost to a drop, a
partition, or a crashed receiver, and causal delivery at that replica
stalls forever -- every later record from the same origin waits in the
pending buffer.  This module restores liveness the way Dynamo-style
stores do: periodic pairwise digest exchange.

For every ordered pair of regions ``(R, P)`` the engine runs an
independent sync loop on the simulated clock:

1. ``R`` sends ``P`` a :class:`SyncRequest` carrying ``R``'s version
   vector digest (:meth:`~repro.store.replica.Replica.vv_digest`: one
   shared read-only copy per replica, rebuilt only after the vector
   moved -- messages carry it as is and must not write to it).
2. ``P`` answers with every applied record the digest is missing
   (served from the durable commit log via
   :meth:`~repro.store.replica.Replica.records_since`) plus ``P``'s
   own digest.
3. ``R`` feeds the records to its causal receiver, and *reverse
   pushes* anything ``P``'s digest shows it lacks -- one round heals
   both directions.

Most rounds are *idle*: the two replicas already agree.  Such a round
still costs its three simulated events and two messages (the schedule
is the same whether or not there is anything to repair), but nothing
else: both digests are already built, ``records_since`` answers an
equal digest -- in step 2 and again for the reverse push in step 3 --
without reading the log, and with no records in either direction no
batch is built or delivered.

Requests and responses travel over the same faulty network as
replication traffic, so the loop self-paces with the shared
**decorrelated-jitter** :class:`~repro.net.retry.RetryPolicy` (the
same policy the live client fleet and live servers use): a round whose
response has not arrived by the next tick draws a longer delay (up to
a cap); a served response resets it.  During a partition the pairs
that cross it back off instead of flooding; after the heal the next
successful round re-fetches everything missed, and
time-to-convergence is bounded by the backoff cap.

Crashed replicas neither request nor respond; recovery
(:meth:`Cluster.recover_region`) replays the local log and calls
:meth:`AntiEntropyEngine.sync_now` to fetch what was missed while
down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crdts.clock import VersionVector
from repro.net.retry import RetryPolicy
from repro.obs import TRACER
from repro.sim.events import Event
from repro.store.replica import ReplicaSnapshot
from repro.store.replication import ReplicationBatch
from repro.store.transaction import CommitRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.cluster import Cluster


@dataclass(slots=True)
class SyncRequest:
    """Digest ``requester`` sends to ``responder``: "what am I missing?".

    The digest is the requester's version vector and nothing else: the
    responder answers with every record the vector lacks, or with its
    whole snapshot when the vector predates its log truncation (see
    :meth:`~repro.store.replica.Replica.sync_answer`).
    """

    requester: str
    responder: str
    request_id: int
    vv: VersionVector


@dataclass(slots=True)
class SyncResponse:
    """The records the digest was missing, plus the responder's vector.

    ``snapshot`` is normally None; it is populated when the digest
    predates the responder's log-truncation base, in which case
    ``records`` holds only the tail beyond the snapshot's vector
    (see :meth:`~repro.store.replica.Replica.sync_answer`).
    """

    responder: str
    requester: str
    request_id: int
    records: tuple[CommitRecord, ...]
    vv: VersionVector
    snapshot: ReplicaSnapshot | None = None


@dataclass
class _PairState:
    policy: RetryPolicy
    delay_ms: float
    outstanding: int | None = None
    #: Did the last answered round leave the requester dominating the
    #: responder's vector?  The retry policy resets only when it did:
    #: a round that was *served* but still left the pair diverged must
    #: not snap the delay back to base, or a persistently-behind pair
    #: floods its peer at full rate while never catching up.
    converged: bool = True


class AntiEntropyEngine:
    """Periodic digest exchange between every pair of live replicas."""

    def __init__(
        self,
        cluster: "Cluster",
        interval_ms: float = 250.0,
        max_backoff_ms: float = 4_000.0,
        jitter: float = 0.25,
        seed: int = 29,
    ) -> None:
        self._cluster = cluster
        self._sim = cluster.sim
        self._network = cluster.network
        self._interval = interval_ms
        self._max_backoff = max_backoff_ms
        self._jitter = jitter
        self._rng = random.Random(seed)
        self._running = False
        #: Each pair's pending tick, so ``stop()`` can cancel the chains
        #: instead of leaving them in the heap to run beside the ones a
        #: later ``start()`` schedules.
        self._ticks: dict[tuple[str, str], Event] = {}
        self._next_request_id = 0
        self._pairs: dict[tuple[str, str], _PairState] = {}
        for requester in cluster.regions:
            for responder in cluster.regions:
                if requester != responder:
                    # One policy per pair, all drawing from the engine's
                    # seeded RNG: bit-for-bit deterministic, and pairs
                    # decorrelate instead of backing off in lock-step.
                    self._pairs[(requester, responder)] = _PairState(
                        policy=RetryPolicy(
                            base_ms=interval_ms,
                            cap_ms=max_backoff_ms,
                            rng=self._rng,
                        ),
                        delay_ms=interval_ms,
                    )
        # Metrics surfaced by the chaos benchmark.
        self.digests_sent = 0
        self.responses_received = 0
        self.records_retransmitted = 0
        self.records_pushed = 0
        self.sync_timeouts = 0
        self.snapshots_installed = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin every pair's sync loop (idempotent)."""
        if self._running:
            return
        self._running = True
        for index, pair in enumerate(sorted(self._pairs)):
            # Stagger first ticks deterministically so pairs do not
            # digest-exchange in lock-step.
            offset = self._interval * (1.0 + index / len(self._pairs))
            self._ticks[pair] = self._sim.schedule(offset, self._tick, pair)

    def stop(self) -> None:
        self._running = False
        for tick in self._ticks.values():
            self._sim.cancel(tick)
        self._ticks.clear()

    def sync_now(self, region: str) -> None:
        """Fire one immediate digest from ``region`` to every peer.

        Used right after crash recovery: the replayed log restores the
        pre-crash state, and this round fetches everything committed
        elsewhere while the replica was down.
        """
        for (requester, responder), state in self._pairs.items():
            if requester == region:
                state.policy.reset()
                state.delay_ms = self._interval
                state.converged = True
                self._send_request(requester, responder, state)

    @property
    def backoff_ms(self) -> dict[tuple[str, str], float]:
        """Current per-pair delay (observability for tests/benchmarks)."""
        return {pair: state.delay_ms for pair, state in self._pairs.items()}

    # -- the sync loop -------------------------------------------------------

    def _tick(self, pair: tuple[str, str]) -> None:
        if not self._running:
            return
        requester, responder = pair
        state = self._pairs[pair]
        if self._cluster.is_crashed(requester):
            # A crashed replica does not sync; poll again at base rate.
            state.policy.reset()
            state.delay_ms = self._interval
            state.outstanding = None
            state.converged = True
        else:
            if state.outstanding is not None:
                # The previous round never answered: drop, partition,
                # or crashed peer.  Back off with decorrelated jitter.
                self.sync_timeouts += 1
                state.delay_ms = state.policy.next_delay_ms()
            elif state.converged:
                state.policy.reset()
                state.delay_ms = self._interval
            # else: the last round *was* answered but left the pair
            # still diverged -- hold the current delay instead of
            # resetting, so only actual convergence earns the base
            # rate back.
            self._send_request(requester, responder, state)
        delay = state.delay_ms * (1.0 + self._rng.uniform(0.0, self._jitter))
        self._ticks[pair] = self._sim.schedule(delay, self._tick, pair)

    def _send_request(
        self, requester: str, responder: str, state: _PairState
    ) -> None:
        self._next_request_id = request_id = self._next_request_id + 1
        request = SyncRequest(
            requester,
            responder,
            request_id,
            self._cluster.replica(requester).vv_digest(),
        )
        state.outstanding = request_id
        self.digests_sent += 1
        self._network.send(
            requester, responder, request, self._on_request
        )

    def _on_request(self, request: SyncRequest) -> None:
        responder = request.responder
        if self._cluster.is_crashed(responder):
            return
        span = (
            TRACER.start(
                "store.antientropy.respond",
                responder=responder,
                requester=request.requester,
            )
            if TRACER.enabled
            else None
        )
        replica = self._cluster.replica(responder)
        missing, snapshot = replica.sync_answer(request.vv)
        response = SyncResponse(
            responder,
            request.requester,
            request.request_id,
            tuple(missing),
            replica.vv_digest(),
            snapshot,
        )
        self._network.send(
            responder, request.requester, response, self._on_response
        )
        if span is not None:
            TRACER.end(
                span, records=len(missing), snapshot=snapshot is not None
            )

    def _on_response(self, response: SyncResponse) -> None:
        requester = response.requester
        responder = response.responder
        state = self._pairs[(requester, responder)]
        if state.outstanding == response.request_id:
            state.outstanding = None
        self.responses_received += 1
        if self._cluster.is_crashed(requester):
            return
        span = (
            TRACER.start(
                "store.antientropy.apply",
                requester=requester,
                responder=responder,
            )
            if TRACER.enabled
            else None
        )
        replica = self._cluster.replica(requester)
        records = response.records
        if response.snapshot is not None:
            # The responder truncated past our digest: adopt its
            # snapshot (refused if it does not dominate our state),
            # then apply the tail like any retransmission.
            if replica.install_snapshot(response.snapshot):
                self.snapshots_installed += 1
        if records:
            self.records_retransmitted += len(records)
            self._cluster.deliver_batch(
                requester,
                ReplicationBatch(source=responder, records=records),
            )
        # The pair converged iff the served records (applied eagerly by
        # the causal receiver above) brought the requester up to the
        # responder's vector; anything less keeps the backoff earned.
        state.converged = replica.vv.dominates(response.vv)
        # Reverse push: heal the other direction in the same round.
        # (Nothing, found without reading the log, when the two agree.)
        push = replica.records_since(response.vv)
        if push:
            self.records_pushed += len(push)
            self._network.send(
                requester,
                responder,
                ReplicationBatch(source=requester, records=tuple(push)),
                lambda batch: self._cluster.deliver_batch(responder, batch),
            )
        if span is not None:
            TRACER.end(span, retransmitted=len(records), pushed=len(push))
