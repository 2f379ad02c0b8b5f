"""The geo-replicated cluster: replicas + network + consistency mode.

One :class:`Cluster` wires a :class:`~repro.store.replica.Replica` per
region onto the simulated network and exposes the single entry point
applications use, :meth:`Cluster.submit`: run a transaction at the
client's region (or at the primary, under Strong), pay the modelled
service time, reply to the client, and replicate the commit record
causally to the other regions.

Consistency modes (§5.2.1):

- ``CAUSAL``: local execution, asynchronous replication.  Both the
  unmodified applications (which then violate invariants) and the
  IPA-modified ones (which do not) run in this mode -- IPA is not a
  storage-level mode, it is the application change.
- ``STRONG``: update transactions are forwarded to the primary region
  for serialisation; clients pay the round trip.
- ``INDIGO``: like causal, but a transaction declaring reservations
  waits until its region holds them (pairwise asynchronous exchange).

Fault tolerance: constructed with a
:class:`~repro.sim.faults.FaultPlan`, the cluster runs over a lossy,
partitionable network and schedules the plan's replica crash windows.
A crashed replica drops incoming traffic and loses volatile state;
:meth:`recover_region` replays its durable commit log and triggers an
anti-entropy round (:meth:`start_antientropy`) to fetch what it missed
-- see :mod:`repro.store.antientropy`.
"""

from __future__ import annotations

import enum
import hashlib
import os
from functools import partial
from typing import Any, Callable

from repro.errors import StoreError
from repro.crdts.clock import VersionVector
from repro.obs import REGISTRY, TRACER
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import GeoLatencyModel, REGIONS
from repro.sim.metrics import StaleWindow
from repro.sim.network import Network
from repro.store.antientropy import AntiEntropyEngine
from repro.store.engine import canonical_value
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica
from repro.store.replication import CausalReceiver, ReplicationBatch
from repro.store.reservations import ReservationManager
from repro.store.server import ProcessingQueue, ServiceModel
from repro.store.transaction import CommitRecord, Transaction


class ConsistencyMode(enum.Enum):
    CAUSAL = "causal"
    STRONG = "strong"
    INDIGO = "indigo"


#: A transaction body: receives the open transaction, returns a label
#: (the operation name) used for metrics.
TxnBody = Callable[[Transaction], str]


def _deliver_response(payload: tuple[Callable[[str], None], str]) -> None:
    """Hand a response to the waiting client callback (payload-borne)."""
    done, op_name = payload
    done(op_name)


class Cluster:
    """All regions of one deployment, on one simulator."""

    def __init__(
        self,
        sim: Simulator,
        registry: TypeRegistry,
        regions: tuple[str, ...] = REGIONS,
        mode: ConsistencyMode = ConsistencyMode.CAUSAL,
        primary: str | None = None,
        latency: GeoLatencyModel | None = None,
        service: ServiceModel | None = None,
        faults: FaultPlan | None = None,
        batch_ms: float = 0.0,
        full_vv: bool = False,
        engine: str | None = None,
        shards: int | None = None,
        data_dir: str | None = None,
    ) -> None:
        self.sim = sim
        self.mode = mode
        self._strong = mode is ConsistencyMode.STRONG
        self._indigo = mode is ConsistencyMode.INDIGO
        self.regions = regions
        self.primary = primary or regions[0]
        self.injector = FaultInjector(faults) if faults is not None else None
        self.network = Network(
            sim, latency or GeoLatencyModel(), injector=self.injector
        )
        self.service = service or ServiceModel()
        #: Replication coalescing window (ms).  0 ships every commit
        #: record in its own network message (the historical default);
        #: > 0 buffers records per (origin, target) edge and flushes
        #: them as one :class:`ReplicationBatch` after the window.
        self.batch_ms = batch_ms
        self._batch_buffers: dict[tuple[str, str], list[CommitRecord]] = {}
        #: Broadcast-replication network messages sent (individual
        #: records when ``batch_ms == 0``, flushed batches otherwise).
        #: What the batching gate benchmark compares across modes.
        self.replication_messages = 0
        #: Commit records shipped through broadcast replication; with
        #: ``replication_messages`` this gives the coalescing ratio.
        self.replication_records = 0
        self._replicas: dict[str, Replica] = {}
        self._receivers: dict[str, CausalReceiver] = {}
        self._queues: dict[str, ProcessingQueue] = {}
        self._deliver_record: dict[str, Callable[[CommitRecord], None]] = {}
        self._deliver_batch: dict[str, Callable[[ReplicationBatch], None]] = {}
        self._request_path: dict[tuple[str, str], Callable[[Any], None]] = {}
        for region in regions:
            replica = Replica(
                region,
                registry,
                now=lambda: sim.now,
                full_vv=full_vv,
                engine=engine,
                shards=shards,
                data_dir=(
                    os.path.join(data_dir, region)
                    if data_dir is not None
                    else None
                ),
            )
            self._replicas[region] = replica
            self._receivers[region] = CausalReceiver(
                replica, on_apply=partial(self._note_apply, region)
            )
            self._queues[region] = ProcessingQueue(sim)
            self._deliver_record[region] = partial(self.deliver, region)
            self._deliver_batch[region] = partial(self.deliver_batch, region)
        self.reservations = ReservationManager(sim, self.network)
        self._down: set[str] = set()
        self._crashed: set[str] = set()
        self.antientropy: AntiEntropyEngine | None = None
        self.stale_window = StaleWindow()
        self.dropped_at_crashed = 0
        # Convergence lag of the most recent remote apply (held as a
        # direct instrument reference: ``_note_apply`` is hot).
        self._lag_gauge = REGISTRY.gauge("store.convergence.lag_ms")
        if faults is not None:
            self._install_crash_windows(faults)

    # -- topology ------------------------------------------------------------

    def replica(self, region: str) -> Replica:
        try:
            return self._replicas[region]
        except KeyError:
            raise StoreError(f"unknown region {region!r}") from None

    def receiver(self, region: str) -> CausalReceiver:
        return self._receivers[region]

    def fail_region(self, region: str) -> None:
        """Partition a region away (fault-tolerance experiments)."""
        self._down.add(region)
        self.reservations.mark_unavailable(region)

    def heal_region(self, region: str) -> None:
        self._down.discard(region)
        self.reservations.mark_available(region)

    # -- crash / recovery ----------------------------------------------------

    def is_crashed(self, region: str) -> bool:
        return region in self._crashed

    def crash_region(self, region: str) -> None:
        """The replica process dies: volatile state is gone.

        The durable commit log survives; the pending causal buffer and
        any in-flight messages addressed to the region do not.
        """
        self._crashed.add(region)
        self._down.add(region)
        self._receivers[region].clear()
        self.reservations.mark_unavailable(region)

    def recover_region(self, region: str) -> None:
        """Restart: replay the commit log, then sync from the peers."""
        self._crashed.discard(region)
        self._down.discard(region)
        self._replicas[region].rebuild_from_log()
        self.reservations.mark_available(region)
        if self.antientropy is not None:
            self.antientropy.sync_now(region)

    def _install_crash_windows(self, plan: FaultPlan) -> None:
        for window in plan.crashes:
            if window.region not in self._replicas:
                raise StoreError(
                    f"crash window for unknown region {window.region!r}"
                )
            self.sim.at(window.start_ms, self.crash_region, window.region)
            self.sim.at(window.end_ms, self.recover_region, window.region)

    def start_antientropy(
        self,
        interval_ms: float = 250.0,
        max_backoff_ms: float = 4_000.0,
        seed: int = 29,
    ) -> AntiEntropyEngine:
        """Start periodic digest exchange (idempotent)."""
        if self.antientropy is None:
            self.antientropy = AntiEntropyEngine(
                self,
                interval_ms=interval_ms,
                max_backoff_ms=max_backoff_ms,
                seed=seed,
            )
        self.antientropy.start()
        return self.antientropy

    # -- the application entry point ----------------------------------------------

    def submit(
        self,
        region: str,
        body: TxnBody,
        done: Callable[[str], None],
        is_update: bool = True,
        reservations: tuple[str, ...] = (),
        exclusive_reservations: bool = True,
    ) -> None:
        """Run ``body`` as one operation issued by a client in ``region``.

        ``done(op_name)`` fires when the response reaches the client.
        """
        if region in self._down:
            raise StoreError(f"region {region!r} is unavailable")
        execute_at = region
        if self._strong:
            if self.primary in self._down:
                # The whole system loses update availability with its
                # primary -- the weakness weak consistency avoids.
                raise StoreError(
                    f"primary {self.primary!r} is unavailable"
                )
            # Serialisation happens at the primary: every operation --
            # reads included, to preserve the single view -- forwards,
            # so two thirds of the operations pay a wide-area round
            # trip (§5.2.2).
            execute_at = self.primary

        if not (reservations and self._indigo):
            # Common path: the request itself is the payload, delivered
            # to a handler prebound per (client, server) edge -- no
            # closure per operation.
            edge = (region, execute_at)
            handler = self._request_path.get(edge)
            if handler is None:
                handler = self._request_path[edge] = partial(
                    self._on_request, region, execute_at
                )
            self.network.send(region, execute_at, (body, done), handler)
            return

        def at_server(_payload: Any = None) -> None:
            if execute_at in self._crashed:
                return  # the request dies with the server
            # Acquiring (even locally) touches durable reservation
            # state: the rights record plus the usage ledger that
            # lets rights be exchanged asynchronously later.
            self.reservations.acquire(
                execute_at,
                reservations,
                lambda: self._enqueue(
                    execute_at, region, body, done,
                    extra_objects=2 * len(reservations),
                ),
                exclusive=exclusive_reservations,
            )

        # Client -> server hop.
        self.network.send(region, execute_at, None, at_server)

    def _on_request(
        self,
        client_region: str,
        server: str,
        payload: tuple[TxnBody, Callable[[str], None]],
    ) -> None:
        if server in self._crashed:
            return  # the request dies with the server
        body, done = payload
        self._enqueue(server, client_region, body, done)

    def _enqueue(
        self,
        server: str,
        client_region: str,
        body: TxnBody,
        done: Callable[[str], None],
        extra_objects: int = 0,
    ) -> None:
        replica = self._replicas[server]
        queue = self._queues[server]
        op_name: str | None = None

        def run() -> float:
            nonlocal op_name
            span = TRACER.start("store.txn", replica=server)
            txn = replica.begin()
            op_name = body(txn)
            objects = txn.updated_object_count + extra_objects
            cost = self.service.cost(
                reads=txn.read_count,
                updates=txn.update_count,
                objects=objects,
            )
            record = txn.commit()
            if record is not None:
                self._replicate(server, record)
            TRACER.end(
                span,
                op=op_name,
                client=client_region,
                replicated=record is not None,
            )
            return cost

        def respond() -> None:
            # Server -> client hop; the response payload carries the
            # completion callback so delivery needs no per-op closure.
            self.network.send(
                server, client_region, (done, op_name), _deliver_response
            )

        queue.submit(run, respond)

    def _replicate(self, origin: str, record: CommitRecord) -> None:
        batch_ms = self.batch_ms
        if batch_ms <= 0:
            # Historical behaviour: one network message per record.
            send = self.network.send
            for region in self._receivers:
                if region == origin or region in self._down:
                    continue
                self.replication_messages += 1
                self.replication_records += 1
                send(origin, region, record, self._deliver_record[region])
            return
        buffers = self._batch_buffers
        for region in self._receivers:
            if region == origin or region in self._down:
                continue
            edge = (origin, region)
            buffer = buffers.get(edge)
            if buffer is None:
                # First record on this edge in the current window:
                # open the buffer and schedule its flush.
                buffers[edge] = [record]
                self.sim.schedule(batch_ms, self._flush_batch, edge)
            else:
                buffer.append(record)

    def _flush_batch(self, edge: tuple[str, str]) -> None:
        records = self._batch_buffers.pop(edge, None)
        if not records:
            return
        origin, target = edge
        if target in self._down:
            # The target went down inside the window; the batch is lost
            # exactly as the individual sends would have been.
            return
        self.replication_messages += 1
        self.replication_records += len(records)
        span = TRACER.start(
            "store.replication.flush", origin=origin, target=target
        )
        self.network.send(
            origin,
            target,
            ReplicationBatch(source=origin, records=tuple(records)),
            self._deliver_batch[target],
        )
        TRACER.end(span, records=len(records))

    def flush_replication(self) -> None:
        """Flush every open batch window immediately (shutdown/tests)."""
        for edge in list(self._batch_buffers):
            self._flush_batch(edge)

    def deliver(self, region: str, record: CommitRecord) -> None:
        """Hand one commit record to a region's causal receiver.

        The single sink for record-at-a-time replication and
        retransmission: a crashed region drops the message (its process
        is not listening), duplicates are discarded by the receiver.
        """
        if region in self._crashed:
            self.dropped_at_crashed += 1
            return
        self._receivers[region].receive(record)

    def deliver_batch(self, region: str, batch: ReplicationBatch) -> None:
        """Hand one replication batch to a region's causal receiver.

        The batched counterpart of :meth:`deliver`, shared by windowed
        broadcast replication and anti-entropy responses.
        """
        if region in self._crashed:
            self.dropped_at_crashed += len(batch.records)
            return
        self._receivers[region].receive_batch(batch.records)

    def _note_apply(self, region: str, record: CommitRecord) -> None:
        if record.committed_at > 0.0:
            lag = self.sim.now - record.committed_at
            self.stale_window.record(lag)
            self._lag_gauge.value = lag

    # -- stability ------------------------------------------------------------------

    def stable_vector(self) -> VersionVector:
        """Pointwise minimum of all replicas' vectors."""
        vectors = [r.vv.entries for r in self._replicas.values()]
        stable: dict[str, int] = {}
        for origin, counter in vectors[0].items():
            for entries in vectors[1:]:
                other = entries.get(origin, 0)
                if other < counter:
                    counter = other
            if counter:
                stable[origin] = counter
        return VersionVector(stable)

    def compact_all(self) -> None:
        """Run stability GC at every replica (§4.2.1).

        Compacts both CRDT metadata (tombstones covered by the stable
        vector) and the commit log (entries every replica has applied,
        once :meth:`~repro.store.replica.Replica.compact_log`'s
        threshold of truncatable records is reached -- it amortises the
        pre-truncation state snapshot).
        """
        stable = self.stable_vector()
        for replica in self._replicas.values():
            replica.compact(stable)
            replica.compact_log(stable)

    def start_stability_service(self, interval_ms: float = 1_000.0) -> None:
        """Periodically compute the stable vector and compact.

        SwiftCloud distributes stability information with replication
        metadata; the simulated equivalent is this periodic service.
        Idempotent: starting twice keeps a single schedule.
        """
        if getattr(self, "_stability_running", False):
            return
        self._stability_running = True

        def tick() -> None:
            self.compact_all()
            self.sim.schedule(interval_ms, tick)

        self.sim.schedule(interval_ms, tick)

    # -- convergence helpers (used heavily by tests) --------------------------------

    def converged(self) -> bool:
        """Have all replicas applied all commits?

        Vector equality implies empty pending buffers: a buffered
        record's counter exceeds the holder's vector entry for its
        origin, while the origin's own vector already covers it.
        """
        # This poll runs every ``poll_ms`` of simulated time and keeps
        # nothing, so it compares the live entry dicts in C; the
        # zero-normalising ``==`` only runs when those differ.
        reference: VersionVector | None = None
        for replica in self._replicas.values():
            vv = replica.vv
            if reference is None:
                reference = vv
            elif vv.entries != reference.entries and vv != reference:
                return False
        return True

    def settle(self, slack_ms: float = 5_000.0) -> None:
        """Run the simulator until in-flight replication drains."""
        self.sim.run(until=self.sim.now + slack_ms)

    def run_until_converged(
        self, timeout_ms: float = 60_000.0, poll_ms: float = 100.0
    ) -> float | None:
        """Advance the clock until every replica converges.

        Returns the elapsed simulated milliseconds, or None if the
        deadline passes first (e.g. anti-entropy disabled on a lossy
        network).  The clock always advances at least one ``poll_ms``
        step so work scheduled "now" (in-flight submits) runs before
        the first convergence check; the result has ``poll_ms``
        granularity.
        """
        start = self.sim.now
        deadline = start + timeout_ms
        while True:
            self.sim.run(until=min(self.sim.now + poll_ms, deadline))
            if self.converged():
                return self.sim.now - start
            if self.sim.now >= deadline:
                return None

    def state_digest(self) -> dict[str, str]:
        """A canonical fingerprint of each replica's observable state.

        Object values are canonicalised (sets ordered, empties skipped
        -- an unwritten object and an empty one are observably equal)
        so two replicas digest identically iff every read would agree.
        Objects still reading their registry default are skipped for
        the same reason: a read-only transaction materialises its keys
        locally without replicating anything, and a counter sitting at
        its configured initial level is indistinguishable from one that
        was never constructed.  Used by convergence assertions and
        reproducibility checks.
        """
        digests: dict[str, str] = {}
        default_cache: dict[str, str] = {}
        for region, replica in self._replicas.items():
            digests[region] = replica_state_digest(replica, default_cache)
        return digests

    def fault_stats(self) -> dict[str, int | float | None]:
        """One flat view of every chaos counter (benchmark reporting).

        Keys follow the repo-wide ``dotted.namespace`` metric-name
        convention: ``net.*`` for the simulated network, ``store.*``
        for replica/replication state, ``store.antientropy.*`` for the
        digest-exchange engine.
        """
        stats: dict[str, int | float] = {
            "net.messages_sent": self.network.messages_sent,
            "net.messages_delivered": self.network.messages_delivered,
            "net.messages_dropped": self.network.messages_dropped,
            "net.messages_duplicated": self.network.messages_duplicated,
            "net.messages_reordered": self.network.messages_reordered,
            "store.dropped_at_crashed": self.dropped_at_crashed,
            "store.replication.messages": self.replication_messages,
            "store.replication.records": self.replication_records,
            "store.replication.coalescing_ratio": (
                self.replication_records / self.replication_messages
                if self.replication_messages
                else None
            ),
            "store.pending_high_water": max(
                r.buffered_high_water for r in self._receivers.values()
            ),
            "store.duplicates_ignored": sum(
                r.duplicates_ignored for r in self._receivers.values()
            ),
            "store.recoveries": sum(
                r.recoveries for r in self._replicas.values()
            ),
            "store.log_truncated": sum(
                r.log_truncated for r in self._replicas.values()
            ),
            "store.stale_mean_ms": self.stale_window.mean_ms,
            "store.stale_max_ms": self.stale_window.max_ms,
        }
        replicas = list(self._replicas.values())
        stats["store.shard.count"] = replicas[0].storage.n_shards
        stats["store.shard.keys_total"] = sum(
            r.storage.key_count() for r in replicas
        )
        stats["store.shard.keys_max"] = max(
            max((len(m) for m in r.storage.maps), default=0)
            for r in replicas
        )
        stats["store.shard.checkpoints"] = sum(
            r.storage.checkpoints for r in replicas
        )
        if self.injector is not None:
            stats["net.partition_drops"] = self.injector.partition_drops
        if self.antientropy is not None:
            engine = self.antientropy
            stats["store.antientropy.digests_sent"] = engine.digests_sent
            stats["store.antientropy.records_retransmitted"] = (
                engine.records_retransmitted
            )
            stats["store.antientropy.records_pushed"] = engine.records_pushed
            stats["store.antientropy.sync_timeouts"] = engine.sync_timeouts
            stats["store.antientropy.snapshots_installed"] = (
                engine.snapshots_installed
            )
        return stats


def replica_state_digest(
    replica: Replica, default_cache: dict[str, str] | None = None
) -> str:
    """One replica's canonical state fingerprint.

    Shared by :meth:`Cluster.state_digest` and the live servers in
    :mod:`repro.net` -- the digest-equivalence oracle compares live
    replicas against simulated ones byte for byte, so both sides must
    hash through this exact function.  ``default_cache`` memoises
    registry-default canonical values across replicas of one
    deployment (every replica shares the registry).
    """
    if default_cache is None:
        default_cache = {}
    parts = []
    for key in replica.keys():
        value = _canonical(replica.get_object(key).value())
        if value == "":
            continue
        default = default_cache.get(key)
        if default is None:
            default = default_cache[key] = _canonical(
                replica.default_value(key)
            )
        if value == default:
            continue
        parts.append((key, value))
    # ``replica.keys()`` is sorted and keys are unique, so ``parts``
    # is already in its canonical order -- a re-sort would produce the
    # same bytes.
    payload = repr(parts)
    return hashlib.sha256(payload.encode()).hexdigest()


# The canonicalisation lives with the storage engines (per-shard
# digests hash through the same function); the historical name stays
# importable here.
_canonical = canonical_value
