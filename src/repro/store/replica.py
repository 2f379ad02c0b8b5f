"""One replica: the full object store of a region."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import StoreError
from repro.crdts.base import CRDT, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.store.engine import ShardedStore
from repro.store.registry import TypeRegistry
from repro.store.transaction import CommitRecord, Transaction


@dataclass
class ReplicaSnapshot:
    """In-memory checkpoint taken before commit-log truncation.

    Holds everything ``rebuild_from_log`` needs to restore the state as
    of ``vv`` without the truncated log prefix: the object map, the
    per-origin context vectors for delta-dependency decoding,
    and the dirty-entry map feeding the *next* local commit's delta.
    """

    vv: VersionVector
    objects: dict[str, CRDT]
    origin_ctx: dict[str, VersionVector]
    dirty: dict[str, int]
    commits_applied: int


class Replica:
    """Object store + causality bookkeeping for one region.

    Replication (shipping commit records and applying remote ones in
    causal order) lives in :mod:`repro.store.replication`; this class
    exposes the local mechanics it needs: :meth:`commit` for local
    transactions and :meth:`apply_remote` for remote records.

    **Dependency metadata.**  By default commits are *delta-encoded*:
    instead of deep-copying the whole version vector into every record,
    ``deps_delta`` carries only the entries that changed since this
    replica's previous commit (tracked in ``_dirty_since_commit``).
    Per-origin FIFO delivery makes the check equivalent (proof at
    :meth:`can_apply`), and receivers reconstruct each event's full
    causal context incrementally from the previous context of the same
    origin (``_origin_ctx``).  Constructing with ``full_vv=True``
    restores the exact full-vector encoding.

    Every applied record is also appended to a *durable commit log*
    (``self.log``, kept in application order -- a valid causal order by
    construction).  The log serves two fault-tolerance duties:

    - :meth:`records_since` answers anti-entropy digests -- "send me
      everything beyond this version vector" -- in O(missing) via a
      per-origin index (per-origin counters are contiguous, so the
      index is a plain list slice);
    - :meth:`rebuild_from_log` models crash recovery: volatile state
      (objects, version vector) is discarded and reconstructed by
      replaying the log, after which anti-entropy fetches whatever the
      replica missed while down.

    **Log compaction.**  :meth:`compact_log` truncates the log prefix
    covered by the cluster's causally-stable vector, after capturing a
    :class:`ReplicaSnapshot`.  Recovery then restores the snapshot and
    replays only the retained tail; :meth:`sync_answer` falls back to
    "snapshot + tail" for a peer whose digest predates the truncation
    base (defensive -- stability guarantees live peers never do).

    **The vector digest.**  ``vv`` is mutated in place by every apply,
    so anything that outlives the call it was read in needs a copy.
    :meth:`vv_digest` hands out one shared, never-mutated copy instead
    of a fresh one per reader.  Representation invariant: ``_vv_digest``
    is ``None`` or equal to ``vv``, and a digest once handed out never
    changes -- every write to ``vv`` (the last line of
    :meth:`_apply_state`, either branch of :meth:`rebuild_from_log`,
    :meth:`install_snapshot`) drops the cached digest rather than
    updating it.  Holders (anti-entropy messages, the checker's session
    tracker) may keep a digest for as long as they like and must not
    write to it; a reader that keeps nothing past the call reads ``vv``.
    """

    def __init__(
        self,
        replica_id: str,
        registry: TypeRegistry,
        now: Callable[[], float] | None = None,
        full_vv: bool = False,
    ) -> None:
        self.replica_id = replica_id
        self._registry = registry
        self._now = now
        self.full_vv = full_vv
        #: Object storage: one live map, refilled in place on recovery,
        #: so the hoisted accessors below stay bound to it.
        self.storage = ShardedStore()
        self._store_get = self.storage.get
        self._store_set = self.storage.set
        self.vv = VersionVector()
        self._vv_digest: VersionVector | None = None
        self._clock = 0
        self.commits_applied = 0
        self.log: list[CommitRecord] = []
        self._log_by_origin: dict[str, list[CommitRecord]] = {}
        # origin -> counter of the last truncated record (0 = nothing
        # truncated): _log_by_origin[origin] starts at counter base+1.
        self._log_base: dict[str, int] = {}
        self._snapshot: ReplicaSnapshot | None = None
        # origin -> full causal context vv of that origin's last
        # applied record (delta-dependency reconstruction base).
        self._origin_ctx: dict[str, VersionVector] = {}
        # vv entries changed since this replica's last own commit: the
        # next commit's deps_delta.
        self._dirty_since_commit: dict[str, int] = {}
        self.recoveries = 0
        self.log_truncated = 0

    # -- objects ------------------------------------------------------------

    def get_object(self, key: str) -> CRDT:
        obj = self._store_get(key)
        if obj is None:
            obj = self._registry.create(key)
            self._store_set(key, obj)
        return obj

    def has_object(self, key: str) -> bool:
        return self.storage.contains(key)

    def default_value(self, key: str):
        """What a fresh, never-written ``key`` would read here.

        Lazily materialised objects start from the registry factory, so
        this is the baseline an observer cannot distinguish from the
        key being absent (e.g. a counter's configured initial level).
        """
        return self._registry.create(key).value()

    def keys(self) -> list[str]:
        """Sorted object keys; cached until the key set changes.

        Callers must treat the result as read-only.
        """
        return self.storage.keys()

    def key_count(self) -> int:
        return self.storage.key_count()

    def vv_digest(self) -> VersionVector:
        """``vv`` as of now, shared and read-only (see the class docstring)."""
        digest = self._vv_digest
        if digest is None:
            digest = self._vv_digest = self.vv.copy()
        return digest

    # -- transactions ---------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self)

    def commit(self, updates: tuple[tuple[str, object], ...]) -> CommitRecord:
        """Assign a dot, apply locally, return the record to replicate."""
        self._clock += 1
        dot = Dot(self.replica_id, self._clock)
        if self.full_vv:
            deps: VersionVector | None = self.vv.copy()
            delta: tuple[tuple[str, int], ...] = ()
        else:
            deps = None
            delta = tuple(sorted(self._dirty_since_commit.items()))
        record = CommitRecord(
            origin=self.replica_id,
            dot=dot,
            deps=deps,
            updates=updates,
            committed_at=self._now() if self._now is not None else 0.0,
            deps_delta=delta,
        )
        self._apply(record)
        return record

    # -- remote application ------------------------------------------------------

    def can_apply(self, record: CommitRecord) -> bool:
        """Causal delivery condition: deps seen, per-origin in order.

        For delta-encoded records only the shipped (changed) entries
        are compared.  Equivalence with the full check: the FIFO
        condition means the origin's previous record N-1 was applied
        here, and applying it required dominating deps(N-1); the full
        deps(N) is exactly max(deps(N-1), delta(N), {origin: N-1}), so
        FIFO + dominating the delta implies dominating deps(N) -- and
        the converse holds because the delta entries are a subset of
        deps(N).
        """
        if record.dot.counter != self.vv.get(record.origin) + 1:
            return False
        deps = record.deps
        if deps is not None:
            return self.vv.dominates(deps)
        return self.vv.dominates_items(record.deps_delta)

    def apply_remote(self, record: CommitRecord) -> None:
        if record.origin == self.replica_id:
            raise StoreError("remote application of a local commit")
        if not self.can_apply(record):
            raise StoreError(
                f"record {record.dot} not causally deliverable at "
                f"{self.replica_id}"
            )
        self._apply(record)

    def apply_ready(self, record: CommitRecord) -> None:
        """Apply a remote record the caller already vetted.

        Precondition: ``can_apply(record)`` returned True and the
        record is not this replica's own (the causal receiver checks
        both while draining); skipping the re-check keeps the apply
        loop at one causality test per record.
        """
        self._apply(record)

    def _apply(self, record: CommitRecord) -> None:
        self._apply_state(record)
        self.log.append(record)
        self._log_by_origin.setdefault(record.origin, []).append(record)

    def _apply_state(self, record: CommitRecord) -> None:
        # The event context carries the ORIGIN's causal past (deps +
        # the new dot), not this replica's: every replica must judge
        # concurrency of this event identically or rem-wins semantics
        # would diverge.  Delta-encoded records rebuild it from the
        # origin's previous context: ctx(N) = ctx(N-1) max delta(N),
        # then origin's own entry set to N.
        origin = record.origin
        counter = record.dot.counter
        deps = record.deps
        if deps is not None:
            vv = deps.copy()
        elif origin == self.replica_id:
            # A local commit's context is simply this replica's current
            # vector: the previous own context plus the dirty entries
            # the delta carries is exactly ``self.vv``.
            vv = self.vv.copy()
        else:
            base = self._origin_ctx.get(origin)
            if base is None:
                vv = VersionVector(dict(record.deps_delta))
            else:
                vv = base.copy()
                vv.apply_delta(record.deps_delta)
        vv.entries[origin] = counter
        # The context vv is retained by CRDTs (rem-wins add contexts)
        # and as the next reconstruction base; it is never mutated
        # after this point.
        self._origin_ctx[origin] = vv
        ctx = EventContext(dot=record.dot, vv=vv)
        # Effects dispatch through the CRDT class's precomputed
        # payload-type table (see ``CRDT.EFFECTS``), skipping the
        # ``effect`` frame; payload types without a table entry fall
        # back to ``effect`` for its error reporting.
        get_object = self.get_object
        for key, payload in record.updates:
            obj = get_object(key)
            handler = obj._effect_table.get(payload.__class__)
            if handler is not None:
                handler(obj, payload, ctx)
            else:
                obj.effect(payload, ctx)
        self.vv.entries[origin] = counter
        self._vv_digest = None
        if origin == self.replica_id:
            # A local commit consumed the dirty entries into its delta.
            self._dirty_since_commit.clear()
        else:
            self._dirty_since_commit[origin] = counter
        self.commits_applied += 1

    # -- fault tolerance -----------------------------------------------------------

    def records_since(self, vv: VersionVector) -> list[CommitRecord]:
        """Retained applied records the holder of ``vv`` is missing.

        Per-origin counters are contiguous and applied in order, so the
        missing suffix of each origin's sub-log is a direct slice.  The
        result concatenates per-origin suffixes: in counter order within
        an origin, unordered across origins -- the receiving
        :class:`~repro.store.replication.CausalReceiver` buffers and
        re-sequences as needed.

        Records below the truncation base cannot be served from the
        log; :meth:`sync_answer` detects that case and adds the
        snapshot.
        """
        if vv.entries == self.vv.entries:
            # An equal peer misses nothing: the answer every idle
            # anti-entropy round gets, without walking the log index.
            return []
        missing: list[CommitRecord] = []
        bases = self._log_base
        for origin, records in self._log_by_origin.items():
            start = vv.get(origin) - bases.get(origin, 0)
            if start < 0:
                start = 0
            if start < len(records):
                missing.extend(records[start:])
        return missing

    def sync_answer(
        self, vv: VersionVector
    ) -> tuple[list[CommitRecord], ReplicaSnapshot | None]:
        """Anti-entropy answer for a peer digest: records, maybe snapshot.

        If the peer's vector predates this replica's truncation base
        for some origin, the retained log alone cannot close the gap:
        answer with the snapshot (the whole object map) plus the records
        beyond it.  Causal stability makes this unreachable for live
        peers (truncation stays below every replica's vector), so it is
        a defensive path for operator-restored or far-behind replicas.
        """
        for origin, base in self._log_base.items():
            if vv.get(origin) < base:
                snap = self._snapshot
                if snap is not None:
                    return self.records_since(snap.vv), snap
                break
        return self.records_since(vv), None

    def adopt_log(self, records: list[CommitRecord]) -> None:
        """Restore from an externally persisted log (live recovery).

        The live servers (:mod:`repro.net`) keep the commit log on
        disk; after a process restart they hand the replayed records
        here, and the replica rebuilds volatile state exactly as
        :meth:`rebuild_from_log` does after a simulated crash.
        """
        self.log = list(records)
        self._log_by_origin = {}
        for record in self.log:
            self._log_by_origin.setdefault(record.origin, []).append(record)
        self._log_base = {}
        self._snapshot = None
        self.rebuild_from_log()

    def rebuild_from_log(self) -> None:
        """Crash recovery: rebuild volatile state by replaying the log.

        The snapshot (if compaction ran) plus the log is the durable
        part of a replica; objects and the version vector are volatile.
        The snapshot restores everything up to its vector, and the log
        -- in application order, a valid causal order -- replays the
        uncovered tail, converging to exactly the pre-crash state.
        """
        snap = self._snapshot
        if snap is None:
            self.storage.clear()
            self.vv = VersionVector()
            self._origin_ctx = {}
            self._dirty_since_commit = {}
            self.commits_applied = 0
        else:
            self.storage.restore(snap.objects)
            self.vv = snap.vv.copy()
            self._origin_ctx = {
                origin: vv.copy() for origin, vv in snap.origin_ctx.items()
            }
            self._dirty_since_commit = dict(snap.dirty)
            self.commits_applied = snap.commits_applied
        self._vv_digest = None
        seen = self.vv.get
        for record in self.log:
            if record.dot.counter > seen(record.origin):
                self._apply_state(record)
        # The commit clock is derived state: own commits are all
        # covered by the snapshot vector or the log.
        self._clock = self.vv.get(self.replica_id)
        self.recoveries += 1

    def install_snapshot(self, snapshot: ReplicaSnapshot) -> bool:
        """Adopt a peer's snapshot (anti-entropy truncation fallback).

        Refused (returns False) unless the snapshot's vector dominates
        this replica's -- installing anything less would silently
        un-apply records.  On success the local log is superseded: the
        installed state becomes this replica's own snapshot and the
        truncation base advances to its vector.
        """
        if not snapshot.vv.dominates(self.vv):
            return False
        old_vv = self.vv
        self.storage.restore(snapshot.objects)
        self.vv = snapshot.vv.copy()
        self._vv_digest = None
        self._origin_ctx = {
            origin: vv.copy() for origin, vv in snapshot.origin_ctx.items()
        }
        # Dirty entries feed OUR next commit's delta, so they must
        # cover everything that changed since our last own commit --
        # the old dirty set plus the jump the snapshot just applied.
        for origin, counter in self.vv.entries.items():
            if origin != self.replica_id and counter > old_vv.get(origin):
                self._dirty_since_commit[origin] = counter
        self.commits_applied = snapshot.commits_applied
        if self.vv.get(self.replica_id) > self._clock:
            self._clock = self.vv.get(self.replica_id)
        self.log = []
        self._log_by_origin = {}
        self._log_base = dict(self.vv.entries)
        self._snapshot = self._take_snapshot()
        return True

    # -- maintenance ---------------------------------------------------------------

    def compact(self, stable: VersionVector) -> None:
        """Run stability GC on every object (§4.2.1)."""
        for obj in self.storage.objects():
            obj.compact(stable)

    def compact_log(
        self, stable: VersionVector, min_records: int = 1024
    ) -> int:
        """Truncate log entries covered by the stable vector.

        A record every replica has applied (dot counter at or below the
        stable vector's entry for its origin) will never be
        retransmitted to a live peer, so it can leave the log once the
        state it contributed to is in the snapshot.  Runs only when at
        least ``min_records`` are truncatable, to amortise the
        snapshot's deep copy.  Returns the number of records truncated.
        """
        plan: list[tuple[str, int]] = []
        truncatable = 0
        bases = self._log_base
        for origin, records in self._log_by_origin.items():
            count = stable.get(origin) - bases.get(origin, 0)
            if count > len(records):
                count = len(records)
            if count > 0:
                plan.append((origin, count))
                truncatable += count
        if truncatable < min_records:
            return 0
        self._snapshot = self._take_snapshot()
        for origin, count in plan:
            del self._log_by_origin[origin][:count]
            bases[origin] = bases.get(origin, 0) + count
        self.log = [
            record
            for record in self.log
            if record.dot.counter > bases.get(record.origin, 0)
        ]
        self.log_truncated += truncatable
        return truncatable

    def _take_snapshot(self) -> ReplicaSnapshot:
        return ReplicaSnapshot(
            vv=self.vv.copy(),
            objects=self.storage.snapshot(),
            origin_ctx={
                origin: vv.copy() for origin, vv in self._origin_ctx.items()
            },
            dirty=dict(self._dirty_since_commit),
            commits_applied=self.commits_applied,
        )
