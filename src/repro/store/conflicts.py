"""The durable conflict ledger: violations as first-class state.

The paper's subject is *conflicts* -- invariant violations appearing
under weak consistency, healing as replication converges, or being
paid for by compensations -- yet until this module they only existed
as transient oracle output.  Here every detected conflict becomes an
append-only :class:`ConflictRecord` carrying full attribution:

- which invariant (and which oracle) fired,
- the witness bindings (the entities involved),
- the *lineage*: the ``(origin, counter)`` dots of the commit records
  applied in the window the conflict appeared in -- the concurrent
  operations that produced it,
- the replicas those operations originated from, and
- how it was resolved (``converged`` when later replication healed
  it, ``compensated`` when the compensation machinery paid the debt,
  or empty while still open).

Records are written through the PR-7 storage engines
(:func:`repro.store.engine.make_engine`) with a sync per append, so a
ledger survives SIGKILL exactly like the commit log: recovery reopens
the same file and replays every record.  Appends deduplicate on the
record's :meth:`ConflictRecord.identity` -- a restarted replica
re-detecting the same still-open violation adds nothing, which is
what makes the ledger byte-identical across a crash+recovery cycle.

The ``memory`` store engine is mapped to ``file`` here: a conflict
ledger that evaporated with the process would defeat its purpose, so
the ledger is durable regardless of which engine backs the object
store.

:class:`ConflictDetector` is the live-path driver: it re-grounds the
application's invariants against a replica's observed state after
every state change -- re-judging only the set elements the change's
records name, and re-reading whole only the other objects they touch
-- diffs the violation set against the previous check, and appends
violation records on first sighting and repair records when a
violation clears.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from repro.crdts.awset import AWAdd, AWRemove, AWSet
from repro.crdts.rwset import RWAdd, RWRemove, RWSet
from repro.obs import REGISTRY, TRACER
from repro.store.engine import FileEngine, make_engine

#: Lineage window: dots applied since the last clean check, capped so
#: a long non-convergent stretch cannot grow records without bound.
LINEAGE_CAP = 32

LEDGER_SCHEMA = 1

_KEYS_RESCANNED = REGISTRY.counter("store.conflicts.keys_rescanned")
_FULL_REBUILDS = REGISTRY.counter("store.conflicts.full_rebuilds")
_INSTANCES = REGISTRY.counter("store.conflicts.instances_evaluated")
_ELEMENTS_CHECKED = REGISTRY.counter("store.conflicts.elements_checked")

#: The set types whose value is exactly their members, so a payload
#: naming elements changes only those.  Matched by exact type: every
#: other object, a ``CompensationSet`` among them, is re-read whole.
_ELEMENTWISE = frozenset({AWSet, RWSet})
_UNTOUCHED = object()
_NO_ROWS: frozenset = frozenset()


@dataclass(frozen=True)
class ConflictRecord:
    """One durable conflict event with full attribution."""

    seq: int
    kind: str  # "violation" | "repair" | "compensation"
    oracle: str  # which oracle detected it (invariant, ...)
    invariant: str  # invariant id/name (or bound key)
    region: str  # replica that observed it
    witness: tuple[tuple[str, str], ...] = ()
    #: contributing ops as (origin replica, commit counter) dots
    ops: tuple[tuple[str, int], ...] = ()
    #: origins of the contributing ops plus the observer
    replicas: tuple[str, ...] = ()
    resolution: str = ""  # "", "converged", "compensated", ...
    detail: str = ""
    detected_at_ms: float = 0.0

    def identity(self) -> tuple:
        """Dedup key: the same conflict event is recorded once.

        Excludes ``seq``/``detected_at_ms``/lineage -- a recovered
        replica re-detecting a still-open violation sees the same
        identity and must not append a duplicate.
        """
        return (
            self.kind,
            self.oracle,
            self.invariant,
            self.region,
            self.witness,
        )

    def describe(self) -> str:
        binding = ", ".join(f"{var}={val}" for var, val in self.witness)
        ops = ",".join(f"{origin}:{counter}" for origin, counter in self.ops)
        head = (
            f"[{self.kind}] {self.region} t={self.detected_at_ms:.1f}ms "
            f"{self.invariant}"
        )
        if binding:
            head += f" with {binding}"
        if ops:
            head += f" ops={ops}"
        if self.resolution:
            head += f" resolution={self.resolution}"
        if self.detail:
            head += f" ({self.detail})"
        return head

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "oracle": self.oracle,
            "invariant": self.invariant,
            "region": self.region,
            "witness": [list(pair) for pair in self.witness],
            "ops": [list(pair) for pair in self.ops],
            "replicas": list(self.replicas),
            "resolution": self.resolution,
            "detail": self.detail,
            "detected_at_ms": self.detected_at_ms,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "ConflictRecord":
        return cls(
            seq=int(blob["seq"]),
            kind=blob["kind"],
            oracle=blob["oracle"],
            invariant=blob["invariant"],
            region=blob["region"],
            witness=tuple(
                (str(v), str(w)) for v, w in blob.get("witness", ())
            ),
            ops=tuple(
                (str(o), int(c)) for o, c in blob.get("ops", ())
            ),
            replicas=tuple(blob.get("replicas", ())),
            resolution=blob.get("resolution", ""),
            detail=blob.get("detail", ""),
            detected_at_ms=float(blob.get("detected_at_ms", 0.0)),
        )


def ledger_engine_name(store_engine: str | None) -> str:
    """The engine backing a ledger for a given store engine.

    Durable engines back the ledger directly; the volatile ``memory``
    engine maps to ``file`` -- conflict records must survive the
    process no matter how the object store is configured.
    """
    if store_engine == "sqlite":
        return "sqlite"
    return "file"


class ConflictLedger:
    """Append-only, engine-backed, deduplicating conflict store."""

    def __init__(
        self,
        path: str,
        engine: str | None = None,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.engine_name = ledger_engine_name(engine)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._engine = make_engine(self.engine_name, path, fsync=fsync)
        self._records: list[ConflictRecord] = []
        self._identities: set[tuple] = set()
        for key, record in sorted(self._engine.load().items()):
            self._records.append(record)
            self._identities.add(record.identity())
        self._next_seq = (
            self._records[-1].seq + 1 if self._records else 0
        )
        if isinstance(self._engine, FileEngine):
            # Exist from the start (the log opens lazily; sqlite creates
            # its file on connect), so a clean run's ledger is an empty
            # file, not a missing one.  The append handle never
            # truncates, so a reader opening a live ledger is harmless.
            self._engine.log.open()

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[ConflictRecord]:
        return list(self._records)

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self._records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def append(
        self,
        kind: str,
        oracle: str,
        invariant: str,
        region: str,
        witness: tuple[tuple[str, str], ...] = (),
        ops: tuple[tuple[str, int], ...] = (),
        replicas: tuple[str, ...] = (),
        resolution: str = "",
        detail: str = "",
        detected_at_ms: float = 0.0,
    ) -> ConflictRecord | None:
        """Record one conflict event; ``None`` if already present.

        Durable before return: the engine syncs per append, so a
        SIGKILL immediately after never loses an acknowledged record.
        """
        record = ConflictRecord(
            seq=self._next_seq,
            kind=kind,
            oracle=oracle,
            invariant=invariant,
            region=region,
            witness=tuple(witness),
            ops=tuple(ops),
            replicas=tuple(replicas),
            resolution=resolution,
            detail=detail,
            detected_at_ms=detected_at_ms,
        )
        if record.identity() in self._identities:
            return None
        self._next_seq += 1
        self._records.append(record)
        self._identities.add(record.identity())
        self._engine.put(f"conflict:{record.seq:08d}", record)
        self._engine.sync()
        TRACER.instant(
            f"store.conflict.{kind}",
            invariant=invariant,
            region=region,
            resolution=resolution or None,
        )
        return record

    def close(self) -> None:
        self._engine.close()


def open_ledgers(data_dir: str) -> dict[str, ConflictLedger]:
    """Every region ledger under a live run's data directory.

    Servers write ``<data_dir>/<region>-conflicts.(objlog|db)``; this
    reopens them read-mostly for the ``repro conflicts`` query CLI and
    the harness's end-of-run report.
    """
    ledgers: dict[str, ConflictLedger] = {}
    if not os.path.isdir(data_dir):
        return ledgers
    for entry in sorted(os.listdir(data_dir)):
        for suffix, engine in ((".objlog", "file"), (".db", "sqlite")):
            if not entry.endswith("-conflicts" + suffix):
                continue
            region = entry[: -len("-conflicts" + suffix)]
            path = os.path.join(data_dir, entry[: -len(suffix)])
            ledgers[region] = ConflictLedger(path, engine=engine)
    return ledgers


def _gain(bucket, name, row, added, removed) -> None:
    """One more key contributes ``row``; the first one adds it."""
    count = bucket.get(row, 0)
    bucket[row] = count + 1
    if count == 0:
        gone = removed.get(name)
        if gone is not None and row in gone:
            gone.discard(row)
        else:
            added.setdefault(name, set()).add(row)


def _lose(bucket, name, row, added, removed) -> None:
    """One key fewer contributes ``row``; the last one removes it."""
    if bucket[row] == 1:
        del bucket[row]
        news = added.get(name)
        if news is not None and row in news:
            news.discard(row)
        else:
            removed.setdefault(name, set()).add(row)
    else:
        bucket[row] -= 1


class ConflictDetector:
    """Live invariant watching for one replica, feeding a ledger.

    After every state change (an executed op, an applied remote
    record) the server calls :meth:`note_commit` / :meth:`note_apply`
    and then :meth:`check`.  The detector keeps the replica's observed
    model and every invariant's falsified instances, diffs the
    violations against the previously-active set, and:

    - appends a ``violation`` record the first time a witness fires,
      attributing the dots applied since the last clean check as
      lineage;
    - appends a ``repair`` record (``resolution="converged"``) when a
      previously-active violation disappears -- under weak consistency
      that means later operations or anti-entropy merges healed it.

    **The delta contract.**  A check costs what changed, not the whole
    replica, in three steps:

    1. *Rows.*  Each object contributes raw rows through the adapter's
       ``rows``.  The detector keeps every key's rows,
       reference-counted because several keys can contribute one row.
       Of the ``record.updates`` it was told about, a payload that
       names its elements (``AWAdd``, ``RWAdd``, ``RWRemove``, and an
       ``AWRemove``'s dotted elements) on a kept key whose object is
       exactly an ``AWSet`` or ``RWSet`` costs one membership test per
       element: the element's rows (the adapter's ``row_of``) are kept
       exactly while ``element in obj``.  Every other payload
       (``RWRemoveWhere``, counter deltas, corrections), every other
       object type (a ``CompensationSet``'s reads trim) and every key
       not kept yet re-reads its key whole, as do keys a read
       materialised without a record (the key count moved).
    2. *View.*  The raw rows that appeared or went move the adapter's
       :class:`~repro.check.apps.View`, which re-judges them and the
       rows whose view condition reads them.
    3. *Instances.*  The model facts that changed move an
       :class:`~repro.check.oracles.InvariantWatch`, which re-evaluates
       the invariant instances they reach.

    Its violations equal ``InvariantOracle(spec).check`` over a fresh
    ``extract`` record for record.  That is exact only while every
    state change arrives as a record, so anything else drops the kept
    state and the next check rebuilds it from every key:

    - a new detector (process start, crash recovery) has nothing yet;
    - ``replica.commits_applied`` moving by anything other than the
      records noted (``install_snapshot``, ``rebuild_from_log``);
    - :meth:`invalidate`, which the server calls after a scrub healed
      something.

    ``store.conflicts.elements_checked`` (membership tests: named
    elements that map to rows),
    ``store.conflicts.keys_rescanned`` (keys re-read whole),
    ``store.conflicts.full_rebuilds`` and
    ``store.conflicts.instances_evaluated`` count the work.
    """

    def __init__(self, server) -> None:
        from repro.check.oracles import InvariantOracle

        self._server = server
        self._oracle = InvariantOracle(
            server.adapter.spec(server.params)
        )
        self._active: dict[tuple, ConflictRecord] = {}
        self._lineage: deque = deque(maxlen=LINEAGE_CAP)
        #: key -> the (relation, row) pairs it contributes; ``None``
        #: until the first check and after :meth:`invalidate`.
        self._rows: dict[str, set] | None = None
        #: relation -> row -> number of keys contributing it
        self._counts: dict[str, dict[tuple, int]] = {}
        #: key -> the elements the noted records named, or ``None``
        #: when some record changed the key in a way no element names
        self._touched: dict[str, set | None] = {}
        #: ``replica.commits_applied`` as the noted records predict it
        self._applied = 0
        self._view = None
        self._watch = None

    def note_commit(self, record) -> None:
        self._lineage.append((record.origin, record.dot.counter))
        touched = self._touched
        for key, payload in record.updates:
            kind = type(payload)
            if kind is AWAdd or kind is RWAdd or kind is RWRemove:
                named = (payload.element,)
            elif kind is AWRemove:
                named = [element for element, _dots in payload.dots]
            else:
                touched[key] = None
                continue
            elements = touched.get(key, _UNTOUCHED)
            if elements is _UNTOUCHED:
                touched[key] = set(named)
            elif elements is not None:
                elements.update(named)
        self._applied += 1

    note_apply = note_commit

    def invalidate(self) -> None:
        """State changed without a record: re-read every key next check."""
        self._rows = None

    def _rescan(self, keys, replica, added, removed) -> None:
        """Re-read ``keys`` whole; raw rows that appear / go land in
        ``added`` / ``removed`` (net over the whole check)."""
        server = self._server
        extract_rows = server.adapter.rows
        variant = server.variant
        kept = self._rows
        counts = self._counts
        for key in keys:
            rows = set(extract_rows(key, replica.get_object(key), variant))
            old = kept.get(key, _NO_ROWS)
            kept[key] = rows
            for name, row in old - rows:
                _lose(counts[name], name, row, added, removed)
            for name, row in rows - old:
                _gain(counts[name], name, row, added, removed)
        _KEYS_RESCANNED.inc(len(keys))

    def _check_elements(self, key, obj, elements, added, removed) -> None:
        """Re-judge only ``elements`` of the set at ``key``: each one's
        rows are kept exactly while it is a member.  An element that
        maps to no rows (Twitter's ``copies:`` keys) costs no
        membership test."""
        server = self._server
        row_of = server.adapter.row_of
        variant = server.variant
        kept = self._rows[key]
        counts = self._counts
        checked = 0
        for element in elements:
            pairs = row_of(key, element, variant)
            if not pairs:
                continue
            checked += 1
            member = element in obj
            for pair in pairs:
                if (pair in kept) is member:
                    continue
                name, row = pair
                if member:
                    kept.add(pair)
                    _gain(counts[name], name, row, added, removed)
                else:
                    kept.discard(pair)
                    _lose(counts[name], name, row, added, removed)
        _ELEMENTS_CHECKED.inc(checked)

    def _update(self) -> None:
        """Bring the kept model and instances up to the replica."""
        server = self._server
        replica = server.node.store
        added: dict[str, set] = {}
        removed: dict[str, set] = {}
        if self._rows is None or self._applied != replica.commits_applied:
            from repro.check.oracles import InvariantWatch

            _FULL_REBUILDS.inc()
            self._rows = {}
            self._counts = {
                name: {} for name in server.adapter.raw_relations
            }
            self._applied = replica.commits_applied
            # From empty, every row read is a row added.
            self._rescan(replica.keys(), replica, added, removed)
            self._touched.clear()
            self._view = server.adapter.new_view(server.variant, server.params)
            self._view.fold(
                {name: added.get(name, set()) for name in self._counts}
            )
            self._watch = InvariantWatch(
                self._oracle, self._view.model, server.region
            )
            _INSTANCES.inc(self._watch.load())
            return
        kept = self._rows
        whole = []
        for key, elements in self._touched.items():
            if elements is None or key not in kept:
                whole.append(key)
                continue
            obj = replica.get_object(key)
            if type(obj) in _ELEMENTWISE:
                self._check_elements(key, obj, elements, added, removed)
            else:
                whole.append(key)
        self._touched.clear()
        if whole:
            self._rescan(whole, replica, added, removed)
        if replica.key_count() != len(kept):
            # A read materialised objects no record named (keys are
            # never deleted, so the counts differ iff so).
            self._rescan(
                [key for key in replica.keys() if key not in kept],
                replica,
                added,
                removed,
            )
        if added or removed:
            changes = self._view.apply(added, removed)
            _INSTANCES.inc(self._watch.apply(changes))

    def model(self):
        """The replica's observed model, equal to a fresh ``extract``
        (a copy: the kept model moves on at the next check)."""
        from repro.check.oracles import Interpretation

        self._update()
        kept = self._view.model
        return Interpretation(
            relations={name: set(rows) for name, rows in kept.relations.items()},
            numerics={name: dict(cells) for name, cells in kept.numerics.items()},
            params=dict(kept.params),
        )

    def violations(self) -> list:
        """The replica's violations, equal to ``InvariantOracle.check``
        over a fresh ``extract``."""
        self._update()
        return self._watch.violations()

    def check(self) -> None:
        server = self._server
        found = self.violations()
        now_ms = server.now_ms()
        current: dict[tuple, object] = {}
        for violation in found:
            key = (violation.name, violation.witness)
            current[key] = violation
            if key in self._active:
                continue
            lineage = tuple(self._lineage)
            record = server.ledger.append(
                kind="violation",
                oracle=violation.oracle,
                invariant=violation.name,
                region=server.region,
                witness=violation.witness,
                ops=lineage,
                replicas=tuple(
                    sorted({origin for origin, _ in lineage}
                           | {server.region})
                ),
                detail=violation.detail,
                detected_at_ms=now_ms,
            )
            self._active[key] = record
        for key in list(self._active):
            if key in current:
                continue
            opened = self._active.pop(key)
            name, witness = key
            server.ledger.append(
                kind="repair",
                oracle="invariant",
                invariant=name,
                region=server.region,
                witness=witness,
                ops=tuple(self._lineage),
                replicas=(server.region,),
                resolution="converged",
                detail=(
                    f"violation seq={opened.seq} healed"
                    if opened is not None
                    else "healed"
                ),
                detected_at_ms=now_ms,
            )
        if not current:
            # Clean state: the next violation's lineage window starts
            # here.
            self._lineage.clear()


def record_trial_violations(
    ledger: ConflictLedger,
    violations,
    lineage_by_region: dict[str, tuple[tuple[str, int], ...]] | None = None,
    detected_at_ms: float = 0.0,
) -> int:
    """Persist a finished trial's oracle findings into a ledger.

    The checker-side counterpart of :class:`ConflictDetector`: the PR-5
    oracles judge a quiesced run, so every finding is recorded at once.
    ``lineage_by_region`` attributes each region's applied dots (only
    the trailing :data:`LINEAGE_CAP` are kept).  Returns the number of
    new records appended.
    """
    appended = 0
    for violation in violations:
        lineage = tuple(
            (lineage_by_region or {}).get(violation.region, ())
        )[-LINEAGE_CAP:]
        record = ledger.append(
            kind="violation",
            oracle=violation.oracle,
            invariant=violation.name,
            region=violation.region,
            witness=violation.witness,
            ops=lineage,
            replicas=tuple(
                sorted({origin for origin, _ in lineage}
                       | {violation.region})
            ),
            detail=violation.detail,
            detected_at_ms=detected_at_ms,
        )
        if record is not None:
            appended += 1
    return appended


def record_compensations(
    ledger: ConflictLedger,
    probes_by_region: dict[str, list],
    lineage_by_region: dict[str, tuple[tuple[str, int], ...]] | None = None,
    detected_at_ms: float = 0.0,
) -> int:
    """Persist *paid* compensation debt as ``compensation`` records.

    A raw overdraft fully covered by the compensation machinery is the
    oracles' success case -- no :class:`Violation` is emitted -- but it
    is still a conflict the application resolved by compensating, and
    the ledger's reason to exist is exactly that attribution.  Takes
    the same :class:`~repro.check.oracles.BoundProbe` lists the debt
    oracle consumes.  Returns the number of new records appended.
    """
    appended = 0
    for region, probes in sorted(probes_by_region.items()):
        lineage = tuple(
            (lineage_by_region or {}).get(region, ())
        )[-LINEAGE_CAP:]
        for probe in probes:
            overdraft = (
                probe.raw - probe.bound
                if probe.op == "<="
                else probe.bound - probe.raw
            )
            if overdraft <= 0 or probe.covered < overdraft:
                continue  # no debt, or unpaid debt (a violation)
            record = ledger.append(
                kind="compensation",
                oracle="compensation-debt",
                invariant=probe.key,
                region=region,
                ops=lineage,
                replicas=tuple(
                    sorted({origin for origin, _ in lineage} | {region})
                ),
                resolution="compensated",
                detail=(
                    f"raw overdraft {overdraft} absorbed by "
                    f"{probe.covered} compensation(s)"
                ),
                detected_at_ms=detected_at_ms,
            )
            if record is not None:
                appended += 1
    return appended
