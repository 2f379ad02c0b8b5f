"""Pluggable storage engines and keyspace sharding for one replica.

The paper's runtime assumes each replica can hold and recover its full
object set; a single in-memory dict caps that at what one heap and one
log replay can absorb.  This module splits the concern in two:

- A :class:`StorageEngine` is a *durability backend* for one shard of
  the keyspace: it persists ``key -> CRDT`` mappings and can reload
  them after a crash.  Three implementations share the contract --
  :class:`MemoryEngine` (the historical volatile dict),
  :class:`FileEngine` (an append-only :mod:`~repro.store.framedlog`
  file), and :class:`SqliteEngine` (one ``kv`` table per shard).
- A :class:`ShardedStore` owns the *live* object maps -- one plain
  dict per shard, routed by :class:`HashRing` consistent hashing -- so
  the replica's hot path stays a dict lookup regardless of engine.
  Engines only see writes at durability points, and every durability
  point is a checkpoint (:meth:`ShardedStore.sync`): each engine is
  handed its shard's whole live map, so between durability points the
  engines hold the last checkpoint of the live maps, nothing else.

Engine and shard count default from the ``REPRO_ENGINE`` and
``REPRO_SHARDS`` environment variables (``memory`` / ``1``), which is
how the CI engine matrix runs the entire store/net equivalence suites
across every backend without editing a single test: behavioural
identity means the state digests are byte-identical whatever the
engine or shard count.
"""

from __future__ import annotations

import bisect
import errno
import hashlib
import os
import pickle
import sqlite3
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import StoreError
from repro.obs import REGISTRY
from repro.store import framedlog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crdts.base import CRDT
    from repro.store.registry import TypeRegistry

#: The recognised engine names, in documentation order.
ENGINE_NAMES = ("memory", "file", "sqlite")

_checkpoints = REGISTRY.counter("store.shard.checkpoints")

#: Shard digests are sums modulo this (256-bit SHA-256 terms).
_DIGEST_MOD = 1 << 256

#: Virtual points per shard on a :class:`HashRing`.
_VNODES = 64


def default_engine() -> str:
    """Engine name from ``REPRO_ENGINE`` (default ``memory``)."""
    name = os.environ.get("REPRO_ENGINE", "memory").strip().lower()
    if name not in ENGINE_NAMES:
        raise StoreError(
            f"unknown storage engine {name!r} (one of: "
            + ", ".join(ENGINE_NAMES)
            + ")"
        )
    return name


def default_shards() -> int:
    """Shard count from ``REPRO_SHARDS`` (default 1)."""
    raw = os.environ.get("REPRO_SHARDS", "1").strip()
    try:
        shards = int(raw)
    except ValueError:
        raise StoreError(f"REPRO_SHARDS must be an integer, got {raw!r}") from None
    if shards < 1:
        raise StoreError(f"REPRO_SHARDS must be >= 1, got {shards}")
    return shards


def canonical_value(value: Any) -> str:
    """Order-insensitive repr for digesting CRDT read values.

    The single canonicalisation every digest in the repo hashes
    through (replica fingerprints, engine digests):
    sets ordered, empties and zeros collapsed to ``""`` -- an unwritten
    object and an empty one are observably equal.
    """
    if isinstance(value, (set, frozenset)):
        if not value:
            return ""
        return "{" + ",".join(sorted(repr(v) for v in value)) + "}"
    if isinstance(value, dict):
        if not value:
            return ""
        inner = ",".join(f"{k!r}:{canonical_value(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return ""
        return "[" + ",".join(canonical_value(v) for v in value) + "]"
    if value is None or value == 0:
        return ""
    return repr(value)


def shard_map_digest(objects: dict[str, "CRDT"], registry: "TypeRegistry") -> str:
    """Canonical fingerprint of one shard's object map.

    A multiset hash (AdHash): the sum, mod 2**256, of one SHA-256 term
    per key, independent of iteration order.  It shares
    :func:`repro.store.cluster.replica_state_digest`'s canonicalisation
    and skip rule (default-valued and empty objects add nothing): two
    maps digest equal iff every read of their keys would agree, up to a
    hash collision.
    """
    total = 0
    for key, obj in objects.items():
        value = canonical_value(obj.value())
        if value == "" or value == canonical_value(registry.create(key).value()):
            continue
        total += int.from_bytes(hashlib.sha256(repr((key, value)).encode()).digest(), "big")
    return f"{total % _DIGEST_MOD:064x}"


class HashRing:
    """Deterministic consistent hashing of keys onto shard indices.

    Hashes through :func:`hashlib.blake2b` -- never the builtin
    ``hash`` -- so routing is identical across processes, restarts and
    Python versions.  ``_VNODES`` virtual points per shard keep the
    keyspace split even for small shard counts.

    Routing is memoised per ring: the hash and the bisect run once per
    distinct key, however often the key is read or written.  The memo
    holds one entry per key the store has routed (a read of a missing
    key creates it), and the store deletes no keys, so the memo is as
    large as the keyspace the store has touched, no larger.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise StoreError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(_VNODES):
                token = f"shard-{shard}-{vnode}".encode()
                points.append((_ring_hash(token), shard))
        points.sort()
        self._hashes = [point for point, _owner in points]
        self._owners = [owner for _point, owner in points]
        self._memo: dict[str, int] = {}

    def shard_of(self, key: str) -> int:
        if self.shards == 1:
            return 0
        shard = self._memo.get(key)
        if shard is None:
            index = bisect.bisect_right(self._hashes, _ring_hash(key.encode()))
            if index == len(self._hashes):
                index = 0
            shard = self._memo[key] = self._owners[index]
        return shard


def _ring_hash(token: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big")


# -- the engine contract ----------------------------------------------------


@dataclass
class EngineScrub:
    """One engine's damage survey, as :meth:`StorageEngine.verify` sees it.

    ``objects`` holds the persisted entries that verified healthy;
    ``corrupt`` the keys whose persisted copy is damaged *or* provably
    at risk of staleness (a damaged frame could have superseded them);
    ``unattributed`` counts damage that could not be pinned to any key
    -- the signal that the blast radius had to be estimated rather than
    measured.  Detection is honest: engines never consult injection
    bookkeeping, only checksums and decode failures.
    """

    objects: dict[str, "CRDT"] = field(default_factory=dict)
    corrupt: set[str] = field(default_factory=set)
    unattributed: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and self.unattributed == 0


class StorageEngine:
    """Durability backend for one shard's ``key -> CRDT`` mapping.

    The live object maps stay in :class:`ShardedStore`; an engine is
    handed objects at durability points and must reproduce them after
    a process death (``durable`` engines) or at least for the life of
    the process (:class:`MemoryEngine`).  Objects are serialised with
    :mod:`pickle` -- every CRDT in the repo is a plain slots dataclass
    over builtins.
    """

    name = "abstract"
    durable = False

    def load(self) -> dict[str, "CRDT"]:
        """The persisted mapping, as of the last :meth:`sync`."""
        raise NotImplementedError

    def get(self, key: str) -> "CRDT | None":
        raise NotImplementedError

    def put(self, key: str, obj: "CRDT") -> None:
        """Stage one object; durable after the next :meth:`sync`."""
        raise NotImplementedError

    def iterate(self) -> Iterator[tuple[str, "CRDT"]]:
        yield from self.load().items()

    def digest(self, registry: "TypeRegistry") -> str:
        """Canonical fingerprint of the *persisted* state."""
        return shard_map_digest(self.load(), registry)

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        """Replace the persisted state wholesale; durable after the next :meth:`sync`."""
        raise NotImplementedError

    def sync(self) -> None:
        """Make staged puts and restores durable."""

    def close(self) -> None:
        """Release file handles / connections (idempotent)."""

    def verify(self) -> EngineScrub:
        """Damage survey of the persisted state (never raises).

        The scrubber's entry point: where :meth:`load` fails loudly on
        corruption, ``verify`` classifies every persisted entry as
        healthy or corrupt so quarantine-and-repair can proceed.
        """
        raise NotImplementedError


class MemoryEngine(StorageEngine):
    """The historical backend: a volatile dict, no durability."""

    name = "memory"
    durable = False

    def __init__(self) -> None:
        self._objects: dict[str, "CRDT"] = {}

    def load(self) -> dict[str, "CRDT"]:
        return dict(self._objects)

    def get(self, key: str) -> "CRDT | None":
        return self._objects.get(key)

    def put(self, key: str, obj: "CRDT") -> None:
        self._objects[key] = obj

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        self._objects = dict(objects)

    def sync(self) -> None:
        pass

    def verify(self) -> EngineScrub:
        # No medium to rot, but fault injection can still plant an
        # unpicklable object; the round-trip check finds it honestly.
        scrub = EngineScrub()
        for key, obj in self._objects.items():
            try:
                pickle.dumps(obj)
            except Exception:
                scrub.corrupt.add(key)
            else:
                scrub.objects[key] = obj
        return scrub


def _unpickle_entry(body: bytes) -> tuple[str, "CRDT"]:
    try:
        key, obj = pickle.loads(body)
    except Exception as exc:
        raise framedlog.Refused(f"unreadable object ({exc})") from exc
    return key, obj


class FileEngine(StorageEngine):
    """Object log: one :mod:`repro.store.framedlog` frame per object.

    Each frame holds ``pickle((key, obj))`` and the latest frame per key
    wins on load.  :meth:`restore` -- a store checkpoint -- rewrites the
    file atomically (temp file + :func:`os.replace`), one frame per key;
    :meth:`put` appends a frame (the conflict ledger's write path).  A
    crash mid-append damages at most the final frame, which load cuts in
    place under the framed log's one damage rule (mid-log damage raises;
    the scrubber's :meth:`verify` handles it).
    """

    name = "file"
    durable = True

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.log = framedlog.FramedLog(self.path, fsync=fsync)

    def load(self) -> dict[str, "CRDT"]:
        return dict(framedlog.read(self.path, _unpickle_entry)[0])

    def get(self, key: str) -> "CRDT | None":
        return self.load().get(key)

    def put(self, key: str, obj: "CRDT") -> None:
        self.log.append(pickle.dumps((key, obj)))

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        self.log.rewrite(pickle.dumps((key, objects[key])) for key in sorted(objects))

    def sync(self) -> None:
        self.log.sync()

    def close(self) -> None:
        self.log.close()

    def verify(self) -> EngineScrub:
        """CRC-verify the object log, attributing damage where possible.

        Latest-frame-wins means a damaged frame threatens more than its
        own key: any key whose newest *good* frame precedes the damage
        may have been superseded by it.  A damaged body pins the damage
        to the key it names when it is trustworthy evidence -- intact
        behind a rotted CRC field, or naming a key a good frame also
        holds; any other damage widens the quarantine to every key the
        damaged offset could have superseded (and is counted
        unattributed).
        """
        self.sync()  # staged appends must be on disk before scanning
        frames, damage = framedlog.scan(self.path)
        latest: dict[str, tuple[int, Any]] = {}
        for offset, _end, body in frames:
            try:
                key, obj = pickle.loads(body)
            except Exception:
                # A CRC-valid frame that will not decode: treat like
                # unattributable damage at this offset.
                damage.append((offset, None, "unpicklable body"))
                continue
            latest[key] = (offset, obj)
        scrub = EngineScrub()
        for offset, body, reason in damage:
            key = None
            if body is not None:
                try:
                    candidate = pickle.loads(body)
                except Exception:
                    candidate = None
                if (
                    isinstance(candidate, tuple)
                    and len(candidate) == 2
                    and isinstance(candidate[0], str)
                ):
                    key = candidate[0]
            # A CRC-failed body is untrusted evidence: a flipped bit
            # inside the key string still unpickles, naming a key that
            # never existed.  Only pin the damage when the body is
            # intact behind a rotted CRC field (a checkpoint holds one
            # frame per key, so that is often the only evidence), or
            # when the named key is independently known from a good frame.
            if key is not None and (reason == framedlog.CRC_FIELD_FLIP or key in latest):
                if key not in latest or latest[key][0] < offset:
                    scrub.corrupt.add(key)
            else:
                scrub.unattributed += 1
                for other, (good_offset, _obj) in latest.items():
                    if good_offset < offset:
                        scrub.corrupt.add(other)
        for key, (_offset, obj) in latest.items():
            if key not in scrub.corrupt:
                scrub.objects[key] = obj
        return scrub


class SqliteEngine(StorageEngine):
    """One sqlite database per shard: a single ``kv`` blob table.

    :meth:`restore` replaces every row in one committed transaction;
    puts stage rows inside sqlite's implicit transaction and
    :meth:`sync` commits them.  Reads after a crash see the last
    committed transaction -- sqlite's journal gives the same "complete
    records only" contract the framed file formats enforce by CRC.

    Durability follows :class:`FileEngine`: a committed transaction
    survives process death, and host death only with ``fsync=True``
    (``PRAGMA synchronous=FULL``; ``OFF`` otherwise, leaving the
    written pages to the operating system).

    Each row also stores ``crc32(obj)``: sqlite's journal protects
    against torn transactions, not against the medium flipping bits in
    a committed page, and a flipped blob can still be a *valid* pickle
    of the wrong state.  The checksum makes :meth:`verify` as honest as
    the framed formats.
    """

    name = "sqlite"
    durable = True

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA synchronous=" + ("FULL" if fsync else "OFF"))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            "key TEXT PRIMARY KEY, obj BLOB NOT NULL, crc INTEGER)"
        )
        self._conn.commit()

    def load(self) -> dict[str, "CRDT"]:
        rows = self._conn.execute("SELECT key, obj FROM kv")
        return {key: pickle.loads(blob) for key, blob in rows}

    def get(self, key: str) -> "CRDT | None":
        row = self._conn.execute("SELECT obj FROM kv WHERE key = ?", (key,)).fetchone()
        return pickle.loads(row[0]) if row else None

    def put(self, key: str, obj: "CRDT") -> None:
        blob = pickle.dumps(obj)
        self._conn.execute(
            "INSERT INTO kv (key, obj, crc) VALUES (?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET obj = excluded.obj, "
            "crc = excluded.crc",
            (key, blob, zlib.crc32(blob)),
        )

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        self._conn.execute("DELETE FROM kv")
        blobs = [(key, pickle.dumps(obj)) for key, obj in objects.items()]
        self._conn.executemany(
            "INSERT INTO kv (key, obj, crc) VALUES (?, ?, ?)",
            [(key, blob, zlib.crc32(blob)) for key, blob in blobs],
        )
        self._conn.commit()

    def sync(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def verify(self) -> EngineScrub:
        """Per-row checksum + unpickle survey; rows are self-attributing."""
        scrub = EngineScrub()
        rows = self._conn.execute("SELECT key, obj, crc FROM kv")
        for key, blob, crc in rows:
            if zlib.crc32(blob) != crc:
                scrub.corrupt.add(key)
                continue
            try:
                scrub.objects[key] = pickle.loads(blob)
            except Exception:
                scrub.corrupt.add(key)
        return scrub


# -- fault injection --------------------------------------------------------


class _CorruptObject:
    """A planted unserialisable object (memory-engine bit rot stand-in)."""

    def __reduce__(self):  # pragma: no cover - message only
        raise pickle.PicklingError("injected memory corruption")

    def value(self):  # pragma: no cover - debugging aid
        raise StoreError("injected memory corruption")


class FaultyEngine(StorageEngine):
    """Seeded fault injection around any real engine.

    The storage half of the chaos story: where the fault injector
    perturbs the network, ``FaultyEngine`` perturbs the durability
    layer -- fsync failures (:meth:`inject_fsync_failure`), disk-full
    puts and checkpoints (:meth:`inject_enospc`), torn writes
    (:meth:`inject_torn_write`), and seeded bit flips in already
    persisted state (:meth:`corrupt`).  Injection is by countdown
    budget so tests aim faults at exact durability points; detection
    stays honest -- :meth:`verify` delegates to the wrapped engine's
    own checksums and decode checks, never to injection bookkeeping.

    A :meth:`restore` is held until :meth:`sync`, the latest point the
    engine contract lets it become durable, so a checkpoint that fails
    at either step leaves the wrapped engine's previous state whole.
    """

    def __init__(self, inner: StorageEngine) -> None:
        self.inner = inner
        self._fsync_failures = 0
        self._enospc_writes = 0
        self._torn_writes = 0
        self._restored: dict[str, "CRDT"] | None = None
        self.injected: dict[str, int] = {
            "fsync_failures": 0,
            "enospc": 0,
            "torn_writes": 0,
            "bit_flips": 0,
        }

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def durable(self) -> bool:  # type: ignore[override]
        return self.inner.durable

    # -- fault arming ---------------------------------------------------------

    def inject_fsync_failure(self, count: int = 1) -> None:
        self._fsync_failures += count

    def inject_enospc(self, count: int = 1) -> None:
        self._enospc_writes += count

    def inject_torn_write(self, count: int = 1) -> None:
        self._torn_writes += count

    def corrupt(self, key: str, seed: int = 0) -> None:
        """Flip one persisted bit of ``key``'s newest stored copy."""
        self.injected["bit_flips"] += 1
        inner = self.inner
        if isinstance(inner, FileEngine):
            inner.sync()
            frames, _damage = framedlog.scan(inner.path)
            target = None
            for position, (_offset, _end, body) in enumerate(frames):
                try:
                    frame_key, _obj = pickle.loads(body)
                except Exception:
                    continue
                if frame_key == key:
                    target = position
            if target is None:
                raise StoreError(f"{inner.path}: no frame for {key!r}")
            framedlog.flip_bit(inner.path, target, seed=seed)
            return
        if isinstance(inner, SqliteEngine):
            inner.sync()
            row = inner._conn.execute(
                "SELECT obj FROM kv WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                raise StoreError(f"{inner.path}: no row for {key!r}")
            blob = bytearray(row[0])
            position = seed % len(blob)
            blob[position] ^= 1 << (seed % 8)
            # The stored crc stays stale on purpose: that is exactly
            # what medium rot under a committed page looks like.
            inner._conn.execute(
                "UPDATE kv SET obj = ? WHERE key = ?", (bytes(blob), key)
            )
            inner._conn.commit()
            return
        if isinstance(inner, MemoryEngine):
            if key not in inner._objects:
                raise StoreError(f"memory engine has no object {key!r}")
            inner._objects[key] = _CorruptObject()  # type: ignore[assignment]
            return
        raise StoreError(
            f"cannot corrupt through engine {type(inner).__name__}"
        )

    # -- the engine contract, with faults -------------------------------------

    def load(self) -> dict[str, "CRDT"]:
        return self.inner.load()

    def get(self, key: str) -> "CRDT | None":
        return self.inner.get(key)

    def _write_fault(self, what: str) -> bool:
        """Spend one armed write fault: ENOSPC raises, a torn write returns True."""
        if self._enospc_writes > 0:
            self._enospc_writes -= 1
            self.injected["enospc"] += 1
            raise StoreError(f"injected ENOSPC writing {what}") from OSError(
                errno.ENOSPC, os.strerror(errno.ENOSPC)
            )
        if self._torn_writes > 0:
            self._torn_writes -= 1
            self.injected["torn_writes"] += 1
            return True
        return False

    def put(self, key: str, obj: "CRDT") -> None:
        if not self._write_fault(repr(key)):
            self.inner.put(key, obj)
        elif isinstance(self.inner, FileEngine):
            # Half a frame hits the disk: the crash-mid-append
            # signature the tail repair already understands.  The
            # other engines have no framing to tear: the analogue is a
            # write that never reaches the committed state.
            self.inner.sync()
            self.inner.log.tear(pickle.dumps((key, obj)))

    def iterate(self) -> Iterator[tuple[str, "CRDT"]]:
        return self.inner.iterate()

    def digest(self, registry: "TypeRegistry") -> str:
        return self.inner.digest(registry)

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        if self._write_fault("a checkpoint"):
            # A crash mid-rewrite: the replace (or the commit) never
            # happens, so the previous shard is what stays.
            raise StoreError("injected torn checkpoint")
        self._restored = dict(objects)

    def sync(self) -> None:
        if self._fsync_failures > 0:
            self._fsync_failures -= 1
            self.injected["fsync_failures"] += 1
            raise StoreError("injected fsync failure") from OSError(
                errno.EIO, os.strerror(errno.EIO)
            )
        if self._restored is not None:
            self.inner.restore(self._restored)
            self._restored = None
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()

    def verify(self) -> EngineScrub:
        return self.inner.verify()


def make_engine(name: str, path: str | None = None, fsync: bool = False) -> StorageEngine:
    """Construct one engine; durable engines require a ``path`` base."""
    if name == "memory":
        return MemoryEngine()
    if path is None:
        raise StoreError(f"engine {name!r} needs a data path")
    if name == "file":
        return FileEngine(path + ".objlog", fsync=fsync)
    if name == "sqlite":
        return SqliteEngine(path + ".db", fsync=fsync)
    names = ", ".join(ENGINE_NAMES)
    raise StoreError(f"unknown storage engine {name!r} (one of: {names})")


# -- the sharded store ------------------------------------------------------


class ShardedStore:
    """One replica's object storage: N live shards + N engines.

    The replica reads and writes the live per-shard dicts (``get`` /
    ``set``); engines are fed at durability points only, each of which
    checkpoints every shard whole (:meth:`sync`).  For the default
    configuration -- one shard, memory engine -- every operation
    degenerates to exactly the single-dict behaviour the store always
    had (``get`` is the shard dict's own bound ``get``).
    """

    def __init__(
        self,
        replica_id: str,
        registry: "TypeRegistry",
        engine: str | None = None,
        shards: int | None = None,
        data_dir: str | None = None,
        fsync: bool = False,
    ) -> None:
        self.replica_id = replica_id
        self._registry = registry
        self.engine_name = engine if engine is not None else default_engine()
        self.n_shards = shards if shards is not None else default_shards()
        if self.n_shards < 1:
            raise StoreError(f"shards must be >= 1, got {self.n_shards}")
        self.ring = HashRing(self.n_shards)
        self.maps: list[dict[str, "CRDT"]] = [{} for _ in range(self.n_shards)]
        self.durable = self.engine_name != "memory"
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if self.durable and data_dir is None:
            # A durable engine with nowhere to live (unit tests, the
            # CI engine matrix running the stock suites): self-owned
            # scratch space, cleaned up with the store.
            self._tmpdir = tempfile.TemporaryDirectory(prefix=f"repro-store-{replica_id}-")
            data_dir = self._tmpdir.name
        elif self.durable:
            os.makedirs(data_dir, exist_ok=True)
        self.engines: list[StorageEngine] = [
            make_engine(
                self.engine_name,
                path=(
                    os.path.join(data_dir, f"shard-{index:02d}")
                    if data_dir is not None
                    else None
                ),
                fsync=fsync,
            )
            for index in range(self.n_shards)
        ]
        self._sorted_keys: list[str] | None = None
        self.checkpoints = 0
        if self.n_shards == 1:
            # Hot path: identical to the historical single-dict store.
            self.get = self.maps[0].get  # type: ignore[method-assign]
            self.contains = self.maps[0].__contains__  # type: ignore[method-assign]

    # -- routing and access --------------------------------------------------

    def shard_of(self, key: str) -> int:
        return self.ring.shard_of(key)

    def get(self, key: str) -> "CRDT | None":
        return self.maps[self.ring.shard_of(key)].get(key)

    def contains(self, key: str) -> bool:
        return key in self.maps[self.ring.shard_of(key)]

    def set(self, key: str, obj: "CRDT") -> None:
        self.maps[self.ring.shard_of(key)][key] = obj
        self._sorted_keys = None

    def keys(self) -> list[str]:
        """Sorted union of every shard's keys; cached until a write."""
        cached = self._sorted_keys
        if cached is None:
            if self.n_shards == 1:
                cached = sorted(self.maps[0])
            else:
                merged: list[str] = []
                for shard_map in self.maps:
                    merged.extend(shard_map)
                cached = sorted(merged)
            self._sorted_keys = cached
        return cached

    def objects(self) -> Iterator["CRDT"]:
        for shard_map in self.maps:
            yield from shard_map.values()

    def key_count(self) -> int:
        return sum(len(shard_map) for shard_map in self.maps)

    # -- snapshot / restore --------------------------------------------------

    def snapshot_shards(self) -> tuple[dict[str, "CRDT"], ...]:
        """Deep-cloned per-shard object maps (PR-3 snapshot payload)."""
        return tuple(
            {key: obj.clone() for key, obj in shard_map.items()}
            for shard_map in self.maps
        )

    def restore_shards(self, shards: tuple[dict[str, "CRDT"], ...]) -> None:
        """Adopt snapshot shard maps, every shard whole.

        A shard-count mismatch (snapshot taken under a different
        sharding) is handled by rerouting every key through this
        store's ring -- behavioural identity across shard counts is
        the contract, placement is not.
        """
        if len(shards) != self.n_shards:
            merged: dict[str, "CRDT"] = {}
            for shard_map in shards:
                merged.update(shard_map)
            rerouted: list[dict[str, "CRDT"]] = [{} for _ in range(self.n_shards)]
            for key, obj in merged.items():
                rerouted[self.ring.shard_of(key)][key] = obj
            shards = tuple(rerouted)
        self.maps = [{k: o.clone() for k, o in shard_map.items()} for shard_map in shards]
        self._sorted_keys = None
        if self.n_shards == 1:
            self.get = self.maps[0].get  # type: ignore[method-assign]
            self.contains = self.maps[0].__contains__  # type: ignore[method-assign]

    def clear(self) -> None:
        self.restore_shards(tuple({} for _ in range(self.n_shards)))

    # -- durability ----------------------------------------------------------

    def sync(self) -> None:
        """Checkpoint every shard: the one durability point.

        Each engine is handed its shard's whole live map (``restore``)
        and made durable (``sync``), so afterwards the engines hold
        exactly the live maps -- keys the live maps dropped included.
        A failure raises out of the shard it hit, leaving that shard's
        previous checkpoint whole; the next durability point rewrites
        every shard again, so nothing needs remembering for the retry.
        """
        if self.durable:
            for engine, shard_map in zip(self.engines, self.maps):
                engine.restore(shard_map)
                engine.sync()
        self.checkpoints += 1
        _checkpoints.inc()

    #: The same durability point under its snapshot-time name.
    checkpoint = sync

    def load_persisted(self) -> tuple[dict[str, "CRDT"], ...]:
        """Each engine's persisted shard map (tests / inspection)."""
        return tuple(engine.load() for engine in self.engines)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        counts = [len(shard_map) for shard_map in self.maps]
        total = sum(counts)
        return {
            "store.shard.count": self.n_shards,
            "store.shard.keys_total": total,
            "store.shard.keys_max": max(counts) if counts else 0,
            "store.shard.checkpoints": self.checkpoints,
        }

    def close(self) -> None:
        for engine in self.engines:
            engine.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
