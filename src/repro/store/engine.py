"""Keyspace sharding for one replica, and the conflict ledger's engines.

- A :class:`ShardedStore` owns a replica's *live* object maps -- one
  plain dict per shard, routed by :class:`HashRing` consistent hashing
  -- so the replica's hot path stays a dict lookup.  It holds nothing
  durable: the commit log is a replica's only durable state, and
  recovery replays it (:meth:`repro.store.replica.Replica.adopt_log`).
- A :class:`StorageEngine` is the conflict ledger's durability backend
  (:mod:`repro.store.conflicts`): :class:`FileEngine` (an append-only
  :mod:`~repro.store.framedlog` file) or :class:`SqliteEngine` (one
  ``kv`` table).

The shard count defaults from ``REPRO_SHARDS`` (``1``) and the ledger's
engine from ``REPRO_ENGINE`` (``memory``, which selects ``file``), which
is how the CI matrix reruns the store/net suites across both without
editing a test: the state digests are byte-identical whatever the
shard count.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
import sqlite3
import zlib
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import StoreError
from repro.store import framedlog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crdts.base import CRDT

#: The recognised ``REPRO_ENGINE`` names; ``memory`` selects ``file``.
ENGINE_NAMES = ("memory", "file", "sqlite")

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
    through (replica fingerprints, anti-entropy digests):
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


# -- the conflict ledger's engines ------------------------------------------


class StorageEngine:
    """Durability backend for the conflict ledger's ``key -> object`` map.

    :meth:`put` stages an object and :meth:`sync` makes staged puts
    durable; :meth:`load` returns the persisted mapping after a process
    death.  Objects are serialised with :mod:`pickle`.
    """

    name = "abstract"

    def load(self) -> dict[str, Any]:
        """The persisted mapping, as of the last :meth:`sync`."""
        raise NotImplementedError

    def put(self, key: str, obj: Any) -> None:
        """Stage one object; durable after the next :meth:`sync`."""
        raise NotImplementedError

    def sync(self) -> None:
        """Make staged puts durable."""

    def close(self) -> None:
        """Release file handles / connections (idempotent)."""


class MemoryEngine(StorageEngine):
    """Not an engine: ``memory`` selects :class:`FileEngine` (see
    :func:`repro.store.conflicts.ledger_engine_name`).  Nothing builds
    this class; it stays because ``benchmarks/ledger/shims.py`` wraps
    ``MemoryEngine.put`` by name (ROADMAP item 16(b))."""

    name = "memory"

    def put(self, key: str, obj: Any) -> None:
        raise NotImplementedError


def _unpickle_entry(body: bytes) -> tuple[str, Any]:
    try:
        key, obj = pickle.loads(body)
    except Exception as exc:
        raise framedlog.Refused(f"unreadable object ({exc})") from exc
    return key, obj


class FileEngine(StorageEngine):
    """Object log: one :mod:`repro.store.framedlog` frame per object.

    Each frame holds ``pickle((key, obj))`` and the latest frame per key
    wins on load.  A crash mid-append damages at most the final frame,
    which load cuts in place under the framed log's one damage rule;
    mid-log damage raises.
    """

    name = "file"

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.log = framedlog.FramedLog(self.path, fsync=fsync)

    def load(self) -> dict[str, Any]:
        return dict(framedlog.read(self.path, _unpickle_entry)[0])

    def put(self, key: str, obj: Any) -> None:
        self.log.append(pickle.dumps((key, obj)))

    def sync(self) -> None:
        self.log.sync()

    def close(self) -> None:
        self.log.close()


class SqliteEngine(StorageEngine):
    """One sqlite database: a single ``kv`` blob table.

    Puts stage rows inside sqlite's implicit transaction and
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
    of the wrong state.  :meth:`load` checks every row and raises on a
    mismatch, like the framed formats' mid-log rule.
    """

    name = "sqlite"

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA synchronous=" + ("FULL" if fsync else "OFF"))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            "key TEXT PRIMARY KEY, obj BLOB NOT NULL, crc INTEGER)"
        )
        self._conn.commit()

    def load(self) -> dict[str, Any]:
        objects = {}
        for key, blob, crc in self._conn.execute("SELECT key, obj, crc FROM kv"):
            if zlib.crc32(blob) != crc:
                raise StoreError(f"{self.path}: row {key!r} fails its CRC")
            objects[key] = pickle.loads(blob)
        return objects

    def put(self, key: str, obj: Any) -> None:
        blob = pickle.dumps(obj)
        self._conn.execute(
            "INSERT INTO kv (key, obj, crc) VALUES (?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET obj = excluded.obj, "
            "crc = excluded.crc",
            (key, blob, zlib.crc32(blob)),
        )

    def sync(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None  # type: ignore[assignment]


def make_engine(name: str, path: str | None = None, fsync: bool = False) -> StorageEngine:
    """Construct one ledger engine (``file`` or ``sqlite``) at ``path``'s base."""
    if name not in ("file", "sqlite"):
        raise StoreError(f"unknown storage engine {name!r} (one of: file, sqlite)")
    if path is None:
        raise StoreError(f"engine {name!r} needs a data path")
    if name == "file":
        return FileEngine(path + ".objlog", fsync=fsync)
    return SqliteEngine(path + ".db", fsync=fsync)


# -- the sharded store ------------------------------------------------------


class ShardedStore:
    """One replica's object storage: N live shard maps, nothing durable.

    The replica reads and writes the per-shard dicts (``get`` / ``set``),
    routed by :class:`HashRing`.  The commit log is the replica's only
    durable state: recovery replays it into fresh maps.  With one shard
    every operation degenerates to the single-dict behaviour the store
    always had (``get`` is the shard dict's own bound ``get``).
    """

    def __init__(self, shards: int | None = None) -> None:
        self.n_shards = shards if shards is not None else default_shards()
        if self.n_shards < 1:
            raise StoreError(f"shards must be >= 1, got {self.n_shards}")
        self.ring = HashRing(self.n_shards)
        self.maps: list[dict[str, "CRDT"]] = [{} for _ in range(self.n_shards)]
        self._sorted_keys: list[str] | None = None
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

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        counts = [len(shard_map) for shard_map in self.maps]
        return {
            "store.shard.count": self.n_shards,
            "store.shard.keys_total": sum(counts),
            "store.shard.keys_max": max(counts) if counts else 0,
        }

    # No-ops: the store holds nothing durable.  Each stays only because
    # ``benchmarks/ledger/shims.py`` wraps it by name (ROADMAP item 16(b)).

    def sync(self) -> None:
        """No-op, kept for the benchmark's shims."""

    def checkpoint(self) -> None:
        """No-op, kept for the benchmark's shims."""

    def close(self) -> None:
        """No-op, kept for the benchmark's shims."""
