"""A replica's object store, and the conflict ledger's one engine.

- A :class:`ShardedStore` owns a replica's *live* object map -- one
  plain dict -- so the replica's hot path stays a dict lookup.  It
  holds nothing durable: the commit log is a replica's only durable
  state, and recovery replays it
  (:meth:`repro.store.replica.Replica.adopt_log`).
- A :class:`FileEngine` is the conflict ledger's durability backend
  (:mod:`repro.store.conflicts`): an append-only
  :mod:`~repro.store.framedlog` file of pickled objects.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Iterator

from repro.store import framedlog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crdts.base import CRDT


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


# -- the conflict ledger's engine ------------------------------------------


def _unpickle_entry(body: bytes) -> tuple[str, Any]:
    try:
        key, obj = pickle.loads(body)
    except Exception as exc:
        raise framedlog.Refused(f"unreadable object ({exc})") from exc
    return key, obj


class FileEngine:
    """Object log: one :mod:`repro.store.framedlog` frame per object.

    :meth:`put` appends ``pickle((key, obj))`` and :meth:`sync` makes
    appended puts durable; :meth:`load` returns the persisted mapping
    after a process death, the latest frame per key winning.  A crash
    mid-append damages at most the final frame, which load cuts in
    place under the framed log's one damage rule; mid-log damage raises.
    """

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


class MemoryEngine:
    """Not an engine, and nothing builds it: it stays only because
    ``benchmarks/ledger/shims.py`` wraps ``MemoryEngine.put`` by name
    (ROADMAP item 16(b))."""

    def put(self, key: str, obj: Any) -> None:
        raise NotImplementedError


class SqliteEngine:
    """Not an engine, and nothing builds it: it stays only because
    ``benchmarks/ledger/shims.py`` wraps ``SqliteEngine.put`` by name
    (ROADMAP item 16(b))."""

    def put(self, key: str, obj: Any) -> None:
        raise NotImplementedError


# -- the store --------------------------------------------------------------


class ShardedStore:
    """One replica's object storage: one live dict, nothing durable.

    The replica reads and writes the dict through ``get`` / ``set``.
    The commit log is the replica's only durable state: recovery
    replays it into the same dict, which :meth:`restore` and
    :meth:`clear` refill in place, so a bound ``get`` hoisted by a
    caller stays valid across recoveries.

    The class keeps its name because ``benchmarks/ledger/shims.py``
    patches ``ShardedStore.get``/``sync``/``checkpoint`` by name
    (ROADMAP item 16(b)).
    """

    #: Always 1; ``shims._note_commit_updates`` reads it (ROADMAP 16(b)).
    n_shards = 1

    def __init__(self) -> None:
        self._objects: dict[str, "CRDT"] = {}
        #: The live dict as a one-element sequence;
        #: ``shims._note_commit_updates`` reads ``maps[0]`` (ROADMAP 16(b)).
        self.maps = (self._objects,)
        self._sorted_keys: list[str] | None = None
        # Hot path: the dict's own bound methods.  The instance ``get``
        # shadows the class-level one, which stays for the shims.
        self.get = self._objects.get  # type: ignore[method-assign]
        self.contains = self._objects.__contains__

    def get(self, key: str) -> "CRDT | None":
        return self._objects.get(key)

    def set(self, key: str, obj: "CRDT") -> None:
        self._objects[key] = obj
        self._sorted_keys = None

    def keys(self) -> list[str]:
        """Sorted keys; cached until a write."""
        cached = self._sorted_keys
        if cached is None:
            cached = self._sorted_keys = sorted(self._objects)
        return cached

    def objects(self) -> Iterator["CRDT"]:
        return iter(self._objects.values())

    def key_count(self) -> int:
        return len(self._objects)

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> dict[str, "CRDT"]:
        """A deep-cloned copy of the object map."""
        return {key: obj.clone() for key, obj in self._objects.items()}

    def restore(self, objects: dict[str, "CRDT"]) -> None:
        """Refill the live dict with clones of ``objects``."""
        clones = {key: obj.clone() for key, obj in objects.items()}
        self._objects.clear()
        self._objects.update(clones)
        self._sorted_keys = None

    def clear(self) -> None:
        self._objects.clear()
        self._sorted_keys = None

    def stats(self) -> dict[str, int]:
        count = len(self._objects)
        return {"store.keys_total": count, "store.keys_max": count}

    # No-ops: the store holds nothing durable.  Each stays only because
    # ``benchmarks/ledger/shims.py`` wraps it by name (ROADMAP item 16(b)).

    def sync(self) -> None:
        """No-op, kept for the benchmark's shims."""

    def checkpoint(self) -> None:
        """No-op, kept for the benchmark's shims."""

    def close(self) -> None:
        """No-op, kept for ``benchmarks/ledger/workloads.py``."""
