"""The framed log's one damage rule, as each of its three users sees it.

One table over {commit log, object log, hint queue} x {torn header,
torn body, bad CRC, refused body} x {final, mid-log} x every ``salvage``
value that user passes: a damaged final frame is cut and counted in
``net.commitlog.tail_skipped``; mid-log damage raises the one
:class:`~repro.store.framedlog.FramedLogError` (a ``StoreError``), or
is cut and counted in ``net.commitlog.salvaged`` under salvage.  The
byte-identity checks pin that every user still writes exactly the
historical ``len | crc32 | body`` frames.
"""

import os
import pickle
import stat
import struct
import zlib

import pytest

from repro.crdts import AWSet
from repro.errors import StoreError
from repro.net import commitlog, wire
from repro.net.health import HintQueue
from repro.obs import REGISTRY
from repro.store import framedlog
from repro.store.engine import FileEngine
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica


def reference_frame(body):
    """The frame format as first written: length, CRC32, body."""
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def make_records(n, keys=("s0",)):
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    replica = Replica("A", registry)
    records = []
    for i in range(n):
        txn = replica.begin()
        txn.update(keys[i % len(keys)], lambda s, i=i: s.prepare_add(f"e{i}"))
        records.append(txn.commit())
    return records


# -- the three users: (good bodies, a refused body, salvage values, load) ---


def _commit_log_user():
    records = make_records(3)
    bodies = [wire.encode_body({"record": record}) for record in records]

    def load(path, salvage):
        return commitlog.replay(path, salvage=salvage)

    return records, bodies, b'{"t":5}', (False, True), load


def _object_log_user():
    entries = [(f"k{i}", i) for i in range(3)]
    bodies = [pickle.dumps(entry) for entry in entries]

    def load(path, salvage):
        assert not salvage
        engine = FileEngine(str(path))
        try:
            return sorted(engine.load().items())
        finally:
            engine.close()

    return entries, bodies, b"not a pickle", (False,), load


def _hint_queue_user():
    hints = [{"type": "record-batch", "seq": n, "records": []} for n in range(3)]
    bodies = [wire.encode_body(hint) for hint in hints]

    def load(path, salvage):
        assert salvage
        queue = HintQueue(str(path))
        try:
            return list(queue._messages), queue.dropped
        finally:
            queue.close()

    return hints, bodies, b"not json at all", (True,), load


USERS = {
    "commit-log": _commit_log_user,
    "object-log": _object_log_user,
    "hint-queue": _hint_queue_user,
}


def damaged(kind, body, refused):
    """The bytes ``kind`` of damage leaves where ``body``'s frame was."""
    framed = reference_frame(body)
    if kind == "torn-header":
        return framed[:5]
    if kind == "torn-body":
        return framed[:-3]
    if kind == "bad-crc":
        return framed[:-1] + bytes([framed[-1] ^ 0xFF])
    assert kind == "refused-body"
    return reference_frame(refused)


CASES = [
    (user, kind, where, salvage)
    for user, build in USERS.items()
    for kind in ("torn-header", "torn-body", "bad-crc", "refused-body")
    for where in ("final", "mid-log")
    for salvage in build()[3]
]


@pytest.mark.parametrize(("user", "kind", "where", "salvage"), CASES)
def test_one_damage_rule(tmp_path, user, kind, where, salvage):
    values, bodies, refused, _salvages, load = USERS[user]()
    path = tmp_path / "damaged.log"
    prefix = reference_frame(bodies[0])
    data = prefix + damaged(kind, bodies[1], refused)
    if where == "mid-log":
        data += reference_frame(bodies[2])
    path.write_bytes(data)
    tail = REGISTRY.counter("net.commitlog.tail_skipped")
    salvaged = REGISTRY.counter("net.commitlog.salvaged")
    before = (tail.value, salvaged.value)

    if where == "mid-log" and not salvage:
        with pytest.raises(StoreError) as raised:
            load(path, salvage)
        assert raised.type is framedlog.FramedLogError
        assert path.read_bytes() == data  # nothing cut
        assert (tail.value, salvaged.value) == before
        return

    loaded = load(path, salvage)
    if user == "hint-queue":
        loaded, dropped = loaded
        # Every hint from the damaged one on is lost, and counted.
        assert dropped == (1 if where == "final" else 2)
    assert loaded == values[:1]
    assert path.read_bytes() == prefix  # cut in place
    moved = (1, 0) if where == "final" else (0, 1)
    assert (tail.value - before[0], salvaged.value - before[1]) == moved


# -- byte identity with the historical format -----------------------------


def test_commit_log_frames_are_unchanged(tmp_path):
    records = make_records(30, keys=tuple(f"key-{i}" for i in range(12)))
    path = tmp_path / "A.commitlog"
    with commitlog.CommitLog(path) as log:
        for record in records:
            log.append(record)
    expected = b"".join(
        reference_frame(wire.encode_body({"record": record})) for record in records
    )
    assert path.read_bytes() == expected


def test_object_log_frames_are_unchanged(tmp_path):
    engine = FileEngine(str(tmp_path / "s.objlog"))
    entries = [("b", 1), ("a", 2), ("b", 3)]
    for key, obj in entries:
        engine.put(key, obj)
    engine.sync()
    with open(engine.path, "rb") as fh:
        assert fh.read() == b"".join(reference_frame(pickle.dumps(e)) for e in entries)
    engine.restore({"b": 3, "a": 2})
    with open(engine.path, "rb") as fh:
        assert fh.read() == b"".join(
            reference_frame(pickle.dumps(e)) for e in [("a", 2), ("b", 3)]
        )
    engine.close()


def test_hint_file_frames_are_unchanged(tmp_path):
    path = str(tmp_path / "peer.hints")
    queue = HintQueue(path)
    hints = [{"type": "record-batch", "seq": n, "records": []} for n in range(4)]
    for hint in hints:
        queue.append(hint)
    queue.close()
    with open(path, "rb") as fh:
        assert fh.read() == b"".join(reference_frame(wire.encode_body(h)) for h in hints)


# -- durability of a rewrite ------------------------------------------------


@pytest.mark.parametrize("fsync", [False, True])
def test_rewrite_syncs_the_directory_iff_fsync(tmp_path, monkeypatch, fsync):
    """The replace lives in the directory: with ``fsync`` it is synced too."""
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    framedlog.FramedLog(tmp_path / "s.objlog", fsync=fsync).rewrite([b"a", b"b"])
    assert synced == (["file", "dir"] if fsync else [])
