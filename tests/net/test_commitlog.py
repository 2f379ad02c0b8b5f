"""Durable commit-log replay, including tail-damage tolerance.

The satellite requirement: a log whose *final* record is truncated at
any byte offset, or CRC-corrupt, replays to the intact prefix with a
warning and a counter bump -- and the file is repaired in place.
Damage followed by more bytes is not a crash signature and raises.

An empty data directory replays to nothing and a first append creates
exactly one log file (:class:`TestOneLog`); the live server's one log
per replica is checked in ``test_sharded_log.py``.
"""

import os
import zlib

import pytest

from repro.crdts import AWSet
from repro.net import commitlog, wire
from repro.obs import REGISTRY
from repro.store import framedlog
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica


def make_records(n):
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    replica = Replica("A", registry)
    records = []
    for i in range(n):
        txn = replica.begin()
        txn.update("s", lambda s, i=i: s.prepare_add(f"e{i}"))
        records.append(txn.commit())
    return records


def encoded(record):
    """The framed bytes a plain append of ``record`` writes."""
    return framedlog.frame(wire.encode_body({"record": record}))


def write_log(path, records):
    with commitlog.CommitLog(path) as log:
        for record in records:
            log.append(record)


class TestRoundTrip:
    def test_replay_restores_records(self, tmp_path):
        path = tmp_path / "a.commitlog"
        records = make_records(5)
        write_log(path, records)
        assert commitlog.replay(path) == records

    def test_missing_file_is_empty(self, tmp_path):
        assert commitlog.replay(tmp_path / "nope.commitlog") == []

    def test_append_is_durable_per_record(self, tmp_path):
        path = tmp_path / "a.commitlog"
        records = make_records(3)
        log = commitlog.CommitLog(path)
        for i, record in enumerate(records):
            log.append(record)
            # Flushed before any ack: another process sees it already.
            assert commitlog.replay(path) == records[: i + 1]
        log.close()


class TestTailDamage:
    def test_truncation_at_every_byte_offset_of_last_record(self, tmp_path):
        records = make_records(3)
        ref = tmp_path / "ref.commitlog"
        write_log(ref, records)
        data = ref.read_bytes()
        prefix_end = len(encoded(records[0]) + encoded(records[1]))
        counter = REGISTRY.counter("net.commitlog.tail_skipped")
        # From one byte of the last record up to one byte short of it
        # all being present (cutting at prefix_end exactly is a clean
        # two-record log, not tail damage).
        for cut in range(prefix_end + 1, len(data)):
            path = tmp_path / f"cut{cut}.commitlog"
            path.write_bytes(data[:cut])
            before = counter.value
            assert commitlog.replay(path) == records[:2]
            assert counter.value == before + 1
            # Repaired in place: the debris is gone, the prefix intact.
            assert path.read_bytes() == data[:prefix_end]
            assert commitlog.replay(path) == records[:2]

    def test_crc_corrupt_final_record_skipped(self, tmp_path, caplog):
        records = make_records(2)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with caplog.at_level("WARNING"):
            assert commitlog.replay(path) == records[:1]
        assert any("skipping damaged final record" in message for message in caplog.messages)

    def test_append_after_tail_repair(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "a.commitlog"
        write_log(path, records[:2])
        with open(path, "ab") as fh:
            fh.write(encoded(records[2])[:-3])
        assert commitlog.replay(path) == records[:2]
        with commitlog.CommitLog(path) as log:
            log.append(records[2])
        assert commitlog.replay(path) == records


class TestMidLogDamage:
    def test_corrupt_record_with_bytes_following_raises(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        first = encoded(records[0])
        data = bytearray(path.read_bytes())
        data[len(first) - 1] ^= 0xFF  # corrupt record 0's body
        path.write_bytes(bytes(data))
        with pytest.raises(commitlog.CommitLogError, match="not a tail"):
            commitlog.replay(path)

    def test_wrong_payload_type_raises(self, tmp_path):
        path = tmp_path / "a.commitlog"
        body = wire.dump_frame({"record": "not-a-record"})[4:]
        path.write_bytes(framedlog.HEADER.pack(len(body), zlib.crc32(body)) + body)
        with pytest.raises(commitlog.CommitLogError, match="CommitRecord"):
            commitlog.replay(path)


class TestSalvage:
    """Self-healing recovery mode: mid-log damage truncates, loudly.

    ``salvage=True`` trades history for availability -- a replica
    restarting into a mangled log keeps the intact prefix instead of
    refusing to start.  The dropped suffix is regenerated live (own
    commits re-execute under the schedule gate, remote records
    re-arrive via anti-entropy), which is only sound for a *prefix* of
    the application order -- exactly what one file's salvage keeps.
    """

    def damage_record(self, path, records, index):
        """CRC-corrupt record ``index`` in a log holding ``records``."""
        prefix = b"".join(encoded(record) for record in records[:index])
        damaged = len(prefix) + len(encoded(records[index]))
        data = bytearray(path.read_bytes())
        data[damaged - 1] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_midlog_damage_keeps_intact_prefix(self, tmp_path):
        records = make_records(4)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        self.damage_record(path, records, 1)
        counter = REGISTRY.counter("net.commitlog.salvaged")
        before = counter.value
        assert commitlog.replay(path, salvage=True) == records[:1]
        assert counter.value == before + 1
        # Truncated in place: a plain replay now sees a clean log.
        assert commitlog.replay(path) == records[:1]

    def test_append_after_salvage(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        self.damage_record(path, records, 1)
        assert commitlog.replay(path, salvage=True) == records[:1]
        # Regeneration: re-appends of the salvaged-away records land
        # on a clean boundary and replay whole.
        with commitlog.CommitLog(path) as log:
            log.append(records[1])
            log.append(records[2])
        assert commitlog.replay(path) == records

    def test_without_salvage_midlog_damage_still_raises(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        self.damage_record(path, records, 0)
        with pytest.raises(commitlog.CommitLogError, match="not a tail"):
            commitlog.replay(path)


#: CRC-valid bodies the codec must refuse with WireError: each used to
#: escape decoding as AttributeError, ValueError or TypeError, past the
#: ``except WireError`` of replay, and kill recovery even in salvage mode.
MALFORMED = [
    b'{"c":"CommitRecord","f":[1]}',
    b'{"d":[[1,2,3]]}',
    b'{"c":"Dot","f":{"bogus":1}}',
    b'{"t":5}',
    b'{"d":[["record",{"c":"Dot","f":{"bogus":1}}]]}',
    b'{"d":[["record",{"c":"CommitRecord","f":{"origin":{"l":{"a":1}}}}]]}',
]


def append_body(path, body):
    with open(path, "ab") as fh:
        fh.write(framedlog.frame(body))


@pytest.mark.parametrize("body", MALFORMED)
class TestMalformedBodies:
    def test_at_the_tail_it_is_skipped_and_counted(self, tmp_path, body):
        records = make_records(2)
        path = tmp_path / "a.commitlog"
        write_log(path, records)
        append_body(path, body)
        counter = REGISTRY.counter("net.commitlog.tail_skipped")
        before = counter.value
        assert commitlog.replay(path) == records
        assert counter.value == before + 1
        assert commitlog.replay(path) == records  # truncated in place

    def test_mid_log_it_raises(self, tmp_path, body):
        records = make_records(2)
        path = tmp_path / "a.commitlog"
        write_log(path, records[:1])
        append_body(path, body)
        write_log(path, records[1:])
        with pytest.raises(commitlog.CommitLogError, match="undecodable"):
            commitlog.replay(path)

    def test_mid_log_salvage_keeps_the_prefix(self, tmp_path, body):
        records = make_records(2)
        path = tmp_path / "a.commitlog"
        write_log(path, records[:1])
        append_body(path, body)
        write_log(path, records[1:])
        assert commitlog.replay(path, salvage=True) == records[:1]
        assert commitlog.replay(path) == records[:1]


class TestOneLog:
    def test_empty_dir_replays_empty(self, tmp_path):
        record = make_records(1)[0]
        with commitlog.CommitLog(tmp_path / "A.commitlog") as log:
            assert log.replay() == []
            log.append(record)
        assert os.listdir(tmp_path) == ["A.commitlog"]
        assert commitlog.replay(tmp_path / "A.commitlog") == [record]
