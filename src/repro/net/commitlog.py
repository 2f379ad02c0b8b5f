"""Durable append-only commit log for live replicas.

A live replica appends every :class:`~repro.store.transaction.CommitRecord`
it applies -- its own commits and remote records alike, in application
order -- before acknowledging anything to a client or a peer.  After a
crash the server replays the log through
:meth:`~repro.store.replica.Replica.rebuild_from_log`, which restores
both object state and the version vector, so a SIGKILL'd process comes
back exactly where durability left it.

On-disk format, one record after another::

    4-byte big-endian body length | 4-byte big-endian CRC32(body) | body

where ``body`` is the wire codec's compact JSON for the record.  The
CRC covers the body only; the length prefix is implicitly validated by
the CRC of the bytes it delimits.

Crash-mid-write leaves at most one damaged record, and only at the
tail (appends are sequential).  Replay therefore tolerates a truncated
or CRC-corrupt *final* record: it is skipped with a warning and the
``net.commitlog.tail_skipped`` counter, and the file is truncated back
to the last good record so the next append cannot interleave with the
debris.  Damage *before* the end of the file is not a crash signature
-- it means the disk or the operator mangled history -- and raises.

The framing layer (:func:`frame`, :func:`read_frames`,
:func:`skip_tail`) is body-agnostic and shared with the append-only
file storage engine (:mod:`repro.store.engine`), which stores pickled
objects instead of wire-JSON records under the same crash contract.

**Sharded logs.**  A :class:`ShardedCommitLog` splits one replica's
log across N per-shard files, routing each record by the consistent
hash of its first updated key; every record carries a monotonically
increasing sequence number (``seq``) so recovery can replay the shard
files one by one and merge them back into the exact application
order.  With one shard the on-disk format is byte-identical to the
historical single-file log (no ``seq`` tag, legacy filename).
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import Any

from repro.errors import ReproError
from repro.net import wire
from repro.obs import REGISTRY
from repro.store.transaction import CommitRecord

_LOG = logging.getLogger(__name__)
_HEADER = struct.Struct(">II")

_tail_skipped = REGISTRY.counter("net.commitlog.tail_skipped")
_salvaged = REGISTRY.counter("net.commitlog.salvaged")


class CommitLogError(ReproError):
    """Unrecoverable commit-log damage (not a tail crash artifact)."""


# -- framing (shared with the file storage engine) --------------------------


def frame(body: bytes) -> bytes:
    """One framed record: 4-byte length | 4-byte CRC32(body) | body."""
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def read_frames(
    path: str | os.PathLike[str], salvage: bool = False
) -> list[tuple[int, int, bytes]]:
    """Every intact ``(offset, end, body)`` frame in ``path``.

    Framing-level tail damage (truncated header/body, CRC mismatch on
    the final record) is repaired in place via :func:`skip_tail`;
    damage with bytes following raises :class:`CommitLogError`.
    Callers that decode bodies apply the same tail tolerance to a
    decode failure on the *last* returned frame.

    ``salvage=True`` is the self-healing recovery mode: mid-log damage
    truncates the file at the first damaged record (via
    :func:`salvage_tail`) instead of raising, keeping the intact
    prefix.  Safe only for callers that can regenerate the lost suffix
    -- the live servers can, because the schedule gate re-executes
    truncated local commits deterministically and anti-entropy
    re-fetches truncated remote records.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []

    frames: list[tuple[int, int, bytes]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            skip_tail(path, offset, "truncated header")
            break
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > size:
            skip_tail(path, offset, "truncated body")
            break
        body = data[offset + _HEADER.size : end]
        if zlib.crc32(body) != crc:
            if end == size:
                skip_tail(path, offset, "CRC mismatch")
                break
            if salvage:
                salvage_tail(path, offset, "CRC mismatch mid-log")
                break
            raise CommitLogError(
                f"{path}: CRC mismatch at offset {offset} with "
                f"{size - end} bytes following -- not a tail artifact"
            )
        frames.append((offset, end, body))
        offset = end
    return frames


def scan_frames(
    path: str | os.PathLike[str],
) -> tuple[list[tuple[int, int, bytes]], list[tuple[int, bytes | None, str]]]:
    """Non-destructive damage survey: ``(good_frames, damage)``.

    Unlike :func:`read_frames` this never raises and never rewrites the
    file -- it is the scrubber's evidence-gathering pass.  Damage
    entries are ``(offset, body_or_None, reason)``: a CRC-mismatched
    record whose length prefix still delimits it keeps its (corrupt)
    body bytes for attribution and scanning *continues* at the next
    frame boundary; structural damage (truncated header/body, which a
    flipped length prefix is indistinguishable from) ends the scan.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], []
    frames: list[tuple[int, int, bytes]] = []
    damage: list[tuple[int, bytes | None, str]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            damage.append((offset, None, "truncated header"))
            break
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > size:
            damage.append((offset, None, "truncated body"))
            break
        body = data[offset + _HEADER.size : end]
        if zlib.crc32(body) != crc:
            damage.append((offset, body, "CRC mismatch"))
        else:
            frames.append((offset, end, body))
        offset = end
    return frames, damage


def skip_tail(path: str | os.PathLike[str], offset: int, why: str) -> None:
    """Drop a damaged final record: warn, count, truncate in place."""
    _tail_skipped.inc()
    _LOG.warning(
        "commit log %s: skipping damaged final record at offset %d (%s)",
        path,
        offset,
        why,
    )
    with open(path, "r+b") as fh:
        fh.truncate(offset)


def salvage_tail(path: str | os.PathLike[str], offset: int, why: str) -> None:
    """Truncate mid-log damage away, loudly: scrub-and-regenerate mode.

    Distinct from :func:`skip_tail` (a *tail* crash artifact, expected
    and quiet-ish) because mid-log damage means the disk mangled
    acknowledged history: the warning and the ``net.commitlog.salvaged``
    counter are the operator's signal that durability was breached and
    the fleet is regenerating the suffix from its peers and schedule.
    """
    _salvaged.inc()
    _LOG.warning(
        "commit log %s: SALVAGE -- truncating damaged history from "
        "offset %d (%s); the suffix will be regenerated via schedule "
        "re-execution and anti-entropy",
        path,
        offset,
        why,
    )
    with open(path, "r+b") as fh:
        fh.truncate(offset)


# -- record encoding --------------------------------------------------------


def _encode_record(record: CommitRecord, seq: int | None = None) -> bytes:
    message: dict[str, Any] = {"record": record}
    if seq is not None:
        message["seq"] = seq
    return frame(wire.encode_body(message))


def replay_indexed(
    path: str | os.PathLike[str], salvage: bool = False
) -> list[tuple[int | None, CommitRecord]]:
    """All intact ``(seq, record)`` pairs, tolerating a damaged tail.

    ``seq`` is None for records written without a sequence tag (the
    single-shard format).  Repairs the file in place when the tail is
    damaged (truncates back to the last good record).  Raises
    :class:`CommitLogError` on damage that is followed by more bytes
    -- that cannot be a crash-mid-append -- unless ``salvage`` is set,
    in which case the damaged suffix is truncated away for the
    schedule/anti-entropy machinery to regenerate (see
    :func:`read_frames`).
    """
    frames = read_frames(path, salvage=salvage)
    records: list[tuple[int | None, CommitRecord]] = []
    last = len(frames) - 1
    for index, (offset, _end, body) in enumerate(frames):
        try:
            message = wire.load_frame(body)
            record = message["record"]
        except (wire.WireError, KeyError) as exc:
            if index == last:
                skip_tail(path, offset, f"undecodable body ({exc})")
                break
            if salvage:
                salvage_tail(path, offset, f"undecodable body ({exc})")
                break
            raise CommitLogError(
                f"{path}: undecodable record at offset {offset} with "
                f"bytes following: {exc}"
            ) from exc
        if not isinstance(record, CommitRecord):
            raise CommitLogError(
                f"{path}: offset {offset} holds {type(record).__name__}, "
                "not a CommitRecord"
            )
        records.append((message.get("seq"), record))
    return records


def replay(
    path: str | os.PathLike[str], salvage: bool = False
) -> list[CommitRecord]:
    """All intact records, tolerating a damaged final record."""
    return [record for _seq, record in replay_indexed(path, salvage=salvage)]


class CommitLog:
    """Append handle for one replica's durable log.

    ``fsync=True`` additionally calls :func:`os.fsync` per append;
    the default flush survives process death (SIGKILL) but not host
    death, which is the failure model the chaos harness exercises.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self._fh: Any = open(self.path, "ab")

    def append(self, record: CommitRecord, seq: int | None = None) -> None:
        self._fh.write(_encode_record(record, seq))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def shard_log_paths(data_dir: str, region: str, shards: int) -> list[str]:
    """On-disk log file per shard; one shard keeps the legacy name."""
    if shards <= 1:
        return [os.path.join(data_dir, f"{region}.commitlog")]
    return [
        os.path.join(data_dir, f"{region}-shard{index:02d}.commitlog")
        for index in range(shards)
    ]


class ShardedCommitLog:
    """One replica's durable log, split across per-shard files.

    Appends route each record to the shard owning its first updated
    key (commitless records route by origin), tagged with a global
    monotonic sequence number.  :meth:`replay` reads every shard file
    and merges by sequence, reproducing the exact application order a
    single log would have preserved; the sequence counter resumes past
    the highest replayed tag, so appends after a crash stay totally
    ordered.

    With ``shards == 1`` this degenerates to the classic single-file
    log: legacy filename, no sequence tags, byte-identical format.
    """

    def __init__(
        self,
        data_dir: str,
        region: str,
        shards: int = 1,
        fsync: bool = False,
    ) -> None:
        if shards < 1:
            raise CommitLogError(f"shards must be >= 1, got {shards}")
        self.region = region
        self.shards = shards
        self._fsync = fsync
        self._paths = shard_log_paths(data_dir, region, shards)
        self._logs: list[CommitLog] | None = None
        self._next_seq = 0
        if shards > 1:
            # Imported here: the engine module uses this module's
            # framing, so a module-level import would be circular.
            from repro.store.engine import HashRing

            self._ring = HashRing(shards)
        else:
            self._ring = None

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self._paths)

    def replay(self, salvage: bool = False) -> list[CommitRecord]:
        """Replay every shard file in turn, merged by sequence.

        ``salvage=True`` additionally truncates mid-file damage per
        shard (see :func:`read_frames`) and then cuts the *merged*
        stream at the first sequence gap: recovery logic downstream
        (``rebuild_from_log``, ``resume_position``) is only correct for
        a prefix of the application order, and records beyond a gap in
        one shard may causally depend on the records the gap swallowed.
        The dropped suffix is regenerated live -- own commits re-execute
        deterministically under the schedule gate, remote records
        re-arrive via anti-entropy -- and re-appends of records that
        survived in other shard files are byte-identical, so replay
        deduplicates them by version vector.
        """
        if self.shards == 1:
            records = replay(self._paths[0], salvage=salvage)
            self._next_seq = len(records)
            return records
        tagged: list[tuple[int, CommitRecord]] = []
        for path in self._paths:
            for seq, record in replay_indexed(path, salvage=salvage):
                if seq is None:
                    raise CommitLogError(
                        f"{path}: record without a sequence tag in a "
                        "sharded log"
                    )
                tagged.append((seq, record))
        tagged.sort(key=lambda item: item[0])
        if salvage:
            kept: list[CommitRecord] = []
            for index, (seq, record) in enumerate(tagged):
                if seq < len(kept) and record == kept[seq]:
                    # A byte-identical re-append: post-salvage
                    # regeneration re-writes records that survived in
                    # *other* shard files, so a later recovery sees
                    # the same (seq, record) twice.  Not a gap.
                    continue
                if seq != len(kept):
                    _salvaged.inc()
                    _LOG.warning(
                        "sharded commit log %s: sequence gap at %d "
                        "(next surviving record is seq %d); dropping "
                        "%d record(s) past the gap for regeneration",
                        self.region,
                        len(kept),
                        seq,
                        len(tagged) - index,
                    )
                    break
                kept.append(record)
            self._next_seq = len(kept)
            return kept
        self._next_seq = tagged[-1][0] + 1 if tagged else 0
        return [record for _seq, record in tagged]

    def open(self) -> None:
        """Open the per-shard append handles (idempotent)."""
        if self._logs is None:
            self._logs = [
                CommitLog(path, fsync=self._fsync) for path in self._paths
            ]

    def append(self, record: CommitRecord) -> None:
        if self._logs is None:
            self.open()
        assert self._logs is not None
        if self._ring is None:
            self._logs[0].append(record)
            return
        key = record.updates[0][0] if record.updates else record.origin
        shard = self._ring.shard_of(key)
        self._logs[shard].append(record, seq=self._next_seq)
        self._next_seq += 1

    def close(self) -> None:
        if self._logs is not None:
            for log in self._logs:
                log.close()
            self._logs = None

    def __enter__(self) -> "ShardedCommitLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
