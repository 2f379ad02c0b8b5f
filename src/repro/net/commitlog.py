"""Durable append-only commit log for live replicas.

A live replica appends every :class:`~repro.store.transaction.CommitRecord`
it applies -- its own commits and remote records alike, in application
order -- before acknowledging anything to a client or a peer.  After a
crash the server replays the log through
:meth:`~repro.store.replica.Replica.rebuild_from_log`, which restores
both object state and the version vector, so a SIGKILL'd process comes
back exactly where durability left it.

Each record is one frame of :mod:`repro.store.framedlog` around the
wire codec's compact JSON for ``{"record": ..., "seq": ...}``, and
replay follows that module's one damage rule: a damaged final record
is cut and counted, damage with bytes after it raises
:data:`CommitLogError` unless ``salvage`` cuts it too.  A body the
codec refuses is damage like any other; a decodable body that is not a
``CommitRecord`` raises wherever it sits.

**Sharded logs.**  A :class:`ShardedCommitLog` splits one replica's
log across N per-shard files (N >= 1), routing each record by the
consistent hash of its first updated key; every record carries a
monotonically increasing sequence number (``seq``) so recovery can
replay the shard files one by one and merge them back into the exact
application order.
"""

from __future__ import annotations

import logging
import os
from typing import Any

from repro.net import wire
from repro.obs import REGISTRY
from repro.store import framedlog
from repro.store.engine import HashRing
from repro.store.transaction import CommitRecord

_LOG = logging.getLogger(__name__)

_salvaged = REGISTRY.counter("net.commitlog.salvaged")

#: Commit-log damage and misuse: the framed log's one error type.
CommitLogError = framedlog.FramedLogError


def _decode(body: bytes) -> tuple[int | None, CommitRecord]:
    try:
        message = wire.load_frame(body)
        record = message["record"]
    except (wire.WireError, KeyError) as exc:
        raise framedlog.Refused(f"undecodable record ({exc})") from exc
    if not isinstance(record, CommitRecord):
        raise CommitLogError(f"a log entry holds {type(record).__name__}, not a CommitRecord")
    return message.get("seq"), record


def replay_indexed(
    path: str | os.PathLike[str], salvage: bool = False
) -> list[tuple[int | None, CommitRecord]]:
    """All intact ``(seq, record)`` pairs, tolerating a damaged tail.

    ``seq`` is None for a record appended without a sequence tag.  The
    file is repaired in place as :func:`repro.store.framedlog.read`
    describes, ``salvage`` included.
    """
    return framedlog.read(path, _decode, salvage=salvage)[0]


def replay(path: str | os.PathLike[str], salvage: bool = False) -> list[CommitRecord]:
    """All intact records, tolerating a damaged final record."""
    return [record for _seq, record in replay_indexed(path, salvage=salvage)]


class CommitLog:
    """Append handle for one durable log file.

    Every append is flushed before it returns; ``fsync=True``
    additionally calls :func:`os.fsync` per append.  The flush survives
    process death (SIGKILL) but not host death, which is the failure
    model the chaos harness exercises.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._log = framedlog.FramedLog(self.path, fsync=fsync)
        self._log.open()  # every shard file exists from open on, written or not

    def append(self, record: CommitRecord, seq: int | None = None) -> None:
        message: dict[str, Any] = {"record": record}
        if seq is not None:
            message["seq"] = seq
        self._log.append(wire.encode_body(message))
        self._log.sync()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def shard_log_paths(data_dir: str, region: str, shards: int) -> list[str]:
    """On-disk log file per shard."""
    return [
        os.path.join(data_dir, f"{region}-shard{index:02d}.commitlog") for index in range(shards)
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
        self._ring = HashRing(shards)

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self._paths)

    def replay(self, salvage: bool = False) -> list[CommitRecord]:
        """Replay every shard file in turn, merged by sequence.

        ``salvage=True`` additionally truncates mid-file damage per
        shard (see :func:`repro.store.framedlog.read`) and then cuts
        the *merged* stream at the first sequence gap: recovery logic
        downstream (``rebuild_from_log``, ``resume_position``) is only
        correct for a prefix of the application order, and records
        beyond a gap in one shard may causally depend on the records
        the gap swallowed.  The dropped suffix is regenerated live --
        own commits re-execute deterministically under the schedule
        gate, remote records re-arrive via anti-entropy -- and
        re-appends of records that survived in other shard files are
        byte-identical, so replay deduplicates them by version vector.
        """
        tagged: list[tuple[int, CommitRecord]] = []
        for path in self._paths:
            for seq, record in replay_indexed(path, salvage=salvage):
                if seq is None:
                    raise CommitLogError(
                        f"{path}: record without a sequence tag in a sharded log"
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
            self._logs = [CommitLog(path, fsync=self._fsync) for path in self._paths]

    def append(self, record: CommitRecord) -> None:
        if self._logs is None:
            self.open()
        assert self._logs is not None
        key = record.updates[0][0] if record.updates else record.origin
        self._logs[self._ring.shard_of(key)].append(record, seq=self._next_seq)
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
