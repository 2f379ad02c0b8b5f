"""Durable append-only commit log for live replicas.

A live replica appends every :class:`~repro.store.transaction.CommitRecord`
it applies -- its own commits and remote records alike, in application
order -- before acknowledging anything to a client or a peer.  After a
crash the server replays the log through
:meth:`~repro.store.replica.Replica.rebuild_from_log`, which restores
both object state and the version vector, so a SIGKILL'd process comes
back exactly where durability left it.

One replica keeps one log file (``{region}.commitlog``), whatever its
store's shard count: shards split the object maps and nothing else.
Each record is one frame of :mod:`repro.store.framedlog` around the
wire codec's compact JSON for ``{"record": ...}``, and replay follows
that module's one damage rule: a damaged final record is cut and
counted, damage with bytes after it raises :data:`CommitLogError`
unless ``salvage`` cuts it too.  Either way what survives is a prefix
of the application order, which is what recovery needs.  A body the
codec refuses is damage like any other; a decodable body that is not a
``CommitRecord`` raises wherever it sits.
"""

from __future__ import annotations

import os
from typing import Any

from repro.net import wire
from repro.store import framedlog
from repro.store.transaction import CommitRecord

#: Commit-log damage and misuse: the framed log's one error type.
CommitLogError = framedlog.FramedLogError


def _decode(body: bytes) -> CommitRecord:
    try:
        record = wire.load_frame(body)["record"]
    except (wire.WireError, KeyError) as exc:
        raise framedlog.Refused(f"undecodable record ({exc})") from exc
    if not isinstance(record, CommitRecord):
        raise CommitLogError(f"a log entry holds {type(record).__name__}, not a CommitRecord")
    return record


def replay(path: str | os.PathLike[str], salvage: bool = False) -> list[CommitRecord]:
    """All intact records, tolerating a damaged final record.

    The file is repaired in place as :func:`repro.store.framedlog.read`
    describes, ``salvage`` included.
    """
    return framedlog.read(path, _decode, salvage=salvage)[0]


class CommitLog:
    """One replica's durable log file.

    Every append is flushed before it returns; ``fsync=True``
    additionally calls :func:`os.fsync` per append.  The flush survives
    process death (SIGKILL) but not host death, which is the failure
    model the chaos harness exercises.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._log = framedlog.FramedLog(self.path, fsync=fsync)

    def replay(self, salvage: bool = False) -> list[CommitRecord]:
        """The records this log holds (see :func:`replay`)."""
        return replay(self.path, salvage=salvage)

    def open(self) -> None:
        """Open the append handle, creating the file (idempotent)."""
        self._log.open()

    def append(self, record: CommitRecord) -> None:
        self._log.append(wire.encode_body({"record": record}))
        self._log.sync()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


#: The name the benchmark ledger's tracing shims patch ``replay`` under
#: (``benchmarks/ledger/shims.py``); goes with the next benchmark change.
ShardedCommitLog = CommitLog
