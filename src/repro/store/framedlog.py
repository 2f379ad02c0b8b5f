"""The framed append-only log under every durable file in the repo.

The commit log (:mod:`repro.net.commitlog`), the file engine's object
log (:class:`repro.store.engine.FileEngine`, which also backs the
conflict ledger) and the hint queue (:class:`repro.net.health.HintQueue`)
all store one record after another as::

    4-byte big-endian body length | 4-byte big-endian CRC32(body) | body

The CRC covers the body; the length prefix is checked by the CRC of the
bytes it delimits.  What a body holds is the caller's business.

**The one damage rule.**  Appends are sequential, so a crash mid-append
damages at most the final frame.  :func:`read` cuts a damaged *final*
frame -- torn header, torn body, CRC mismatch, or a body the caller's
decoder refuses (:class:`Refused`) -- in place with a warning and
counts it in ``net.commitlog.tail_skipped``, so the next append cannot
interleave with the debris.  The same damage with bytes after it is not
a crash signature but mangled acknowledged history, and raises
:class:`FramedLogError`, a :class:`~repro.errors.StoreError`.

**The salvage contract.**  ``salvage=True`` cuts mid-log damage too,
keeping the intact prefix, and counts it in ``net.commitlog.salvaged``
with a loud warning.  Only callers that regenerate what they lose may
pass it: live server recovery (the schedule gate re-executes own
commits, anti-entropy re-fetches remote records) and the hint queue
(anti-entropy covers lost hints).  The object log never salvages; its
mid-log damage is the scrubber's, found through the non-destructive
:func:`scan`.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import Any, Callable, Iterable, Iterator

from repro.errors import StoreError
from repro.obs import REGISTRY

_LOG = logging.getLogger(__name__)
HEADER = struct.Struct(">II")

#: The :func:`scan` reason of a frame whose stored CRC is one bit off
#: its body's: rot in the header field, the body itself intact.
CRC_FIELD_FLIP = "CRC field bit flip"

_tail_skipped = REGISTRY.counter("net.commitlog.tail_skipped")
_salvaged = REGISTRY.counter("net.commitlog.salvaged")


class FramedLogError(StoreError):
    """Unrecoverable framed-log damage (not a tail crash artifact)."""


class Refused(Exception):
    """A :func:`read` decoder rejects a CRC-valid body; the message names why."""


def frame(body: bytes) -> bytes:
    """One framed record: 4-byte length | 4-byte CRC32(body) | body."""
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def _contents(path: str | os.PathLike[str]) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _walk(data: bytes) -> Iterator[tuple[int, int, bytes | None, str | None]]:
    """The one walk: ``(offset, end, body, damage)`` per frame.

    ``damage`` is None for an intact frame.  A CRC mismatch keeps its
    body and the walk continues at the next frame boundary; when the
    stored CRC is a single bit off the body's, the damage is
    :data:`CRC_FIELD_FLIP` (a body error that lands one bit away from
    its own CRC is a 2**-27 chance), otherwise the body is corrupt;
    a torn header or body (which a flipped length prefix is
    indistinguishable from) has no body, runs to the end of ``data``
    and ends the walk.
    """
    offset = 0
    size = len(data)
    while offset < size:
        start = offset + HEADER.size
        if start > size:
            yield offset, size, None, "truncated header"
            return
        length, crc = HEADER.unpack_from(data, offset)
        end = start + length
        if end > size:
            yield offset, size, None, "truncated body"
            return
        body = data[start:end]
        off_by = zlib.crc32(body) ^ crc
        if off_by and off_by.bit_count() == 1:
            damage = CRC_FIELD_FLIP
        else:
            damage = "CRC mismatch" if off_by else None
        yield offset, end, body, damage
        offset = end


def read(
    path: str | os.PathLike[str],
    decode: Callable[[bytes], Any],
    salvage: bool = False,
) -> tuple[list[Any], int]:
    """``decode`` of every intact frame, and how many frames were cut.

    Applies the damage rule (module docstring) at the first damaged
    frame: a final one is cut, mid-log damage raises
    :class:`FramedLogError` unless ``salvage`` cuts it too.  The count
    covers every frame from the cut on, the damaged one included, so a
    caller can account for each record it loses.  A missing file reads
    as empty.
    """
    data = _contents(path)
    values: list[Any] = []
    walk = _walk(data)
    for offset, end, body, damage in walk:
        if damage is None:
            try:
                values.append(decode(body))  # type: ignore[arg-type]
                continue
            except Refused as exc:
                damage = str(exc)
        following = len(data) - end
        if following and not salvage:
            raise FramedLogError(
                f"{path}: {damage} at offset {offset} with "
                f"{following} bytes following -- not a tail artifact"
            )
        _cut(path, offset, damage, mid_log=bool(following))
        return values, 1 + sum(1 for _ in walk)
    return values, 0


def _cut(path: str | os.PathLike[str], offset: int, why: str, mid_log: bool) -> None:
    """Truncate at ``offset``; a mid-log cut warns loudly that history was lost."""
    if mid_log:
        _salvaged.inc()
        _LOG.warning(
            "framed log %s: SALVAGE -- truncating damaged history from offset %d (%s); "
            "the suffix will be regenerated via schedule re-execution and anti-entropy",
            path,
            offset,
            why,
        )
    else:
        _tail_skipped.inc()
        _LOG.warning(
            "framed log %s: skipping damaged final record at offset %d (%s)", path, offset, why
        )
    with open(path, "r+b") as fh:
        fh.truncate(offset)


def scan(
    path: str | os.PathLike[str],
) -> tuple[list[tuple[int, int, bytes]], list[tuple[int, bytes | None, str]]]:
    """Non-destructive damage survey: ``(good_frames, damage)``.

    Unlike :func:`read` this never raises and never rewrites the file
    -- it is the scrubber's evidence-gathering pass.  Good frames are
    ``(offset, end, body)``; damage entries are ``(offset,
    body_or_None, reason)``, a CRC-mismatched body kept for attribution
    (see :func:`_walk` for where the survey stops).
    """
    frames: list[tuple[int, int, bytes]] = []
    damage: list[tuple[int, bytes | None, str]] = []
    for offset, end, body, reason in _walk(_contents(path)):
        if reason is None:
            frames.append((offset, end, body))  # type: ignore[arg-type]
        else:
            damage.append((offset, body, reason))
    return frames, damage


class FramedLog:
    """The append handle on one framed file.

    :meth:`append` stages a frame and :meth:`sync` makes staged frames
    durable: flushed, which survives process death (SIGKILL), and with
    ``fsync=True`` also :func:`os.fsync`'d, which survives host death.
    :meth:`rewrite` replaces the whole file atomically (temp file +
    :func:`os.replace`); rewriting nothing empties it out.  The file
    handle opens on first use and reopens after a rewrite.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self._fh: Any = None

    def open(self) -> Any:
        """The append handle, creating the file if needed (idempotent)."""
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, body: bytes) -> None:
        """Stage one frame; durable after the next :meth:`sync`."""
        (self._fh or self.open()).write(frame(body))

    def sync(self) -> None:
        fh = self._fh
        if fh is not None:
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())

    def rewrite(self, bodies: Iterable[bytes]) -> None:
        """Replace the file with exactly ``bodies``' frames, atomically.

        With ``fsync=True`` the temp file is synced before the replace
        and the parent directory after it: the rename lives in the
        directory, and until that is synced a host crash can revert it.
        """
        self.close()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            for body in bodies:
                fh.write(frame(body))
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        if self._fsync:
            directory = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def tear(self, body: bytes) -> None:
        """Fault injection: append half of ``body``'s frame, as a crash mid-append would."""
        framed = frame(body)
        self.open().write(framed[: max(1, len(framed) // 2)])
        self.sync()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def flip_bit(path: str | os.PathLike[str], index: int | None = None, seed: int = 0) -> int | None:
    """Fault injection: flip one seeded bit inside frame ``index``'s body.

    ``index`` counts like a list index, so ``-2`` is a non-final frame
    of any file with two or more.  None picks the middle frame of a
    file holding at least two (the chaos harness's mid-log rot).
    Returns the absolute byte offset flipped, or None when the file has
    no such frame.
    """
    frames, _damage = scan(path)
    if index is None:
        if len(frames) < 2:
            return None
        index = len(frames) // 2
    elif not -len(frames) <= index < len(frames):
        return None
    _offset, end, body = frames[index]
    target = end - len(body) + seed % len(body)
    with open(path, "r+b") as fh:
        fh.seek(target)
        byte = fh.read(1)[0]
        fh.seek(target)
        fh.write(bytes([byte ^ (1 << (seed % 8))]))
    return target
