"""Length-prefixed JSON framing and a tagged codec for store types.

Every frame on a live socket is ``4-byte big-endian length`` followed
by that many bytes of UTF-8 JSON.  Four bytes caps a frame at 4 GiB in
principle; :data:`MAX_FRAME` caps it far lower so a corrupt or
malicious length prefix cannot make a reader allocate unbounded memory.

JSON alone cannot carry the store's vocabulary -- tuples, sets,
frozensets, non-string dict keys, and the dataclasses that make up
commit records and CRDT payloads -- so values are wrapped in one-key
tag objects:

======================  =========================================
``{"t": [...]}``        tuple
``{"l": [...]}``        list
``{"s": [...]}``        set (sorted by canonical JSON for
                        deterministic bytes)
``{"fs": [...]}``       frozenset (same ordering)
``{"d": [[k, v], ...]}``  dict (keys may be any encodable value)
``{"c": name, "f": {...}}``  registered dataclass
``{"w": null}``         the pattern wildcard singleton
======================  =========================================

Primitives (``None``/bool/int/float/str) pass through untagged.  The
dataclass registry is built by scanning the CRDT payload modules plus
the replication-layer types, asserting class names are unique; decoding
rejects unknown tags and unregistered class names rather than guessing,
so a version-skewed or garbage frame fails loudly.

**Trace context** rides as an optional top-level ``"tc"`` string on any
message (a flow id such as ``op:7`` or ``rec:us-east:12``).  Because
messages are plain dicts the codec carries it untouched, receivers that
predate it ignore the extra key, and the chaos proxy -- which relays
raw bytes verbatim -- can still *read* it via :func:`peek_trace_context`
to annotate injected faults without rewriting the frame.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any

from repro.crdts.pattern import WILDCARD
from repro.errors import ReproError


class WireError(ReproError):
    """A frame or payload that cannot be encoded or decoded."""


MAX_FRAME = 32 * 1024 * 1024  # bytes of JSON per frame
_LEN = struct.Struct(">I")

# -- dataclass registry -------------------------------------------------------


def _build_registry() -> dict[str, type]:
    """Scan the modules whose dataclasses travel on the wire.

    CRDT payload modules are scanned wholesale (every ``@dataclass``
    defined there is a potential update payload); store/replication
    types are registered explicitly.  Imports are local so importing
    :mod:`repro.net.wire` from the store layer cannot cycle.
    """
    from repro.crdts import (
        awset,
        base,
        bcounter,
        clock,
        counter,
        lww,
        ormap,
        pattern,
        rwset,
    )
    from repro.store import antientropy, replication, transaction

    registry: dict[str, type] = {}

    def register(cls: type) -> None:
        name = cls.__name__
        if name in registry and registry[name] is not cls:
            raise WireError(f"duplicate wire class name {name}")
        registry[name] = cls

    for module in (awset, rwset, counter, bcounter, lww, ormap):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                register(obj)

    register(base.Dot)
    # IPA wildcard removes (``enrolled(*, t) = false``) ship a Pattern;
    # its WILDCARD positions travel as the ``w`` tag.
    register(pattern.Pattern)
    register(clock.VersionVector)
    register(transaction.CommitRecord)
    register(replication.ReplicationBatch)
    register(antientropy.SyncRequest)
    register(antientropy.SyncResponse)
    return registry


_REGISTRY: dict[str, type] | None = None


def _registry() -> dict[str, type]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


# -- value codec --------------------------------------------------------------


def encode(value: Any) -> Any:
    """Lower ``value`` to a JSON-compatible tagged structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode(item) for item in value]}
    if isinstance(value, list):
        return {"l": [encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {("fs" if isinstance(value, frozenset) else "s"): encoded}
    if isinstance(value, dict):
        return {"d": [[encode(k), encode(v)] for k, v in value.items()]}
    if value is WILDCARD:
        return {"w": None}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        registered = _registry().get(name)
        if registered is not type(value):
            raise WireError(f"unregistered wire class {name}")
        fields = {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"c": name, "f": fields}
    raise WireError(f"cannot encode {type(value).__name__} value {value!r}")


def decode(obj: Any) -> Any:
    """Inverse of :func:`encode`; rejects unknown tags loudly."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        if "t" in obj and len(obj) == 1:
            return tuple(decode(item) for item in obj["t"])
        if "l" in obj and len(obj) == 1:
            return [decode(item) for item in obj["l"]]
        if "s" in obj and len(obj) == 1:
            return {decode(item) for item in obj["s"]}
        if "fs" in obj and len(obj) == 1:
            return frozenset(decode(item) for item in obj["fs"])
        if "d" in obj and len(obj) == 1:
            return {decode(k): decode(v) for k, v in obj["d"]}
        if "c" in obj and "f" in obj and len(obj) == 2:
            cls = _registry().get(obj["c"])
            if cls is None:
                raise WireError(f"unknown wire class {obj['c']!r}")
            return cls(**{k: decode(v) for k, v in obj["f"].items()})
        if "w" in obj and len(obj) == 1:
            return WILDCARD
    raise WireError(f"cannot decode wire value {obj!r}")


# -- framing ------------------------------------------------------------------


def encode_body(message: dict[str, Any]) -> bytes:
    """One message -> frame body bytes, without the length prefix.

    The shared serialisation for everything that stores wire messages
    *off* a socket under its own framing: commit-log records and the
    hinted-handoff queue both wrap these bytes in length+CRC frames
    (:mod:`repro.net.commitlog`) instead of the socket length prefix.
    """
    body = json.dumps(encode(message), separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return body


def dump_frame(message: dict[str, Any]) -> bytes:
    """One message -> length-prefixed bytes ready for a socket."""
    body = encode_body(message)
    return _LEN.pack(len(body)) + body


def load_frame(body: bytes) -> dict[str, Any]:
    """Decode one frame body (without the length prefix)."""
    try:
        raw = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    message = decode(raw)
    if not isinstance(message, dict):
        raise WireError(f"frame is not a message dict: {message!r}")
    return message


async def read_frame(reader: Any) -> dict[str, Any] | None:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns None on clean EOF at a frame boundary; raises
    :class:`WireError` on torn frames or oversized lengths.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid length prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid frame") from exc
    return load_frame(body)


async def read_raw_frame(reader: Any) -> bytes | None:
    """Read one frame without decoding it (prefix included).

    The chaos proxy interposes per-*message* faults, so it must find
    frame boundaries, but it never needs the payload -- forwarding the
    original bytes verbatim also guarantees the proxy cannot perturb
    what it relays.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid length prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid frame") from exc
    return prefix + body


async def write_frame(writer: Any, message: dict[str, Any]) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain."""
    writer.write(dump_frame(message))
    await writer.drain()


def peek_trace_context(raw: bytes) -> tuple[str | None, str | None]:
    """``(type, tc)`` of a raw frame, without the tagged decode.

    For observers that hold frame *bytes* (the chaos proxy): a message
    dict travels as ``{"d": [[key, value], ...]}`` and both values are
    untagged strings, so a plain JSON parse suffices -- no dataclass
    registry, and no risk of perturbing what is relayed.  Returns
    ``None`` for whatever cannot be read; peeking is best-effort
    annotation, never validation.
    """
    try:
        blob = json.loads(raw[_LEN.size :].decode("utf-8"))
        found = {
            key: value
            for key, value in blob["d"]
            if key in ("type", "tc") and isinstance(value, str)
        }
    except (UnicodeDecodeError, ValueError, TypeError, KeyError):
        return None, None
    return found.get("type"), found.get("tc")
