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
the replication-layer types, asserting class names are unique.

**Codec tables.**  Both directions dispatch through tables rather than
an ``isinstance`` ladder.  :func:`encode_body` writes the JSON text in
one pass: :data:`_EMITTERS` maps each exact ``type(value)`` to a
function returning its compact text -- strings through ``json``'s own
``encode_basestring_ascii``, numbers and literals exactly as ``json``
renders them, containers with their tags, and each registered
dataclass through one ``%`` template whose ``{"c":…,"f":{`` head and
field keys were written when the registry was built.  Sets keep the
canonical order (each element keyed by the ``json.dumps(…,
sort_keys=True)`` of its lowering).  A type the table does not hold
exactly -- a ``dict`` subclass, a ``NamedTuple``, an ``IntEnum``, a
subclass of a registered class -- falls back to :func:`encode`, the
lowering to tagged dicts, rendered by ``json``.  That lowering has its
own table: each container type copies its primitive elements without
a recursive call, each registered dataclass has a lowering closed over
its field-name tuple, and any other encodable type is resolved once in
the historical ``isinstance`` order and cached.  Either way
``dataclasses.fields`` and the registry check run once per class (when
the registry is built, on first use), not once per value.  Decoding
walks the plain ``json.loads`` result once, dispatching each one-key
object on its tag and each ``"c"``/``"f"`` object to the registered
class's constructor; every decoder checks its own payload's shape as
it goes.  The bytes are the ones the ladder produced: field order is
the dataclass's, sets sort by canonical JSON.

**Strictness.**  Every malformed input raises :class:`WireError`, never
a stray ``TypeError``/``ValueError`` from deep inside a decode: an
unknown tag or class name, a payload that is not a JSON array (or, for
``"f"``, not an object), a bare array where a value belongs, a ``"d"``
entry that is not a ``[key, value]`` pair, an unhashable set element or
key, fields the class does not take, a wildcard tag carrying a value.
Commit-log replay, hint loading and the peer listener catch only
:class:`WireError`, so this is what lets a CRC-valid but mangled body
count as damage instead of killing the process.  An unregistered
dataclass -- or a subclass of a registered one -- is refused on encode.

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
import operator
import struct
from typing import Any, Callable

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

    for module in (awset, rwset, counter, bcounter, lww):
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
    """The registry, built on first use -- and with it each class's
    lowering entered into :data:`_ENCODERS` and its emitter into
    :data:`_EMITTERS`, its field names read once."""
    global _REGISTRY
    if _REGISTRY is None:
        registry = _build_registry()
        for name, cls in registry.items():
            names = tuple(field.name for field in dataclasses.fields(cls))
            _ENCODERS[cls] = _class_encoder(name, names)
            _EMITTERS[cls] = _class_emitter(name, names)
        _REGISTRY = registry
    return _REGISTRY


# -- encode table -------------------------------------------------------------

#: JSON's own scalars: they pass through both directions untouched.
_SCALARS = frozenset({type(None), bool, int, float, str})


def encode(value: Any) -> Any:
    """Lower ``value`` to a JSON-compatible tagged structure."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    lower = _ENCODERS.get(kind)
    if lower is None:
        lower = _resolve(kind, value)
    return lower(value)


def _encode_items(value) -> list:
    return [item if type(item) in _SCALARS else encode(item) for item in value]


def _encode_tuple(value: tuple) -> dict:
    return {"t": _encode_items(value)}


def _encode_list(value: list) -> dict:
    return {"l": _encode_items(value)}


def _canonical(item: Any) -> str:
    return json.dumps(item, sort_keys=True)


def _encode_set(value: set | frozenset) -> dict:
    encoded = _encode_items(value)
    encoded.sort(key=_canonical)
    tag = "fs" if isinstance(value, frozenset) else "s"
    return {tag: encoded}


def _encode_dict(value: dict) -> dict:
    scalars = _SCALARS
    pairs = [
        [k if type(k) in scalars else encode(k), v if type(v) in scalars else encode(v)]
        for k, v in value.items()
    ]
    return {"d": pairs}


def _encode_wildcard(_value: Any) -> dict:
    return {"w": None}


def _pass_through(value: Any) -> Any:
    return value


def _class_encoder(name: str, names: tuple[str, ...]) -> Callable[[Any], dict]:
    """The lowering of registered class ``name`` with fields ``names``."""

    def lower(value: Any) -> dict:
        fields = {}
        for field in names:
            item = getattr(value, field)
            fields[field] = item if type(item) in _SCALARS else encode(item)
        return {"c": name, "f": fields}

    return lower


#: ``type(value)`` -> its lowering.  Containers are seeded here; the
#: registered dataclasses join when the registry is built (:func:`_registry`),
#: and any other encodable type the first time it is met (:func:`_resolve`).
_ENCODERS: dict[type, Callable[[Any], Any]] = {
    tuple: _encode_tuple,
    list: _encode_list,
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
    type(WILDCARD): _encode_wildcard,
}


def _resolve(kind: type, value: Any) -> Callable[[Any], Any]:
    """The lowering of a type the encode table does not hold yet.

    Builds the registry if this is the codec's first use; otherwise
    resolves ``kind`` in the order the codec has always used and caches
    the answer.  Unregistered dataclasses -- a registered class's
    subclass included -- and anything else raise, uncached.
    """
    _registry()
    lower = _ENCODERS.get(kind)
    if lower is not None:
        return lower
    if issubclass(kind, (bool, int, float, str)):
        lower = _pass_through
    elif issubclass(kind, tuple):
        lower = _encode_tuple
    elif issubclass(kind, list):
        lower = _encode_list
    elif issubclass(kind, (set, frozenset)):
        lower = _encode_set
    elif issubclass(kind, dict):
        lower = _encode_dict
    elif dataclasses.is_dataclass(kind):
        raise WireError(f"unregistered wire class {kind.__name__}")
    else:
        raise WireError(f"cannot encode {kind.__name__} value {value!r}")
    _ENCODERS[kind] = lower
    return lower


# -- decode table -------------------------------------------------------------


def decode(obj: Any) -> Any:
    """Inverse of :func:`encode`; every malformed input raises WireError."""
    if type(obj) in _SCALARS:
        return obj
    if type(obj) is dict:
        if len(obj) == 1:
            for tag, payload in obj.items():
                lift = _DECODERS.get(tag)
                if lift is not None:
                    return lift(payload)
        elif len(obj) == 2 and "c" in obj and "f" in obj:
            return _decode_class(obj["c"], obj["f"])
    raise WireError(f"cannot decode wire value {obj!r}")


def _decode_items(tag: str, payload: Any) -> list:
    if type(payload) is not list:
        raise WireError(f"{tag!r} payload is not an array: {payload!r}")
    return [item if type(item) in _SCALARS else decode(item) for item in payload]


def _decode_tuple(payload: Any) -> tuple:
    return tuple(_decode_items("t", payload))


def _decode_list(payload: Any) -> list:
    return _decode_items("l", payload)


def _decode_set(payload: Any) -> set:
    items = _decode_items("s", payload)
    try:
        return set(items)
    except TypeError as exc:
        raise WireError(f"unhashable set element: {exc}") from exc


def _decode_frozenset(payload: Any) -> frozenset:
    items = _decode_items("fs", payload)
    try:
        return frozenset(items)
    except TypeError as exc:
        raise WireError(f"unhashable frozenset element: {exc}") from exc


def _decode_dict(payload: Any) -> dict:
    if type(payload) is not list:
        raise WireError(f"'d' payload is not an array: {payload!r}")
    out = {}
    for pair in payload:
        if type(pair) is not list or len(pair) != 2:
            raise WireError(f"'d' entry is not a [key, value] pair: {pair!r}")
        key, item = pair
        if type(key) not in _SCALARS:
            key = decode(key)
        if type(item) not in _SCALARS:
            item = decode(item)
        try:
            out[key] = item
        except TypeError as exc:
            raise WireError(f"unhashable dict key: {exc}") from exc
    return out


def _decode_wildcard(payload: Any) -> Any:
    if payload is not None:
        raise WireError(f"'w' tag carries a value: {payload!r}")
    return WILDCARD


def _decode_class(name: Any, fields: Any) -> Any:
    """Registered class ``name`` built from its encoded ``fields``."""
    cls = _registry().get(name) if type(name) is str else None
    if cls is None:
        raise WireError(f"unknown wire class {name!r}")
    if type(fields) is not dict:
        raise WireError(f"{name} fields are not an object: {fields!r}")
    kwargs = {
        field: item if type(item) in _SCALARS else decode(item)
        for field, item in fields.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"cannot build {name} from {sorted(fields)}: {exc}") from exc


#: tag -> the decoder of its payload (``"c"``/``"f"`` is the two-key class
#: object, :func:`_decode_class`).
_DECODERS: dict[str, Callable[[Any], Any]] = {
    "t": _decode_tuple,
    "l": _decode_list,
    "s": _decode_set,
    "fs": _decode_frozenset,
    "d": _decode_dict,
    "w": _decode_wildcard,
}


# -- emit table ---------------------------------------------------------------

_JSON = json.JSONEncoder(separators=(",", ":"))
_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _text(value: Any) -> str:
    """``value``'s compact JSON text, equal to ``_JSON.encode(encode(value))``."""
    return _EMITTERS.get(type(value), _lowered_text)(value)


def _lowered_text(value: Any) -> str:
    # Not an exact table type: lower it (which refuses what the codec
    # refuses) and let ``json`` render the result.
    return _JSON.encode(encode(value))


def _float_text(value: float) -> str:
    # ``json``'s own rendering, non-finite values included.
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _emit_tuple(value: tuple) -> str:
    get = _EMITTERS.get
    return '{"t":[' + ",".join([get(type(item), _lowered_text)(item) for item in value]) + "]}"


def _emit_list(value: list) -> str:
    get = _EMITTERS.get
    return '{"l":[' + ",".join([get(type(item), _lowered_text)(item) for item in value]) + "]}"


def _emit_set(value: set | frozenset) -> str:
    keyed = []
    for item in value:
        text = _text(item)
        # The canonical sort key: a scalar's text is already its
        # ``json.dumps``; anything else is keyed as its lowering was.
        keyed.append((text if type(item) in _SCALARS else _canonical(encode(item)), text))
    keyed.sort(key=_first)
    tag = '{"fs":[' if isinstance(value, frozenset) else '{"s":['
    return tag + ",".join([text for _key, text in keyed]) + "]}"


_first = operator.itemgetter(0)


def _emit_dict(value: dict) -> str:
    get = _EMITTERS.get
    return '{"d":[' + ",".join([
        "[" + get(type(k), _lowered_text)(k) + "," + get(type(v), _lowered_text)(v) + "]"
        for k, v in value.items()
    ]) + "]}"


def _class_emitter(name: str, names: tuple[str, ...]) -> Callable[[Any], str]:
    """The emitter of registered class ``name`` with fields ``names``:
    one ``%`` template holding the tag, the name and every field key."""
    template = '{"c":%s,"f":{%s}}' % (
        _quote(name),
        ",".join(_quote(field) + ":%s" for field in names),
    )
    get = _EMITTERS.get
    if not names:
        return lambda _value: template
    if len(names) == 1:
        (field,) = names

        def emit_one(value: Any) -> str:
            item = getattr(value, field)
            return template % get(type(item), _lowered_text)(item)

        return emit_one
    fetch = operator.attrgetter(*names)

    def emit(value: Any) -> str:
        return template % tuple([get(type(item), _lowered_text)(item) for item in fetch(value)])

    return emit


#: ``type(value)`` -> its compact JSON text, for exact types only.  The
#: registered dataclasses join when the registry is built
#: (:func:`_registry`); any other type is lowered (:func:`_lowered_text`).
_EMITTERS: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
    tuple: _emit_tuple,
    list: _emit_list,
    set: _emit_set,
    frozenset: _emit_set,
    dict: _emit_dict,
    type(WILDCARD): lambda _value: '{"w":null}',
}


# -- framing ------------------------------------------------------------------


def encode_body(message: dict[str, Any]) -> bytes:
    """One message -> frame body bytes, without the length prefix.

    The shared serialisation for everything that stores wire messages
    *off* a socket under its own framing: commit-log records and the
    hinted-handoff queue both wrap these bytes in length+CRC frames
    (:mod:`repro.net.commitlog`) instead of the socket length prefix.
    """
    if _REGISTRY is None:
        _registry()
    body = _text(message).encode("utf-8")
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
        message = decode(json.loads(body.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    except RecursionError as exc:
        raise WireError("frame nests too deeply") from exc
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
