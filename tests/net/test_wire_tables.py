"""The wire codec's tables against the isinstance ladders they replace.

Encoding dispatches on ``type(value)`` through per-type lowerings, and
decoding, a walk over the plain ``json.loads`` result, on the tag; each
decoder checks its own payload's shape.  The contract has three parts:

- **identity** -- on every frame and commit-log body of a small live
  replay, on the commit records of simulated trials of all four apps
  under Causal and IPA, on a catalogue of every registered class, and
  on generated values, the bytes and the decoded values (types
  included) equal those of the reference ladders kept below; and on
  the edges of ``json``'s rendering (non-finite and extreme floats,
  non-ASCII and lone-surrogate text, ``bool`` and an ``IntEnum`` as
  values and keys, empty containers, registered classes inside sets)
  and of the codec (a frame over :data:`~repro.net.wire.MAX_FRAME`,
  unregistered classes and subclasses), the bytes or the refusal;
- **negative differential** -- on mutations of real bodies, wherever
  the reference raises anything the tables raise :class:`WireError`,
  and wherever it returns, the tables return an equal value or raise
  :class:`WireError`;
- **operation counts** -- after the first frame the codec never calls
  ``dataclasses.fields``; a broadcast commit is encoded once however
  many peers it goes to; a ring hashes each distinct key once.

Hand-made mutants this file must kill:

- a class's fields lowered in sorted order instead of declared order;
- the emitter writing non-ASCII text raw instead of ``\\u`` escapes;
- the emitter dropping the ``,`` between a class's fields;
- the emitter writing set elements in iteration order, unsorted;
- a subclass of a registered class accepted by the encoder;
- a bare JSON array accepted where a value belongs (``decode`` passing
  a list through as itself);
- broadcast bytes reused for a different message;
- one routing memo shared by rings with different shard counts.
"""

import asyncio
import bisect
import collections
import copy
import dataclasses
import enum
import json
import typing
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.check.explorer import build_trial
from repro.check.harness import run_trial
from repro.crdts import AWSet
from repro.crdts.awset import AWAdd, AWRemove
from repro.crdts.base import Dot
from repro.crdts.bcounter import BCDecrement, BCIncrement, BCTransfer
from repro.crdts.clock import VersionVector
from repro.crdts.counter import Correction, CounterDelta
from repro.crdts.lww import LWWWrite
from repro.crdts.pattern import WILDCARD, Pattern
from repro.crdts.rwset import RWAdd, RWRemove, RWRemoveWhere
from repro.net import commitlog, wire
from repro.net import server as net_server
from repro.net.harness import run_live
from repro.net.oracle import record_trial
from repro.store import engine, framedlog
from repro.store.antientropy import SyncRequest, SyncResponse
from repro.store.engine import HashRing, ShardedStore
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica
from repro.store.replication import ReplicationBatch

# -- the reference: the isinstance ladders the tables replace -----------------


def reference_encode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [reference_encode(item) for item in value]}
    if isinstance(value, list):
        return {"l": [reference_encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [reference_encode(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {("fs" if isinstance(value, frozenset) else "s"): encoded}
    if isinstance(value, dict):
        return {"d": [[reference_encode(k), reference_encode(v)] for k, v in value.items()]}
    if value is WILDCARD:
        return {"w": None}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if wire._registry().get(name) is not type(value):
            raise wire.WireError(f"unregistered wire class {name}")
        fields = dataclasses.fields(value)
        return {"c": name, "f": {f.name: reference_encode(getattr(value, f.name)) for f in fields}}
    raise wire.WireError(f"cannot encode {type(value).__name__} value {value!r}")


def reference_decode(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        if "t" in obj and len(obj) == 1:
            return tuple(reference_decode(item) for item in obj["t"])
        if "l" in obj and len(obj) == 1:
            return [reference_decode(item) for item in obj["l"]]
        if "s" in obj and len(obj) == 1:
            return {reference_decode(item) for item in obj["s"]}
        if "fs" in obj and len(obj) == 1:
            return frozenset(reference_decode(item) for item in obj["fs"])
        if "d" in obj and len(obj) == 1:
            return {reference_decode(k): reference_decode(v) for k, v in obj["d"]}
        if "c" in obj and "f" in obj and len(obj) == 2:
            cls = wire._registry().get(obj["c"])
            if cls is None:
                raise wire.WireError(f"unknown wire class {obj['c']!r}")
            return cls(**{k: reference_decode(v) for k, v in obj["f"].items()})
        if "w" in obj and len(obj) == 1:
            return WILDCARD
    raise wire.WireError(f"cannot decode wire value {obj!r}")


def reference_encode_body(message):
    return json.dumps(reference_encode(message), separators=(",", ":")).encode("utf-8")


def reference_load_frame(body):
    message = reference_decode(json.loads(body.decode("utf-8")))
    if not isinstance(message, dict):
        raise wire.WireError(f"frame is not a message dict: {message!r}")
    return message


# -- helpers ------------------------------------------------------------------


def typed(value):
    """``value`` with every type spelled out: equal means same types too."""
    kind = type(value)
    if kind in (tuple, list):
        return (kind.__name__, [typed(item) for item in value])
    if kind in (set, frozenset):
        return (kind.__name__, sorted(repr(typed(item)) for item in value))
    if kind is dict:
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (kind.__name__, [typed(getattr(value, f.name)) for f in fields])
    return (kind.__name__, value)


def assert_identical(message):
    """Bytes, and the value read back, equal the reference's."""
    body = wire.encode_body(message)
    assert body == reference_encode_body(message)
    assert typed(wire.load_frame(body)) == typed(reference_load_frame(body))


APPS = ("tournament", "ticket", "tpcw", "twitter")
CONFIGS = ("Causal", "IPA")
_TRIAL_RECORDS: dict = {}


def trial_records(app, config):
    """Every commit record a simulated trial of ``app`` x ``config`` made."""
    key = (app, config)
    if key not in _TRIAL_RECORDS:
        records = []
        commit = Replica.commit

        def spy(self, *args, **kwargs):
            record = commit(self, *args, **kwargs)
            if record is not None:
                records.append(record)
            return record

        Replica.commit = spy
        try:
            run_trial(build_trial(app, config, 5, 0, n_ops=40))
        finally:
            Replica.commit = commit
        _TRIAL_RECORDS[key] = records
    return _TRIAL_RECORDS[key]


def catalogue():
    """A value of every registered class the four apps never ship."""
    record = trial_records("twitter", "IPA")[-1]
    dot = Dot("us-east", 3)
    vv = VersionVector({"us-east": 3, "eu-west": 1})
    return [
        LWWWrite(value=("x", 1), stamp=4),
        LWWWrite(value=None, stamp=1),
        LWWWrite(frozenset({1, 2}), 7),
        AWAdd(("k", 1), touch=True),
        RWRemoveWhere(Pattern.of("*", "t1")),
        CounterDelta(-2),
        BCIncrement("us-east", 5),
        BCDecrement("eu-west", 2),
        BCTransfer("us-east", "eu-west", 1),
        Correction(epoch=2, amount=-3),
        AWRemove(dots=(("e", (dot,)),)),
        RWAdd(element=("p", "t"), touch=False),
        RWRemove(element="e"),
        Pattern.exact(("a", "b")),
        vv,
        ReplicationBatch("us-east", (record,)),
        SyncRequest("us-east", "eu-west", 9, vv),
        SyncResponse("eu-west", "us-east", 9, (record,), vv, None),
    ]


def real_bodies():
    bodies = [
        wire.encode_body({"record": record})
        for app in APPS
        for config in CONFIGS
        for record in trial_records(app, config)[:12]
    ]
    bodies += [wire.encode_body({"v": value}) for value in catalogue()]
    return bodies


# -- identity -----------------------------------------------------------------


@pytest.mark.timeout(60)
def test_replay_frames_and_log_bodies_match_the_reference(tmp_path, monkeypatch):
    """Every body a live replay encoded or read -- socket frames, hints,
    commit-log records -- through the tables and through the reference."""
    encoded, loaded = [], []
    encode_body, load_frame = wire.encode_body, wire.load_frame

    def spy_encode(message):
        body = encode_body(message)
        encoded.append((message, body))
        return body

    def spy_load(body):
        message = load_frame(body)
        loaded.append((body, typed(message)))  # before the server mutates it
        return message

    monkeypatch.setattr(wire, "encode_body", spy_encode)
    monkeypatch.setattr(wire, "load_frame", spy_load)
    _, deployment = record_trial(build_trial("twitter", "IPA", 11, 3, n_ops=40))
    report = asyncio.run(run_live(deployment, str(tmp_path), time_scale=0.02, deadline_s=60.0))
    monkeypatch.undo()
    assert report.ok, report.reason
    kinds = {message.get("type") for message, _body in encoded}
    assert {"records", "sync_req", "sync_resp", "heartbeat", "op"} <= kinds
    for message, body in encoded:
        assert body == reference_encode_body(message)
    for body, read in loaded:
        assert read == typed(reference_load_frame(body))
    log_bodies = [
        body
        for path in (tmp_path / "data").glob("*.commitlog")
        for _offset, _end, body in framedlog.scan(path)[0]
    ]
    assert log_bodies
    for body in log_bodies:
        message = wire.load_frame(body)
        assert typed(message) == typed(reference_load_frame(body))
        assert wire.encode_body(message) == body


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
def test_simulated_commit_records_match_the_reference(app, config):
    records = trial_records(app, config)
    assert records
    for index, record in enumerate(records):
        assert_identical({"record": record, "seq": index})
    assert_identical({"type": "records", "source": "us-east", "records": tuple(records)})


def test_catalogue_and_trials_cover_every_registered_class():
    shipped = set()

    def classes(obj):
        if isinstance(obj, dict):
            if "c" in obj:
                shipped.add(obj["c"])
            for value in obj.values():
                classes(value)
        elif isinstance(obj, list):
            for value in obj:
                classes(value)

    for value in catalogue():
        assert_identical({"v": value})
        classes(wire.encode(value))
    for app in APPS:
        for config in CONFIGS:
            classes(wire.encode(trial_records(app, config)))
    assert shipped == set(wire._registry())


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
HASHABLES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=8,
)
VALUES = st.recursive(
    HASHABLES,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.sets(HASHABLES, max_size=3)
        | st.dictionaries(HASHABLES, inner, max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(value=VALUES)
def test_generated_values_match_the_reference(value):
    assert_identical({"v": value})
    expected = reference_decode(reference_encode(value))
    assert typed(wire.decode(wire.encode(value))) == typed(expected)


class Colour(enum.IntEnum):
    RED = 1


class Point(typing.NamedTuple):
    x: int
    y: int


@pytest.mark.parametrize(
    "value",
    [
        collections.OrderedDict([(2, "b"), ("a", 1)]),
        collections.defaultdict(list, {"k": [1]}),
        Point(1, 2),
        Colour.RED,
        {"nested": [Point(3, 4), collections.OrderedDict(x=Colour.RED)]},
    ],
)
def test_a_table_miss_resolves_like_the_reference_and_is_cached(value):
    assert wire.encode(value) == reference_encode(value)
    assert type(value) in wire._ENCODERS


def test_an_unregistered_dataclass_is_refused_every_time():
    @dataclasses.dataclass
    class Rogue:
        x: int

    for _ in range(2):
        with pytest.raises(wire.WireError, match="unregistered wire class Rogue"):
            wire.encode({"v": Rogue(1)})
    assert Rogue not in wire._ENCODERS


@pytest.mark.parametrize("name", ["SubDot", "Dot"])
def test_a_subclass_of_a_registered_class_is_refused(name):
    wire.encode(Dot("a", 1))  # the tables hold Dot itself
    subclass = type(name, (Dot,), {"__slots__": ()})
    with pytest.raises(wire.WireError, match=f"unregistered wire class {name}"):
        wire.encode(subclass("a", 1))
    with pytest.raises(wire.WireError, match="unregistered"):
        reference_encode(subclass("a", 1))


def test_values_that_are_no_wire_type_are_refused():
    for value in (object(), Dot, b"bytes"):
        with pytest.raises(wire.WireError, match="cannot encode"):
            wire.encode(value)


#: Values at the edges of what ``json`` renders, each encoded as a value
#: and, where hashable, as a dict key.
EDGES = [
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(float("-inf"), id="-inf"),
    pytest.param(-0.0, id="-0.0"),
    pytest.param(1e16, id="1e16"),
    pytest.param(5e-324, id="5e-324"),
    pytest.param("na\u00efve \u2603 \U0001d11e", id="non-ascii"),
    pytest.param("\ud800", id="lone-high-surrogate"),
    pytest.param("a\udfffb", id="lone-low-surrogate"),
    pytest.param(True, id="true"),
    pytest.param(False, id="false"),
    pytest.param(Colour.RED, id="intenum"),
    pytest.param((), id="empty-tuple"),
    pytest.param([], id="empty-list"),
    pytest.param({}, id="empty-dict"),
    pytest.param(set(), id="empty-set"),
    pytest.param(frozenset(), id="empty-frozenset"),
    pytest.param({Dot("b", 2), Dot("a", 10), Dot("a", 9)}, id="set-of-classes"),
    pytest.param(
        frozenset({Dot("x", 1), Pattern.of("*", "t"), ("t", 1), 2, "s"}),
        id="frozenset-of-mixed",
    ),
    pytest.param(
        {(Dot("a", 1), "k"), ("\u00e9", -0.0), (True, Colour.RED)},
        id="set-of-tuples",
    ),
]


@pytest.mark.parametrize("value", EDGES)
def test_edge_values_encode_like_the_reference(value):
    messages = [{"v": value}, {"v": [value, (value,)]}]
    try:
        messages.append({value: value, "k": {value: 1}})
    except TypeError:
        pass  # unhashable: a value only
    for message in messages:
        assert wire.encode_body(message) == reference_encode_body(message)


def test_a_frame_over_max_frame_is_refused(monkeypatch):
    message = {"v": "\u00e9" * 40}
    size = len(reference_encode_body(message))
    monkeypatch.setattr(wire, "MAX_FRAME", size)
    assert wire.encode_body(message) == reference_encode_body(message)
    monkeypatch.setattr(wire, "MAX_FRAME", size - 1)
    with pytest.raises(wire.WireError, match=f"frame of {size} bytes exceeds"):
        wire.encode_body(message)


def test_a_frame_holding_an_unregistered_class_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Rogue:
        x: int

    subdot = type("SubDot", (Dot,), {"__slots__": ()})
    for value, name in ((Rogue(1), "Rogue"), (subdot("a", 1), "SubDot")):
        for message in (
            {"v": value},
            {"v": (1, [value])},
            {"v": {value, 2}},
            {value: 1},
        ):
            with pytest.raises(wire.WireError, match=f"unregistered wire class {name}"):
                wire.encode_body(message)
            with pytest.raises(wire.WireError, match="unregistered"):
                reference_encode_body(message)


# -- negative differential ----------------------------------------------------

TAGS = ("t", "l", "s", "fs", "d")
RAISED = object()


def slots(obj, found=None):
    """Every ``(container, key)`` position of a raw JSON value."""
    found = [] if found is None else found
    if isinstance(obj, dict):
        for key, value in obj.items():
            found.append((obj, key))
            slots(value, found)
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            found.append((obj, index))
            slots(value, found)
    return found


def mutate(value, kind, data):
    """``value`` mangled by ``kind``; None where ``kind`` does not apply."""
    tag = next(iter(value)) if isinstance(value, dict) and len(value) == 1 else None
    is_class = isinstance(value, dict) and set(value) == {"c", "f"}

    def junk():
        return data.draw(st.sampled_from([5, "ab", None, [1], {"l": [1]}, {"a": 1}, {}, [[1, 2]]]))

    if kind == "bare" and tag in TAGS:
        return value[tag]
    if kind == "retag" and tag is not None:
        return {data.draw(st.sampled_from(("zz", "T", "c", "f", "w", *TAGS))): value[tag]}
    if kind == "payload" and tag is not None:
        return {tag: junk()}
    if kind == "pair" and tag == "d" and isinstance(value["d"], list) and value["d"]:
        pairs = list(value["d"])
        pairs[0] = data.draw(st.sampled_from([[1], [1, 2, 3], "ab", {"l": [1, 2]}, 5, [[1], 2]]))
        return {"d": pairs}
    if kind == "fields" and is_class:
        return {"c": value["c"], "f": junk()}
    if kind == "extra_field" and is_class and isinstance(value["f"], dict):
        return {"c": value["c"], "f": {**value["f"], "bogus": junk()}}
    if kind == "drop_field" and is_class and isinstance(value["f"], dict) and value["f"]:
        fields = dict(value["f"])
        fields.pop(data.draw(st.sampled_from(sorted(fields))))
        return {"c": value["c"], "f": fields}
    if kind == "name" and is_class:
        name = data.draw(st.sampled_from(["Nope", 5, ["Dot"], {"t": ["Dot"]}]))
        return {"c": name, "f": value["f"]}
    if kind == "wrap" and not isinstance(value, (dict, list)):
        return [value]
    if kind == "wildcard":
        return {"w": junk()}
    if kind == "stray_object":
        return {"zz": value}
    return None


MUTATIONS = (
    "bare",
    "retag",
    "payload",
    "pair",
    "fields",
    "extra_field",
    "drop_field",
    "name",
    "wrap",
    "wildcard",
    "stray_object",
)


def outcome(decoder, arg, strict):
    """The decoded value, or RAISED; the tables may raise only WireError."""
    try:
        return decoder(arg)
    except wire.WireError:
        return RAISED
    except Exception:
        if strict:
            raise
        return RAISED


def assert_refuses_like_the_reference(expected, got):
    if expected is RAISED:
        assert got is RAISED
    elif got is not RAISED:
        assert typed(got) == typed(expected)


@pytest.fixture(scope="module")
def bodies():
    return real_bodies()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from(MUTATIONS))
def test_mutated_bodies_are_refused_like_the_reference(bodies, data, kind):
    raw = json.loads(data.draw(st.sampled_from(bodies)))
    positions = slots(raw)
    start = data.draw(st.integers(0, len(positions) - 1))
    for container, key in positions[start:] + positions[:start]:
        mangled = mutate(container[key], kind, data)
        if mangled is not None:
            break  # the first position from ``start`` that ``kind`` applies to
    assume(mangled is not None)
    container[key] = mangled
    if data.draw(st.booleans()):
        raw = mangled  # the mangled value alone, as a whole body
    body = json.dumps(raw, separators=(",", ":")).encode("utf-8")
    expected = outcome(reference_load_frame, body, strict=False)
    assert_refuses_like_the_reference(expected, outcome(wire.load_frame, body, strict=True))
    expected = outcome(reference_decode, copy.deepcopy(raw), strict=False)
    assert_refuses_like_the_reference(expected, outcome(wire.decode, raw, strict=True))


@pytest.mark.parametrize(
    "body",
    [
        b'{"c":"CommitRecord","f":[1]}',
        b'{"d":[[1,2,3]]}',
        b'{"c":"Dot","f":{"bogus":1}}',
        b'{"t":5}',
        b'{"l":{"a":1}}',
        b'{"d":[["k",[1]]]}',
        b'{"d":[["k",{"t":{"l":[1]}}]]}',
        b'{"d":[["k",{"c":"Dot","f":{"d":[["replica","a"],["counter",1]]}}]]}',
        b'{"d":[["k",{"zz":1}]]}',
        b'{"d":[["k",{"w":1}]]}',
        b'{"d":[[{"l":[1]},1]]}',
        b'{"d":[["k",{"s":[{"l":[1]}]}]]}',
        b'{"d":[["k",{"c":"Pattern","f":{"fields":5}}]]}',
        b"[1]",
    ],
)
def test_malformed_bodies_raise_wire_error(body):
    with pytest.raises(wire.WireError):
        wire.load_frame(body)
    with pytest.raises(wire.WireError):
        wire.decode(json.loads(body))


# -- operation counts ---------------------------------------------------------


def counting(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_tables_are_built_once_and_fields_never_read_again(bodies, monkeypatch):
    messages = [wire.load_frame(body) for body in bodies]
    # A codec used for the first time: only the container lowerings.
    containers = {k: v for k, v in wire._ENCODERS.items() if not dataclasses.is_dataclass(k)}
    monkeypatch.setattr(wire, "_REGISTRY", None)
    monkeypatch.setattr(wire, "_ENCODERS", containers)
    calls = counting(monkeypatch, dataclasses, "fields")
    assert wire.encode_body(messages[0]) == bodies[0]
    assert calls[0] == len(wire._registry())
    for message, body in zip(messages, bodies):
        assert wire.encode_body(message) == body
        wire.load_frame(body)
    assert calls[0] == len(wire._registry())
    reference_encode_body(messages[0])
    assert calls[0] > len(wire._registry())  # the spy sees the ladder's calls


class Writer:
    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


@pytest.mark.parametrize("regions", [3, 5])
def test_a_broadcast_commit_is_encoded_once(regions, monkeypatch):
    peers = tuple(f"peer-{index}" for index in range(regions - 1))
    server = SimpleNamespace(
        log=SimpleNamespace(append=lambda record: None),
        detector=None,
        region="origin",
        peers=peers,
        _out={peer: asyncio.Queue() for peer in peers},
    )
    records = trial_records("tournament", "Causal")[:3]
    calls = counting(monkeypatch, wire, "encode_body")
    writers = {peer: Writer() for peer in peers}

    async def deliver():
        for peer, queue in server._out.items():
            while not queue.empty():
                await net_server.send(writers[peer], queue.get_nowait())

    for record in records:
        net_server.ReplicaServer._commit_local(server, record)
        asyncio.run(deliver())
    assert calls[0] == len(records)
    monkeypatch.undo()
    expected = b"".join(
        wire.dump_frame(
            {
                "type": "records",
                "source": "origin",
                "records": (record,),
                "tc": f"rec:origin:{record.dot.counter}",
            }
        )
        for record in records
    )
    assert {writer.data for writer in writers.values()} == {expected}


def test_a_hinted_broadcast_stores_its_message():
    record = trial_records("tournament", "Causal")[0]
    message = {"type": "records", "source": "origin", "records": (record,), "tc": "t"}
    hints = SimpleNamespace(messages=[], dropped=0)
    hints.append = hints.messages.append
    server = SimpleNamespace(
        _hints={"peer": hints},
        stats=collections.Counter(),
        _count_dropped_hints=lambda count: None,
    )
    net_server.ReplicaServer._hint(server, "peer", net_server.Broadcast(message))
    assert hints.messages == [message]


def reference_shard(ring, key):
    index = bisect.bisect_right(ring._hashes, engine._ring_hash(key.encode()))
    return ring._owners[index % len(ring._owners)]


def test_each_ring_hashes_a_key_once(monkeypatch):
    rings = [HashRing(2), HashRing(4), HashRing(4)]
    keys = [f"key-{index}" for index in range(60)]
    expected = [[reference_shard(ring, key) for key in keys] for ring in rings]
    calls = counting(monkeypatch, engine, "_ring_hash")
    for _ in range(3):
        for ring, want in zip(rings, expected):
            assert [ring.shard_of(key) for key in keys] == want
    assert calls[0] == len(rings) * len(keys)
    assert HashRing(1).shard_of("anything") == 0


def test_a_store_and_a_log_hash_each_of_their_keys_once(tmp_path, monkeypatch):
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    replica = Replica("A", registry, shards=4)
    log = commitlog.CommitLog(tmp_path / "A.commitlog")
    calls = counting(monkeypatch, engine, "_ring_hash")
    keys = [f"k{index % 7}" for index in range(40)]
    for index, key in enumerate(keys):
        txn = replica.begin()
        txn.update(key, lambda s, index=index: s.prepare_add(index))
        log.append(txn.commit())
        replica.get_object(key)
    log.close()
    store = replica.storage
    assert isinstance(store, ShardedStore)
    distinct = len(set(keys))
    assert calls[0] == distinct  # the store's ring; the one log routes nothing
    assert len(store.ring._memo) == store.key_count() == distinct
