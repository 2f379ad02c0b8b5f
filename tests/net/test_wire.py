"""Wire codec and framing round-trips."""

import asyncio

import pytest

from repro.crdts import AWSet
from repro.crdts.base import Dot
from repro.crdts.clock import VersionVector
from repro.crdts.pattern import WILDCARD, Pattern
from repro.net import wire
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica


def make_record(element="x"):
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    replica = Replica("A", registry)
    txn = replica.begin()
    txn.update("s", lambda s: s.prepare_add(element))
    return txn.commit()


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            "text",
            (1, 2, "three"),
            [1, [2, [3]]],
            {"a": 1, 2: "b", (3, 4): [5]},
            {1, 2, 3},
            frozenset({("a", 1), ("b", 2)}),
            (),
            {},
            set(),
        ],
    )
    def test_round_trip(self, value):
        assert wire.decode(wire.encode(value)) == value

    def test_tuple_and_list_stay_distinct(self):
        assert wire.decode(wire.encode((1, 2))) == (1, 2)
        assert wire.decode(wire.encode([1, 2])) == [1, 2]
        assert isinstance(wire.decode(wire.encode((1, 2))), tuple)
        assert isinstance(wire.decode(wire.encode([1, 2])), list)

    def test_set_encoding_is_deterministic(self):
        a = wire.dump_frame({"v": {3, 1, 2}})
        b = wire.dump_frame({"v": {2, 3, 1}})
        assert a == b

    def test_dataclass_round_trip(self):
        dot = Dot("us-east", 4)
        assert wire.decode(wire.encode(dot)) == dot
        vv = VersionVector({"us-east": 4, "eu-west": 1})
        assert wire.decode(wire.encode(vv)) == vv

    def test_pattern_round_trip_keeps_the_wildcard_singleton(self):
        # IPA wildcard removes (``enrolled(*, t) = false``) ship these.
        pattern = Pattern.of("*", "t1")
        decoded = wire.load_frame(wire.encode_body({"p": pattern}))["p"]
        assert decoded == pattern
        assert decoded.fields[0] is WILDCARD
        assert decoded.matches(("anyone", "t1"))
        assert not decoded.matches(("anyone", "t2"))
        exact = Pattern.exact(("a", "b"))
        assert wire.decode(wire.encode(exact)) == exact

    def test_pattern_set_encoding_is_deterministic(self):
        patterns = [Pattern.of("*", "t1"), Pattern.of("p", "*"), Pattern.of("*")]
        a = wire.dump_frame({"v": set(patterns)})
        b = wire.dump_frame({"v": set(reversed(patterns))})
        assert a == b

    def test_commit_record_round_trip(self):
        record = make_record()
        decoded = wire.decode(wire.encode(record))
        assert decoded == record
        assert decoded.dot == record.dot
        assert decoded.origin == record.origin

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class Rogue:
            x: int

        with pytest.raises(wire.WireError, match="unregistered"):
            wire.encode(Rogue(1))

    def test_unknown_class_name_rejected(self):
        with pytest.raises(wire.WireError, match="unknown wire class"):
            wire.decode({"c": "NoSuchClass", "f": {}})

    def test_unknown_tag_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode({"zz": [1]})


class TestFraming:
    def test_dump_load_round_trip(self):
        message = {"type": "records", "records": (make_record(),)}
        frame = wire.dump_frame(message)
        assert wire.load_frame(frame[4:]) == message

    def test_oversized_frame_rejected(self):
        big = "x" * (wire.MAX_FRAME + 1)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.dump_frame({"v": big})

    def test_garbage_body_rejected(self):
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.load_frame(b"\xff\xfenot json")

    def test_non_dict_frame_rejected(self):
        import json

        # A validly-tagged list decodes fine but is not a message dict.
        with pytest.raises(wire.WireError, match="not a message"):
            wire.load_frame(json.dumps({"l": [1, 2]}).encode())


def replication_frame():
    return wire.dump_frame(
        {"type": "records", "source": "A",
         "records": (make_record(),), "tc": "rec:A:1"}
    )


class TestPeekTraceContext:
    def test_reads_type_and_tc_of_a_real_frame(self):
        assert wire.peek_trace_context(replication_frame()) == (
            "records", "rec:A:1"
        )
        assert wire.peek_trace_context(
            wire.dump_frame({"type": "op", "tc": "op:7"})
        ) == ("op", "op:7")

    def test_missing_or_non_string_values_are_none(self):
        assert wire.peek_trace_context(
            wire.dump_frame({"type": "heartbeat", "tc": None})
        ) == ("heartbeat", None)
        assert wire.peek_trace_context(
            wire.dump_frame({"type": ("op",)})
        ) == (None, None)

    @pytest.mark.parametrize(
        "raw",
        [b"", b"\x00\x00\x00\x02\xff\xfe", b"\x00\x00\x00\x02[]",
         b'\x00\x00\x00\x08{"d": 1}', b'\x00\x00\x00\x0a{"d": [1]}'],
    )
    def test_garbage_is_none_never_an_error(self, raw):
        assert wire.peek_trace_context(raw) == (None, None)

    def test_dropped_replication_frame_instant_carries_its_tc(self):
        """Proxy level: a frame the chaos link drops is annotated with
        the flow it would have completed."""
        from repro import obs
        from repro.net.proxy import ChaosLink
        from repro.sim.faults import FaultPlan

        frame = replication_frame()

        async def judge():
            link = ChaosLink(
                "A", "B", "127.0.0.1", 1, FaultPlan(seed=3, drop=1.0)
            )
            await link._judge(frame)
            return link.injector.dropped

        obs.configure(enabled=True)
        try:
            assert asyncio.run(judge()) == 1
            instants = [
                s for s in obs.TRACER.spans() if s.name == "net.chaos.drop"
            ]
        finally:
            obs.configure(enabled=False)
        assert [s.attrs for s in instants] == [
            {"link": "A->B", "frame": "records", "tc": "rec:A:1"}
        ]


class TestStreamFraming:
    def _read(self, data: bytes, raw: bool = False):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            if raw:
                return await wire.read_raw_frame(reader)
            return await wire.read_frame(reader)

        return asyncio.run(go())

    def test_read_frame_round_trip(self):
        message = {"type": "status", "x": (1, 2)}
        assert self._read(wire.dump_frame(message)) == message

    def test_read_frame_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_read_frame_torn_prefix_raises(self):
        with pytest.raises(wire.WireError, match="mid length prefix"):
            self._read(b"\x00\x00")

    def test_read_frame_torn_body_raises(self):
        frame = wire.dump_frame({"type": "status"})
        with pytest.raises(wire.WireError, match="mid frame"):
            self._read(frame[:-2])

    def test_read_frame_oversized_length_raises(self):
        with pytest.raises(wire.WireError, match="exceeds"):
            self._read(b"\xff\xff\xff\xff")

    def test_read_raw_frame_preserves_bytes(self):
        frame = wire.dump_frame({"type": "op", "index": 3})
        assert self._read(frame + frame, raw=True) == frame
