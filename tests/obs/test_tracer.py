"""Tracer behaviour: spans, disabled fast path, export."""

import json
import os

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    dump_process,
    read_spool,
    summarize,
    write_chrome_trace,
)


@pytest.fixture
def tracer():
    t = Tracer()
    t.configure(enabled=True)
    yield t
    t.disable()


class TestSpans:
    def test_span_records_name_duration_and_attrs(self, tracer):
        with tracer.span("analysis.pair", op1="a", op2="b") as span:
            span.set(conflict=True)
        (record,) = tracer.spans()
        assert record.name == "analysis.pair"
        assert record.status == "ok"
        assert record.attrs == {"op1": "a", "op2": "b", "conflict": True}
        assert record.dur_us >= 0
        assert record.pid == os.getpid()

    def test_nested_spans_share_timeline(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # inner closes first
        assert (inner.name, outer.name) == ("inner", "outer")
        # The child starts no earlier and ends no later than the parent.
        assert inner.start_us >= outer.start_us
        assert (
            inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us
        )

    def test_exception_marks_span_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("solver.check"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record.status == "error"
        assert record.attrs["exception"] == "ValueError"

    def test_start_end_form(self, tracer):
        handle = tracer.start("store.txn", replica="us-east")
        tracer.end(handle, op="enroll")
        (record,) = tracer.spans()
        assert record.name == "store.txn"
        assert record.attrs == {"replica": "us-east", "op": "enroll"}

    def test_instant_marker(self, tracer):
        tracer.instant("store.crash", region="eu-west")
        (record,) = tracer.spans()
        assert record.dur_us == 0
        assert record.attrs == {"region": "eu-west"}

    def test_clear(self, tracer):
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.spans() == []


class TestDisabled:
    def test_disabled_span_is_the_null_singleton(self):
        t = Tracer()
        assert t.span("anything", a=1) is NULL_SPAN
        # The null span accepts the full protocol without recording.
        with t.span("anything") as span:
            span.set(b=2)
        assert t.spans() == []

    def test_disabled_start_returns_none_and_end_tolerates_it(self):
        t = Tracer()
        handle = t.start("store.txn")
        assert handle is None
        t.end(handle, op="x")  # must not raise
        t.instant("marker")
        assert t.spans() == []

    def test_disable_keeps_collected_spans_readable(self, tracer):
        with tracer.span("kept"):
            pass
        tracer.disable()
        assert [s.name for s in tracer.spans()] == ["kept"]

    def test_configure_resets_the_trace(self, tracer):
        with tracer.span("old"):
            pass
        tracer.configure(enabled=True)
        assert tracer.spans() == []


class TestExport:
    def _sample_spans(self, tracer):
        with tracer.span("analysis.scan", round=1):
            with tracer.span("solver.check", sat=True):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("store.txn"):
                raise RuntimeError
        return tracer.spans()

    def test_jsonl_round_trip(self, tracer, tmp_path):
        spans = self._sample_spans(tracer)
        path = dump_process(str(tmp_path), tracer=tracer)
        assert read_spool(path)[1] == spans

    def test_chrome_trace_shape(self, tracer):
        spans = self._sample_spans(tracer)
        doc = chrome_trace(spans)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        # One process_name metadata record per pid.
        assert len(meta) == 1
        assert meta[0]["name"] == "process_name"
        assert len(slices) == len(spans)
        by_name = {e["name"]: e for e in slices}
        # Category = first dotted segment; errors surface in args.
        assert by_name["solver.check"]["cat"] == "solver"
        assert by_name["analysis.scan"]["args"] == {"round": 1}
        assert by_name["store.txn"]["args"]["status"] == "error"

    def test_chrome_trace_file_round_trips_through_json(
        self, tracer, tmp_path
    ):
        spans = self._sample_spans(tracer)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spans, path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc == json.loads(json.dumps(chrome_trace(spans)))
        assert doc["displayTimeUnit"] == "ms"

    def test_summary_table(self, tracer):
        spans = self._sample_spans(tracer)
        text = summarize(spans)
        assert "analysis.scan" in text
        assert "(1 error(s))" in text
        assert "3 span(s)" in text
        assert summarize([]) == "(no spans recorded)"
