"""Unit tests for the structured trace log."""

import json

import pytest

from repro.obs import (
    NullTraceLog,
    TraceLog,
    get_trace,
    scoped_trace,
    set_trace,
    write_trace_jsonl,
)
from repro.simulation.engine import Simulator


class TestTraceLog:
    def test_emit_records_fields(self):
        log = TraceLog()
        log.emit("arrival", service="web", n=3)
        (event,) = log.events()
        assert event.kind == "event"
        assert event.name == "arrival"
        assert event.fields == {"service": "web", "n": 3}

    def test_warning_kind(self):
        log = TraceLog()
        log.warning("unseeded_rng", policy="random")
        assert log.events()[0].kind == "warning"

    def test_ring_buffer_drops_oldest(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 3
        assert [e.fields["i"] for e in log.events()] == [2, 3, 4]
        assert log.emitted == 5
        assert log.dropped == 2

    def test_drops_counted_per_kind(self):
        log = TraceLog(capacity=2)
        log.emit("a", kind="warning")
        log.emit("b")  # fills the ring
        log.emit("c")  # evicts the warning
        log.emit("d")  # evicts b (kind "event")
        assert log.dropped_by_kind == {"warning": 1, "event": 1}
        # The property hands out a copy, not the live dict.
        log.dropped_by_kind["warning"] = 99
        assert log.dropped_by_kind["warning"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_span_records_begin_end_pair(self):
        log = TraceLog()
        with log.span("solve", service="web") as fields:
            fields["servers"] = 4
        begin, end = log.events()
        assert begin.kind == "span_begin" and end.kind == "span_end"
        assert begin.fields["span"] == end.fields["span"]
        assert end.fields["duration_s"] >= 0.0
        assert end.fields["servers"] == 4
        assert end.fields["service"] == "web"

    def test_span_end_recorded_on_error(self):
        log = TraceLog()
        with pytest.raises(RuntimeError):
            with log.span("solve"):
                raise RuntimeError("boom")
        kinds = [e.kind for e in log.events()]
        assert kinds == ["span_begin", "span_end"]

    def test_nested_spans_get_distinct_ids(self):
        log = TraceLog()
        with log.span("outer"):
            with log.span("inner"):
                pass
        ids = {e.fields["span"] for e in log.events()}
        assert len(ids) == 2


class TestVirtualTimeClock:
    def test_attached_simulator_supplies_timestamps(self):
        log = TraceLog()
        sim = Simulator()
        log.attach_simulator(sim)
        sim.schedule_at(7.5, lambda: log.emit("fired"))
        sim.run()
        assert log.events()[0].ts == 7.5

    def test_detach_restores_wall_clock(self):
        log = TraceLog()
        sim = Simulator()
        log.attach_simulator(sim)
        log.detach_clock()
        log.emit("later")
        # Wall time is far beyond any virtual clock in these tests.
        assert log.events()[0].ts > 1e9


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        log = TraceLog()
        log.emit("a", x=1)
        with log.span("s"):
            pass
        # The writer creates missing parent directories.
        path = write_trace_jsonl(log, tmp_path / "nested" / "trace.jsonl")
        lines = path.read_text().strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert len(docs) == 3
        assert docs[0]["name"] == "a" and docs[0]["x"] == 1
        assert docs[1]["kind"] == "span_begin"
        assert docs[2]["kind"] == "span_end"

    def test_empty_log_exports_empty_file(self, tmp_path):
        path = write_trace_jsonl(TraceLog(), tmp_path / "empty.jsonl")
        assert path.read_text() == ""


class TestGlobalTrace:
    def test_default_is_disabled_and_swallows_api(self):
        log = get_trace()
        assert isinstance(log, NullTraceLog)
        log.emit("x")
        log.warning("y")
        with log.span("z") as fields:
            fields["ignored"] = 1
        assert log.events() == []
        assert log.to_jsonl() == ""

    def test_scoped_trace_installs_and_restores(self):
        before = get_trace()
        with scoped_trace() as log:
            assert get_trace() is log
            get_trace().emit("inside")
            assert len(log) == 1
        assert get_trace() is before

    def test_set_trace_none_installs_null(self):
        previous = set_trace(TraceLog())
        try:
            set_trace(None)
            assert not get_trace().enabled
        finally:
            set_trace(previous)
