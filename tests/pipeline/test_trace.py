"""BuildTrace: recording, counters, and the v1 JSON document."""

import json

from repro.pipeline import BuildTrace, TraceEvent
from repro.pipeline.trace import TRACE_FORMAT


class TestBuildTrace:
    def test_counters(self):
        trace = BuildTrace()
        trace.record_pass("m1", "order", 1.0, {"chi_nodes": 5})
        trace.record_pass("m2", "build", 2.0)
        trace.record_cache("m1", "hit", "abc")
        trace.record_cache("m2", "miss", "def")
        trace.record_stage("sys", "rtos", 3.0)
        assert trace.synthesis_pass_count == 2
        assert trace.cache_hits == 1 and trace.cache_misses == 1
        assert trace.total_wall_ms() == 6.0
        assert len(trace) == 5

    def test_passes_filter_by_module(self):
        trace = BuildTrace()
        trace.record_pass("m1", "order", 1.0)
        trace.record_pass("m2", "order", 1.0)
        assert [e.module for e in trace.passes("m1")] == ["m1"]

    def test_extend_merges_worker_events(self):
        worker = BuildTrace()
        worker.record_pass("m1", "order", 1.0)
        parent = BuildTrace()
        parent.record_cache("m0", "hit")
        parent.merge(worker.events, {"n": 2})
        parent.merge([], {"n": 3})
        assert parent.synthesis_pass_count == 1
        assert parent.cache_hits == 1
        assert parent.metrics == {"n": 5}

    def test_merge_keeps_worker_ids_and_links(self):
        parent = BuildTrace()
        root = parent.begin("build")
        worker = BuildTrace(context=parent.context_for(3))
        with worker.span("m1", "module"):
            worker.record_pass("m1", "order", 1.0)
        shipped = [
            (e.span_id, e.parent_id, e.lane) for e in worker.events
        ]
        parent.merge(worker.events, {})
        merged = [(e.span_id, e.parent_id, e.lane) for e in parent.events[1:]]
        assert merged == shipped
        assert merged[0][1] == root and merged[1][1] == merged[0][0]
        # The coordinator's own sequence is untouched by merged ids.
        own = parent.record_stage("sys", "rtos", 1.0)
        assert own.lane == 0 and own.span_id == "0000000000000002"

    def test_merge_into_flat_trace_stays_flat(self):
        worker = BuildTrace()
        worker.record_pass("m1", "order", 1.0)
        parent = BuildTrace()
        parent.merge(worker.events, {})
        assert parent.events[0].span_id is None
        assert "span_id" not in parent.to_dict()["events"][0]
        assert parent.metrics == {}

    def test_json_document_shape(self, tmp_path):
        trace = BuildTrace()
        trace.record_pass("m1", "order", 1.234, {"chi_nodes": 5})
        trace.record_cache("m1", "miss", "ff" * 32)
        path = tmp_path / "trace.json"
        trace.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["format"] == TRACE_FORMAT
        assert doc["summary"]["synthesis_passes"] == 1
        assert doc["summary"]["cache_misses"] == 1
        event = doc["events"][0]
        assert event == {
            "module": "m1", "name": "order", "kind": "pass",
            "wall_ms": 1.234, "metrics": {"chi_nodes": 5},
        }

    def test_summary_line(self):
        trace = BuildTrace()
        trace.record_cache("m", "hit")
        assert "1 cache hits" in trace.summary()

    def test_event_status_serialized_only_when_set(self):
        plain = TraceEvent(module="m", name="x").to_dict()
        assert "status" not in plain
        hit = TraceEvent(module="m", name="x", status="hit").to_dict()
        assert hit["status"] == "hit"


class TestRoundTrip:
    """from_dict/load restore a trace that serializes identically."""

    def make_trace(self):
        trace = BuildTrace()
        trace.record_pass("m1", "order", 1.5, {"chi_nodes": 5})
        trace.record_pass("m2", "estimate", 0.25, {"code_size": 40})
        trace.record_cache("m1", "miss", "ab" * 32)
        trace.record_cache("m2", "hit", "cd" * 32)
        trace.record_stage("sys", "rtos", 2.0)
        return trace

    def test_from_dict_round_trip(self):
        trace = self.make_trace()
        back = BuildTrace.from_dict(trace.to_dict())
        assert back.to_dict() == trace.to_dict()
        # Restored events are real TraceEvent objects with counters intact.
        assert all(isinstance(e, TraceEvent) for e in back.events)
        assert back.synthesis_pass_count == 2
        assert back.cache_hits == 1 and back.cache_misses == 1
        assert back.total_wall_ms() == trace.total_wall_ms()

    def test_from_dict_rejects_foreign_format(self):
        import pytest

        with pytest.raises(ValueError, match=TRACE_FORMAT):
            BuildTrace.from_dict({"format": "repro-run-trace/v1", "events": []})

    def test_load_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.json"
        trace.write(str(path))
        loaded = BuildTrace.load(str(path))
        assert loaded.to_dict() == trace.to_dict()
        assert [e.name for e in loaded.passes()] == ["order", "estimate"]
