"""Trace context: id formats, lane partitioning, and the hand-off to tasks."""

import pickle

import pytest

from repro.obs import TraceContext, make_span_id, new_trace_id, span_id_lane
from repro.pipeline import BuildTrace


def test_trace_id_is_32_hex():
    tid = new_trace_id()
    assert len(tid) == 32
    int(tid, 16)
    assert tid != new_trace_id()


def test_span_id_encodes_lane_and_sequence():
    sid = make_span_id(3, 7)
    assert len(sid) == 16
    assert sid == "0003000000000007"
    assert span_id_lane(sid) == 3


def test_span_id_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_span_id(-1, 1)
    with pytest.raises(ValueError):
        make_span_id(0x10000, 1)
    with pytest.raises(ValueError):
        make_span_id(0, 0)  # all-zero span ids are invalid


def test_span_ids_are_unique_across_lanes():
    ids = {make_span_id(lane, seq) for lane in range(4) for seq in range(1, 50)}
    assert len(ids) == 4 * 49



def test_context_survives_pickle():
    """Contexts cross the process pool by pickle, unchanged."""
    context = TraceContext(
        trace_id=new_trace_id(), span_id=make_span_id(0, 1), lane=7
    )
    back = pickle.loads(pickle.dumps(context))
    assert back == context
    worker = BuildTrace(context=back)
    event = worker.record_stage("m", "codegen", 1.0)
    assert worker.trace_id == context.trace_id
    assert event.parent_id == context.span_id
    assert span_id_lane(event.span_id) == 7


def test_context_for_needs_a_begun_trace():
    with pytest.raises(RuntimeError, match="begin"):
        BuildTrace().context_for(1)


def test_context_for_links_to_the_innermost_open_span():
    trace = BuildTrace()
    root = trace.begin("build")
    assert trace.context_for(1) == TraceContext(
        trace_id=trace.trace_id, span_id=root, lane=1
    )
    with trace.span("sys", "schedule") as span:
        assert trace.context_for(2).span_id == span.span_id
    assert trace.context_for(3).span_id == root
