"""Causal cross-process build tracing: one merged trace, every worker.

The tentpole guarantees under test:

* a ``--jobs 2`` build emits ONE merged ``repro-build-trace/v1`` document
  whose span links form a rooted, acyclic tree reaching every worker lane;
* serial and parallel builds, fuzz campaigns and fleet runs are
  *structurally* byte-identical — same events, same ids, same links, same
  summed counters — once wall-clock fields (``wall_ms``/``t_ms``/``pid``)
  are stripped;
* every module's ``compile``/``codegen``/``estimate``/``measure`` stage
  is recorded once, on that module's lane;
* the Perfetto/Chrome export round-trips the per-worker lanes as named
  thread tracks.
"""

import json

import pytest

from repro.apps import abp_network, dashboard_network
from repro.difftest import FuzzConfig, run_fuzz
from repro.fleet import FleetConfig, run_fleet
from repro.flow import build_system
from repro.obs import (
    span_id_lane,
    to_build_chrome_trace,
    validate_build_trace,
)
from repro.pipeline import BuildTrace


#: Each traced run kind, and the summed counters its trace must carry.
RUNS = {
    "build": (
        lambda trace, jobs: build_system(abp_network(), trace=trace, jobs=jobs),
        set(),
    ),
    "fuzz": (
        lambda trace, jobs: run_fuzz(
            FuzzConfig(cases=3, jobs=jobs, smoke=True, shrink=False),
            trace=trace,
        ),
        {"difftest_divergences"},
    ),
    "fleet": (
        lambda trace, jobs: run_fleet(
            dashboard_network(),
            FleetConfig(instances=64, lanes_per_shard=32, steps=20, jobs=jobs),
            trace=trace,
        ),
        {"fleet_reactions", "fleet_lost_events"},
    ),
}


def _traced_run(kind, jobs):
    trace = BuildTrace()
    RUNS[kind][0](trace, jobs)
    return trace


def _canonical(doc):
    """The trace document with wall-clock fields stripped.

    Everything left — ids, links, lanes, event order, metrics, statuses —
    must be identical between a serial and a parallel build.
    """
    doc = json.loads(json.dumps(doc))  # deep copy
    doc.pop("trace_id", None)  # random per build
    for event in doc["events"]:
        for key in ("wall_ms", "t_ms", "pid"):
            event.pop(key, None)
        for key in list(event.get("metrics", {})):
            if key.endswith("wall_ms"):
                event["metrics"].pop(key)
    summary = doc.get("summary", {})
    summary.pop("wall_ms", None)
    return doc


@pytest.fixture(scope="module")
def serial_trace():
    return _traced_run("build", jobs=1)


@pytest.fixture(scope="module")
def parallel_trace():
    return _traced_run("build", jobs=2)


def test_parallel_build_emits_one_valid_merged_trace(parallel_trace):
    doc = parallel_trace.to_dict()
    assert validate_build_trace(doc) == []
    assert doc["trace_id"] == parallel_trace.trace_id
    assert doc["root_span_id"] == parallel_trace.root_span_id


def test_every_worker_lane_reaches_the_root(parallel_trace):
    doc = parallel_trace.to_dict()
    by_id = {e["span_id"]: e for e in doc["events"]}
    lanes = {span_id_lane(s) for s in by_id}
    # Coordinator plus one lane per module of the network.
    machines = len(abp_network().machines)
    assert lanes == set(range(machines + 1))
    root = doc["root_span_id"]
    for event in doc["events"]:
        # Walk parent links: every span must reach the root, acyclically.
        seen = set()
        span = event["span_id"]
        while span != root:
            assert span not in seen, f"cycle through {span}"
            seen.add(span)
            span = by_id[span]["parent_id"]


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_serial_and_parallel_traces_are_structurally_identical(kind, request):
    if kind == "build":
        serial_trace = request.getfixturevalue("serial_trace")
        parallel_trace = request.getfixturevalue("parallel_trace")
    else:
        serial_trace = _traced_run(kind, jobs=1)
        parallel_trace = _traced_run(kind, jobs=2)
    serial = _canonical(serial_trace.to_dict())
    parallel = _canonical(parallel_trace.to_dict())
    assert set(serial.get("metrics", {})) == RUNS[kind][1]
    assert len(serial_trace.lanes()) > 2  # the coordinator and 2+ tasks
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


def test_every_module_stage_is_recorded_once_on_its_lane():
    trace = BuildTrace()
    build = build_system(dashboard_network(), trace=trace)
    module_lanes = {
        e.module: e.lane for e in trace.events if e.name == "module"
    }
    assert set(module_lanes) == set(build.modules)
    assert len(set(module_lanes.values())) == len(module_lanes)
    for name, lane in module_lanes.items():
        for stage in ("compile", "codegen", "estimate", "measure"):
            events = [
                e for e in trace.events
                if e.kind == "stage" and e.module == name and e.name == stage
            ]
            assert [e.lane for e in events] == [lane], (name, stage)


def test_round_trip_through_json_preserves_links(parallel_trace, tmp_path):
    path = tmp_path / "trace.json"
    parallel_trace.write(str(path))
    reloaded = BuildTrace.load(str(path))
    assert reloaded.trace_id == parallel_trace.trace_id
    assert reloaded.root_span_id == parallel_trace.root_span_id
    assert reloaded.to_dict() == parallel_trace.to_dict()


def test_chrome_export_round_trips_worker_lanes(parallel_trace):
    doc = to_build_chrome_trace(parallel_trace)
    assert doc["otherData"]["trace_id"] == parallel_trace.trace_id
    names = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names[0].startswith("coordinator")
    worker_lanes = [lane for lane in parallel_trace.lanes() if lane > 0]
    for lane in worker_lanes:
        assert names[lane].startswith(f"worker lane {lane}")
    slice_tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert set(worker_lanes) <= slice_tids


def test_flat_traces_stay_flat(serial_trace):
    """A BuildTrace used without begin() keeps the PR-2 flat format."""
    trace = BuildTrace()
    trace.record_stage("m", "codegen", 1.0)
    doc = trace.to_dict()
    assert "trace_id" not in doc
    assert "span_id" not in doc["events"][0]
    assert validate_build_trace(doc) == []


def test_fuzz_campaign_merges_per_case_spans():
    from repro.difftest import FuzzConfig, run_fuzz

    trace = BuildTrace()
    doc = run_fuzz(
        FuzzConfig(cases=3, jobs=2, smoke=True, shrink=False), trace=trace
    )
    assert doc["summary"]["failures"] == 0
    trace_doc = trace.to_dict()
    assert validate_build_trace(trace_doc) == []
    case_spans = [
        e for e in trace_doc["events"] if e["name"] == "fuzz.case"
    ]
    assert [e["module"] for e in case_spans] == [
        "case-0000", "case-0001", "case-0002",
    ]
    assert {span_id_lane(e["span_id"]) for e in case_spans} == {1, 2, 3}
    assert "difftest_divergences" in trace_doc["metrics"]
