"""Task outcomes are the one way a task's spans and counters come home.

Each schedulable task kind — module build, fuzz case, fleet shard — runs
under an injected :class:`repro.obs.TraceContext`, records its spans on
the context's lane, and returns them with its counters in the outcome
that the executor hands back.  Without a context the outcome carries
neither.
"""

import pickle

import pytest

from repro.apps import dashboard_network
from repro.difftest import FuzzConfig
from repro.difftest.runner import FuzzCaseTask
from repro.fleet import FleetConfig, FleetShardTask, compile_network, default_spec
from repro.flow import build_system
from repro.obs import span_id_lane
from repro.pipeline import BuildTrace, ModuleBuildTask, synthesis_options
from repro.target import K11

LANE = 5


def _module_task(context, params):
    machine = dashboard_network().machines[0]
    options = synthesis_options(
        scheme="sift", copy_elimination=True, params=params
    )
    return ModuleBuildTask(
        machine=machine, options=options, profile=K11, params=params,
        context=context,
    )


def _fuzz_task(context, params):
    config = FuzzConfig(cases=1, smoke=True, shrink=False)
    return FuzzCaseTask(index=0, config=config, context=context)


def _fleet_task(context, params):
    network = dashboard_network()
    config = FleetConfig(instances=32, lanes_per_shard=32, steps=10)
    return FleetShardTask(
        shard_index=0, lanes=32, config=config,
        compiled=compile_network(network), spec=default_spec(network),
        context=context,
    )


#: Each task kind: its factory, the name of the span that wraps the
#: whole task, and the counters its traced outcome carries.
TASKS = {
    "module": (_module_task, "module", set()),
    "fuzz": (_fuzz_task, "fuzz.case", {"difftest_divergences"}),
    "fleet": (_fleet_task, "fleet.shard", {"fleet_reactions", "fleet_lost_events"}),
}


def _coordinator():
    trace = BuildTrace()
    trace.begin("coordinator")
    return trace


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_traced_outcome_carries_its_spans_on_its_lane(kind, k11_params):
    make, task_span, counters = TASKS[kind]
    context = _coordinator().context_for(LANE)
    outcome = make(context, k11_params).run(keep_result=False)
    assert outcome.events
    assert {e.lane for e in outcome.events} == {LANE}
    assert {span_id_lane(e.span_id) for e in outcome.events} == {LANE}
    # Exactly one span links back to the coordinator: the task's own span,
    # and every other span nests inside it.
    tops = [e for e in outcome.events if e.parent_id == context.span_id]
    assert [e.name for e in tops] == [task_span]
    ids = {e.span_id for e in outcome.events}
    for event in outcome.events:
        assert event is tops[0] or event.parent_id in ids
    assert set(outcome.metrics) == counters


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_untraced_outcome_carries_no_spans(kind, k11_params):
    make = TASKS[kind][0]
    outcome = make(None, k11_params).run(keep_result=False)
    assert outcome.metrics == {}
    # A module build still records its flat pass events; no task stamps
    # causal ids without a context.
    assert all(e.span_id is None for e in outcome.events)
    if kind != "module":
        assert outcome.events == []


def test_outcome_spans_survive_the_pool_pickle(k11_params):
    context = _coordinator().context_for(LANE)
    outcome = _fuzz_task(context, k11_params).run(keep_result=False)
    back = pickle.loads(pickle.dumps(outcome))
    assert back.events == outcome.events
    assert back.metrics == outcome.metrics


def test_merged_outcomes_keep_worker_ids_and_sum_counters(k11_params):
    coordinator = _coordinator()
    outcomes = [
        _fleet_task(coordinator.context_for(lane), k11_params).run(
            keep_result=False
        )
        for lane in (1, 2)
    ]
    for outcome in outcomes:
        coordinator.merge(outcome.events, outcome.metrics)
    worker_ids = [e.span_id for o in outcomes for e in o.events]
    assert [e.span_id for e in coordinator.events[1:]] == worker_ids
    assert coordinator.lanes() == [0, 1, 2]
    assert coordinator.metrics["fleet_reactions"] == sum(
        o.reactions for o in outcomes
    )
    assert coordinator.metrics["fleet_lost_events"] == sum(
        o.lost_events for o in outcomes
    )


def test_parallel_dashboard_build_reaches_every_module_lane():
    """The coordinator plus one lane per module, as CI's obs-trace job checks."""
    trace = BuildTrace()
    build = build_system(dashboard_network(), trace=trace, jobs=2)
    lanes = {span_id_lane(e.span_id) for e in trace.events}
    assert lanes == set(range(len(build.modules) + 1))
