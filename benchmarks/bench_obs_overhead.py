"""Observability overhead: instrumentation must be ~free when disabled.

The runtime and the BDD engine carry permanent hooks for the
observability layer (run traces, metrics, sift profiles).  Every hook
hides behind a single ``is not None`` check, so a plain run — no sinks
attached — must stay within a few percent of an uninstrumented build.  This benchmark runs the shock-absorber cosimulation bare and with
every sink attached, checks the attached run still returns *identical*
simulation results (observability never changes behavior), and records
the wall-clock ratio.

Two entry points:

* **pytest** (``pytest benchmarks/bench_obs_overhead.py``) — the
  assertion-backed overhead checks below, reported to
  ``results/obs_overhead.txt``;
* **report script** (``python benchmarks/bench_obs_overhead.py [--json
  BENCH_obs.json] [--smoke]``) — the machine-readable ``repro-obs-bench/v1``
  figures, gated against the ``obs.*`` entries of
  ``results/bench_history_reference.json``: causal build-trace overhead
  (obs-on vs obs-off process CPU time, the median ratio of interleaved
  build pairs) and merged ``--jobs 2`` trace shape/size.

Smoke mode (``--smoke`` or ``REPRO_BENCH_SMOKE``): shorter scenario,
fewer repeats and build pairs.
"""

import os
import statistics
import sys
import time

import pytest

from repro.obs import OBS_BENCH_FORMAT, MetricsRegistry, RunTrace, bench_main, smoke_from_env
from repro.rtos import RtosConfig, RtosRuntime, Stimulus
from repro.sgraph import synthesize
from repro.target import K11, compile_sgraph

if __name__ == "__main__":  # script mode runs from anywhere
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_report

SMOKE = smoke_from_env()
PULSES = 400 if SMOKE else 2_000
REPEATS = 3 if SMOKE else 7

#: Observability-off may cost at most this factor over itself (noise gate);
#: the attached run may cost at most this factor over the bare run.  Wide
#: enough to never flake on shared CI, tight enough to catch an
#: unconditional allocation sneaking into the hot path.
MAX_ATTACHED_RATIO = 3.0


def _scenario():
    stimuli = []
    t = 0
    for i in range(PULSES):
        t += 2_000
        rough = (i // 40) % 2 == 0
        sample = (255 if i % 2 else 0) if rough else 128
        stimuli.append(Stimulus(t, "asample", sample))
        if i % 4 == 3:
            stimuli.append(Stimulus(t + 900, "mtick"))
    return stimuli, t + 50_000


def _simulate(shock_net, programs, run_trace=None, metrics=None):
    rt = RtosRuntime(
        shock_net, RtosConfig(), profile=K11, programs=programs,
        run_trace=run_trace, metrics=metrics,
    )
    stimuli, until = _scenario()
    rt.schedule_stimuli(stimuli)
    return rt.run(until=until)


def _median_wall(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    walls.sort()
    return walls[len(walls) // 2]


def _programs(shock_net):
    return {
        m.name: compile_sgraph(synthesize(m), K11) for m in shock_net.machines
    }


@pytest.mark.timing
def test_observability_is_inert_and_cheap(shock_net):
    programs = _programs(shock_net)

    bare_stats = _simulate(shock_net, programs)
    trace = RunTrace()
    registry = MetricsRegistry()
    traced_stats = _simulate(
        shock_net, programs, run_trace=trace, metrics=registry
    )

    # Attaching sinks must not change a single simulation outcome.
    assert traced_stats.to_dict() == bare_stats.to_dict()
    assert len(trace.events) > 0
    assert len(registry) > 0

    bare_wall = _median_wall(lambda: _simulate(shock_net, programs))
    traced_wall = _median_wall(
        lambda: _simulate(
            shock_net, programs, run_trace=RunTrace(), metrics=MetricsRegistry()
        )
    )
    ratio = traced_wall / bare_wall if bare_wall else 1.0

    lines = [
        "Observability overhead — shock absorber cosimulation",
        "",
        f"{'configuration':28s} {'median wall (ms)':>17s}",
        f"{'hooks present, no sinks':28s} {bare_wall * 1000:17.2f}",
        f"{'run trace + metrics attached':28s} {traced_wall * 1000:17.2f}",
        "",
        f"attached/bare ratio: {ratio:.2f}x "
        f"(events={len(trace.events)}, metrics={len(registry)})",
    ]
    write_report("obs_overhead", lines)

    assert ratio < MAX_ATTACHED_RATIO


# ----------------------------------------------------------------------
# report-script mode (BENCH_obs.json)
# ----------------------------------------------------------------------

def _bench_build_overhead(pairs):
    """Causal-trace overhead on a full serial co-synthesis build.

    Bare and traced builds run in interleaved pairs, alternating which
    goes first, so machine drift lands on both sides; the overhead is
    the median of the per-pair traced/bare ratios.  Each build is timed
    in this process's CPU time, which other tenants of a shared machine
    do not inflate the way they inflate wall time.
    """
    from repro.apps import dashboard_network
    from repro.flow import build_system
    from repro.pipeline import BuildTrace

    def timed(traced):
        start = time.process_time()
        build_system(dashboard_network(), trace=BuildTrace() if traced else None)
        return time.process_time() - start

    timed(False)  # warm caches (imports, calibration) outside the timer
    bare, traced = [], []
    for i in range(pairs):
        if i % 2:
            traced.append(timed(True))
            bare.append(timed(False))
        else:
            bare.append(timed(False))
            traced.append(timed(True))
    ratio = statistics.median(t / b for b, t in zip(bare, traced))
    return {
        "bare_cpu_ms": round(statistics.median(bare) * 1000, 3),
        "traced_cpu_ms": round(statistics.median(traced) * 1000, 3),
        "overhead_pct": round((ratio - 1.0) * 100.0, 2),
    }


def _bench_merged_trace():
    """Shape and size of one merged ``--jobs 2`` causal build trace."""
    import json as _json

    from repro.apps import dashboard_network
    from repro.flow import build_system
    from repro.pipeline import BuildTrace

    trace = BuildTrace()
    build_system(dashboard_network(), trace=trace, jobs=2)
    doc = trace.to_dict()
    from repro.obs import assert_valid_trace

    assert_valid_trace(doc)
    return {
        "events": len(doc["events"]),
        "lanes": len(trace.lanes()),
        "json_bytes": len(_json.dumps(doc).encode("utf-8")),
    }


def run_report(smoke=False):
    return {
        "format": OBS_BENCH_FORMAT,
        "smoke": smoke,
        "build": _bench_build_overhead(3 if smoke else 11),
        "trace": _bench_merged_trace(),
    }


if __name__ == "__main__":
    sys.exit(bench_main(run_report, "BENCH_obs.json"))
