"""P1 — pipeline scaling: serial vs process-pool vs warm-cache builds.

Not a paper table: this regenerates the scaling evidence for the pass
pipeline (ISSUE 2).  For each multi-machine example network the whole
co-synthesis flow runs three ways —

* ``serial``   — one process, no cache (the historical flow);
* ``jobs=N``   — per-CFSM pipelines on an N-worker process pool;
* ``warm``     — every module served from a content-addressed cache.

Shape claims asserted: all three produce byte-identical C / RTOS /
estimates; the warm build executes **zero** synthesis passes and hits the
cache once per module; the trace accounts one pass sequence per module on
the cold build.  Wall-clock ratios are reported, not asserted — CI boxes
(often 1 vCPU) make speedup assertions flaky.

Smoke mode (``REPRO_BENCH_SMOKE``): dashboard network only, one
repetition, pool of 2 — a few seconds end to end.  The measured figures
with repeats and spread come from ``perfbench`` (``build-serial``,
``build-jobs``).
"""

import tempfile
import time

from repro.apps import abp_network, dashboard_network
from repro.estimation import calibrate
from repro.flow import build_system
from repro.obs import smoke_from_env
from repro.pipeline import ArtifactCache, BuildTrace
from repro.target import K11

from conftest import write_report

SMOKE = smoke_from_env()
JOBS = 2 if SMOKE else 4
REPEATS = 1 if SMOKE else 3


def _timed(fn):
    best = None
    value = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return value, best


def _assert_identical(base, other):
    assert other.rtos_source == base.rtos_source
    for name, module in base.modules.items():
        assert other.modules[name].c_source == module.c_source
        assert other.modules[name].estimate == module.estimate
        assert other.modules[name].measured == module.measured


def _bench_network(make_network, params):
    network = make_network()
    serial, t_serial = _timed(lambda: build_system(network, params=params))
    parallel, t_parallel = _timed(
        lambda: build_system(network, params=params, jobs=JOBS)
    )
    _assert_identical(serial, parallel)

    with tempfile.TemporaryDirectory() as cache_root:
        cache = ArtifactCache(cache_root)
        cold_trace = BuildTrace()
        cold = build_system(
            network, params=params, cache=cache, trace=cold_trace
        )
        _assert_identical(serial, cold)
        # One declared pass sequence per module on the cold build.
        for machine in cold.modules:
            assert cold_trace.passes(machine)

        def warm_build():
            trace = BuildTrace()
            build = build_system(
                network, params=params, cache=cache, trace=trace
            )
            return build, trace

        (warm, warm_trace), t_warm = _timed(warm_build)
    _assert_identical(serial, warm)
    assert warm_trace.synthesis_pass_count == 0
    assert warm_trace.cache_hits == len(warm.modules)

    return {
        "network": network.name,
        "modules": len(serial.modules),
        "serial_ms": t_serial * 1e3,
        "parallel_ms": t_parallel * 1e3,
        "warm_ms": t_warm * 1e3,
    }


def test_pipeline_parallel_and_cache_scaling():
    params = calibrate(K11)
    makers = [dashboard_network] if SMOKE else [dashboard_network, abp_network]
    rows = [_bench_network(maker, params) for maker in makers]

    lines = [
        "P1 — pipeline scaling: serial vs process pool vs warm cache "
        f"(jobs={JOBS}, best of {REPEATS})",
        "",
        f"{'network':12s} {'mods':>4s} {'serial':>9s} {'jobs=%d' % JOBS:>9s} "
        f"{'warm':>9s} {'warm speedup':>12s}",
    ]
    for row in rows:
        speedup = row["serial_ms"] / max(row["warm_ms"], 1e-6)
        lines.append(
            f"{row['network']:12s} {row['modules']:4d} "
            f"{row['serial_ms']:8.1f}m {row['parallel_ms']:8.1f}m "
            f"{row['warm_ms']:8.1f}m {speedup:11.1f}x"
        )
    lines += [
        "",
        "byte-identical artifacts across all three paths: asserted",
        "warm build synthesis passes executed: 0 (asserted)",
    ]
    write_report("p1_pipeline_parallel", lines)

    # The warm-cache path must dominate serial: it skips synthesis,
    # compilation, and measurement entirely.  Generous factor for CI noise.
    for row in rows:
        assert row["warm_ms"] < row["serial_ms"], row
