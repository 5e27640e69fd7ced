"""Fleet-scale simulation throughput: bit-sliced kernels vs the scalar
reference simulator.

The fleet engine (:mod:`repro.fleet`) compiles each machine's synthesized
evaluator into straight-line plane operations and steps one *fleet
instance per bit lane*, so a 4096-instance dashboard fleet advances 4096
networks per plane pass.  This benchmark measures that claim directly:

* **scalar leg** — replay a handful of lanes through
  :class:`repro.cfsm.network.NetworkSimulator` under the *same* stimulus
  stream and time reactions/second;
* **fleet leg** — run the whole fleet on int planes and time
  reactions/second; ``speedup`` is fleet over scalar;
* **cross-check** — sampled lanes must be bit-identical to the scalar
  simulator (states, flags, value buffers, lost-event and reaction
  counts);
* **determinism** — ``--jobs 1`` and ``--jobs 4`` fleet digests must
  match exactly.

Two entry points:

* **pytest** (``pytest benchmarks/bench_fleet_sim.py``) — the
  assertion-backed checks below, reported to ``results/fleet_sim.txt``;
* **report script** (``python benchmarks/bench_fleet_sim.py [--json
  BENCH_sim.json] [--smoke]``) — the machine-readable ``repro-sim-bench/v1``
  document, gated against the ``sim.*`` entries of
  ``results/bench_history_reference.json`` (int-backend speedup >= 20x,
  zero lane mismatches, the kernel op count) plus digest determinism.

Smoke mode (``--smoke`` or ``REPRO_BENCH_SMOKE``): smaller fleet,
fewer steps, fewer scalar baseline lanes.
"""

import os
import sys
import time

import pytest

from repro.cfsm.network import NetworkSimulator
from repro.fleet import (
    FleetConfig,
    check_lanes,
    compile_network,
    default_spec,
    run_fleet,
)
from repro.fleet.crosscheck import materialize_stream
from repro.obs import bench_main
from repro.obs.schema import SIM_BENCH_FORMAT

if __name__ == "__main__":  # script mode runs from anywhere
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_report


def _sizes(smoke):
    if smoke:
        return {"instances": 1024, "steps": 50, "scalar_lanes": 4,
                "check_lanes": 8}
    return {"instances": 4096, "steps": 200, "scalar_lanes": 8,
            "check_lanes": 16}


def _scalar_leg(network, compiled, spec, config, lanes):
    """Time ``lanes`` scalar replays under the fleet's own stimulus."""
    shard_lanes = min(config.instances, config.lanes_per_shard)
    step_planes = materialize_stream(
        compiled, spec, config.seed, config.steps, 0, shard_lanes
    )
    reactions = 0
    start = time.perf_counter()
    for lane in range(lanes):
        sim = NetworkSimulator(network)
        for planes in step_planes:
            for name, presence, values in planes:
                if not (presence >> lane) & 1:
                    continue
                value = None
                if values is not None:
                    value = sum(
                        ((plane >> lane) & 1) << b
                        for b, plane in enumerate(values)
                    )
                sim.inject(name, value)
            sim.step()
        reactions += sim.reactions
    wall = time.perf_counter() - start
    return {
        "reactions": reactions,
        "wall_s": round(wall, 6),
        "reactions_per_sec": round(reactions / wall, 1) if wall else 0.0,
    }


def _fleet_leg(network, compiled, config, scalar_rps):
    summary = run_fleet(network, config, compiled=compiled)
    rps = summary["reactions_per_sec"]
    return {
        "reactions": summary["reactions"],
        "wall_s": round((summary["wall_ms"] - summary["compile_ms"]) / 1000.0,
                        6),
        "reactions_per_sec": round(rps, 1),
        "speedup": round(rps / scalar_rps, 2) if scalar_rps else 0.0,
    }


def run_report(smoke=False):
    from repro.apps import dashboard_network

    sizes = _sizes(smoke)
    network = dashboard_network()
    compiled = compile_network(network)
    spec = default_spec(network)
    config = FleetConfig(
        instances=sizes["instances"],
        steps=sizes["steps"],
        seed=0,
        jobs=1,
        spec=spec,
    )

    scalar = _scalar_leg(
        network, compiled, spec, config, sizes["scalar_lanes"]
    )
    backends = {
        "int": _fleet_leg(
            network, compiled, config, scalar["reactions_per_sec"]
        )
    }

    jobs4_config = FleetConfig(
        instances=config.instances,
        steps=config.steps,
        seed=config.seed,
        jobs=4,
        lanes_per_shard=max(64, config.instances // 4),
        spec=spec,
    )
    jobs4 = run_fleet(network, jobs4_config, compiled=compiled)
    # Digests hash per-shard state, so compare against a jobs=1 run of
    # the *same* sharding, not the single-shard timing leg.
    jobs1_config = FleetConfig(
        instances=jobs4_config.instances,
        steps=jobs4_config.steps,
        seed=jobs4_config.seed,
        jobs=1,
        lanes_per_shard=jobs4_config.lanes_per_shard,
        spec=spec,
    )
    jobs1 = run_fleet(network, jobs1_config, compiled=compiled)

    sample = sorted({
        lane * config.instances // sizes["check_lanes"]
        for lane in range(sizes["check_lanes"])
    })
    mismatches = check_lanes(network, config, sample, compiled=compiled)

    doc = {
        "format": SIM_BENCH_FORMAT,
        "smoke": smoke,
        "network": network.name,
        "instances": config.instances,
        "steps": config.steps,
        "kernel_ops": compiled.op_count,
        "scalar": scalar,
        "backends": backends,
        "crosscheck": {
            "lanes": len(sample),
            "mismatches": len(mismatches),
        },
        "determinism": {
            "jobs1_digest": jobs1["digest"],
            "jobs4_digest": jobs4["digest"],
            "match": jobs1["digest"] == jobs4["digest"],
        },
    }
    return doc


def _report_lines(doc):
    from repro.obs import render_sim_bench

    return render_sim_bench(doc).splitlines()


@pytest.mark.timing
@pytest.mark.slow
def test_fleet_bench_document_is_valid_and_fast():
    from repro.obs import validate_trace

    doc = run_report(smoke=True)
    errors = validate_trace(doc)
    assert errors == [], errors
    assert doc["crosscheck"]["mismatches"] == 0, doc["crosscheck"]
    assert doc["determinism"]["match"], doc["determinism"]
    # Smoke fleets are small; the full >= 20x gate lives in the
    # bench-history reference checked by CI on the full document.
    assert doc["backends"]["int"]["speedup"] > 1.0, doc["backends"]["int"]
    write_report("fleet_sim", _report_lines(doc))


if __name__ == "__main__":
    sys.exit(bench_main(run_report, "BENCH_sim.json", check=lambda doc: (
        None if doc["determinism"]["match"] else "jobs 1 vs jobs 4 digests diverged"
    )))
