"""The ``serve-mixed`` workload: a warm daemon under closed-loop clients.

An in-process daemon (``serve_in_thread``, ``jobs=nproc``, default queue
depth, one shared cache directory) is driven by ``nproc`` client
connections, each sending its next request only when the previous reply
is in, as build scripts and CI jobs do.

The mix is the one the repository already states for this daemon: the
latency leg of ``benchmarks/bench_serve.py`` sends 3 ``estimate`` : 1
``synthesize`` : 1 ``fleet`` (16 instances x 50 steps).  ``simulate``,
which that leg lacks, is added at a share of 1, with requests the size of
the ``simulate`` request in ``tests/serve/test_conformance.py`` (5 events
until t = 250000); that share is this benchmark's assumption, not a
measured one.  Each client's seeded stream is a sequence of shuffled
blocks holding every kind at those shares for each of ``dashboard``,
``shock`` and ``abp``.  Stimulus sets and fleet seeds come from small
seeded pools, so every distinct request is compared once with the direct
library call.

Set-up (boot, prewarm, cache warm-up) is repeated and its median reported;
the last daemon booted serves the timed window.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Dict, List, Tuple

from builds import BUILD_LAYERS
from checks import ExactCounts, check_modules, code_totals, figures
from harness import (
    Result,
    Speed,
    canonical_digest,
    median,
    nproc,
    percentile,
    setup_detail,
)

from repro.analysis import verify_design
from repro.apps import abp_network, dashboard_network, shock_network
from repro.estimation import calibrate
from repro.fleet.kernel import compile_network
from repro.fleet.sim import DEFAULT_LANES_PER_SHARD, FleetConfig, run_fleet
from repro.flow import build_system
from repro.pipeline import (
    ArtifactCache,
    build_module_artifacts,
    module_cache_key,
    synthesis_options,
)
from repro.rtos.runtime import Stimulus
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.target import K11

NETWORKS = {
    "dashboard": dashboard_network,
    "shock": shock_network,
    "abp": abp_network,
}
KINDS = ("synthesize", "estimate", "simulate", "fleet")
#: Requests of each kind per design in one block (see the module docstring).
BLOCK_SHARES = {"estimate": 3, "synthesize": 1, "simulate": 1, "fleet": 1}
STIMULUS_SETS = 6
SIM_EVENTS = 5
SIM_UNTIL = 250_000
FLEET_SEEDS = 4
FLEET_INSTANCES = 16
FLEET_STEPS = 50
#: Seconds of load between two readings of the machine's speed.
SLICE_S = 1.0
#: Fleet-summary fields that are wall-clock readings, not results.
FLEET_TIMING_FIELDS = ("wall_ms", "compile_ms", "reactions_per_sec")
#: Per-layer metrics of build layers this workload never calls in-process
#: (its builds run from the warm cache inside the daemon's workers).
UNEXERCISED = {
    **{f"{layer}.ms": "ms" for layer in BUILD_LAYERS},
    "synthesis.chi_nodes": "count",
    "sgraph.vertices": "count",
    "bdd.swaps": "count",
    "bdd.peak_nodes": "count",
    "bdd.ite_cache_hit_rate": "ratio",
    "pipeline.parallel_efficiency": "ratio",
}


def _stimuli(network, rng: random.Random) -> List[Dict[str, Any]]:
    events = network.environment_inputs()
    stimuli = []
    for _ in range(SIM_EVENTS):
        event = rng.choice(events)
        item = {"time": rng.randrange(SIM_UNTIL), "event": event.name}
        if event.is_valued:
            item["value"] = rng.randrange(1 << event.width)
        stimuli.append(item)
    stimuli.sort(key=lambda item: (item["time"], item["event"]))
    return stimuli


class RequestPlan:
    """The seeded request pools and each client's request stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.networks = {app: factory() for app, factory in NETWORKS.items()}
        self.stimuli = {
            app: [
                _stimuli(network, random.Random(f"{seed}:stim:{app}:{k}"))
                for k in range(STIMULUS_SETS)
            ]
            for app, network in self.networks.items()
        }

    def params(self, kind: str, app: str, rng: random.Random) -> Dict:
        if kind == "synthesize":
            return {"app": app}
        if kind == "estimate":
            machine = rng.choice(self.networks[app].machines)
            return {"app": app, "machine": machine.name}
        if kind == "simulate":
            return {"app": app, "stimuli": rng.choice(self.stimuli[app]),
                    "until": SIM_UNTIL}
        return {"app": app, "instances": FLEET_INSTANCES,
                "steps": FLEET_STEPS,
                "seed": self.seed * FLEET_SEEDS + rng.randrange(FLEET_SEEDS)}

    def stream(self, client: int):
        """Endless (kind, params) requests of one client, in blocks."""
        rng = random.Random(f"{self.seed}:client:{client}")
        block = [
            (kind, app)
            for kind, share in BLOCK_SHARES.items()
            for app in NETWORKS
            for _ in range(share)
        ]
        while True:
            rng.shuffle(block)
            for kind, app in block:
                yield kind, self.params(kind, app, rng)

    def warm_requests(self) -> List[Tuple[str, Dict]]:
        """Requests that fill every cache entry the window reads."""
        requests = [("synthesize", {"app": app}) for app in NETWORKS]
        for app, network in self.networks.items():
            for machine in network.machines:
                requests.append(
                    ("estimate", {"app": app, "machine": machine.name})
                )
        return requests


def comparable(kind: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a response that must equal the direct call."""
    if kind == "synthesize":
        result = dict(result)
        result["modules"] = {
            name: {k: v for k, v in module.items() if k != "from_cache"}
            for name, module in result["modules"].items()
        }
        return result
    if kind == "estimate":
        return {k: v for k, v in result.items() if k != "from_cache"}
    if kind == "fleet":
        return {k: v for k, v in result["summary"].items()
                if k not in FLEET_TIMING_FIELDS}
    return result


class DirectCalls:
    """The library calls a daemon worker makes, made here in-process."""

    def __init__(self, plan: RequestPlan):
        self.plan = plan
        self.cost = calibrate(K11)
        self.builds = {
            app: build_system(network, profile=K11, jobs=1)
            for app, network in plan.networks.items()
        }
        self._compiled: Dict[str, Any] = {}

    def result(self, kind: str, params: Dict) -> Dict[str, Any]:
        app = params["app"]
        network = self.plan.networks[app]
        if kind == "synthesize":
            build = self.builds[app]
            return {
                "network": network.name,
                "modules": {
                    name: {
                        "c_source": m.c_source,
                        "estimate": figures(m.estimate),
                        "measured": figures(m.measured),
                        "copied_state_vars": list(m.copied_state_vars),
                    }
                    for name, m in build.modules.items()
                },
                "rtos_source": build.rtos_source,
                "footprint": str(build.footprint),
                "report": build.report(),
            }
        if kind == "estimate":
            machine = network.machine(params["machine"])
            options = synthesis_options(
                scheme="sift", copy_elimination=False, params=self.cost
            )
            artifacts, _ = build_module_artifacts(
                machine, options, K11, self.cost
            )
            return {
                "module": artifacts.name,
                "scheme": artifacts.scheme,
                "estimate": figures(artifacts.estimate),
                "measured": figures(artifacts.measured),
                "c_source": artifacts.c_source,
            }
        if kind == "simulate":
            runtime = self.builds[app].simulate(
                [Stimulus(time=s["time"], event=s["event"],
                          value=s.get("value"))
                 for s in params["stimuli"]],
                until=params["until"],
            )
            return {
                "network": network.name,
                "stats": runtime.stats.to_dict(),
                "probes": [p.to_dict() for p in runtime.probes],
            }
        if app not in self._compiled:
            self._compiled[app] = compile_network(network)
        config = FleetConfig(
            instances=params["instances"], steps=params["steps"],
            seed=params["seed"], jobs=1,
            lanes_per_shard=DEFAULT_LANES_PER_SHARD,
        )
        summary = run_fleet(network, config, compiled=self._compiled[app])
        return comparable("fleet", {"summary": summary})


def _request_key(kind: str, params: Dict) -> str:
    return kind + json.dumps(params, sort_keys=True)


class ServeBench:
    """One run of ``serve-mixed``."""

    def __init__(self, seed: int, workspace, result: Result):
        self.seed = seed
        self.workspace = workspace
        self.result = result
        self.plan = RequestPlan(seed)
        self.clients = nproc()
        self.records: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.lock = threading.Lock()
        self._slice = None

    # -- set-up ---------------------------------------------------------------

    def _warm(self, handle) -> None:
        """Fill every cache entry the window reads, and give every client
        one fleet and one simulate request per design."""
        requests = self.plan.warm_requests()
        rng = random.Random(0)
        extra = [
            (kind, self.plan.params(kind, app, rng))
            for app in NETWORKS for kind in ("fleet", "simulate")
        ]
        errors = []

        def client(index: int) -> None:
            mine = requests[index::self.clients] + extra
            try:
                with ServeClient(port=handle.port) as c:
                    for kind, params in mine:
                        response = c.request(kind, params)
                        if response.get("status") != "ok":
                            errors.append(f"warm-up {kind}: {response}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"warm-up client {index}: {exc!r}")

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(errors[0])

    def _boot(self):
        self.cache_dir = self.workspace.fresh_dir("serve-cache")
        handle = serve_in_thread(
            ServeConfig(jobs=nproc(), cache_dir=self.cache_dir)
        )
        try:
            self._warm(handle)
        except BaseException:
            handle.stop()
            raise
        return handle

    # -- the window -------------------------------------------------------------

    def _client(self, index: int, port: int, gate: threading.Barrier) -> None:
        stream = self.plan.stream(index)
        try:
            with ServeClient(port=port) as c:
                while True:
                    gate.wait()  # a slice starts, or the window is over
                    if self._slice is None:
                        return
                    slice_index, slice_end = self._slice
                    while time.perf_counter() < slice_end:
                        self._request(c, next(stream), slice_index, slice_end)
                    gate.wait()  # slice over: the daemon goes idle
        except Exception as exc:  # noqa: BLE001 - fail the run, not hang it
            with self.lock:
                self.errors.append(f"client {index}: {exc!r}")
            gate.abort()

    def _request(self, client, request, slice_index: int,
                 slice_end: float) -> None:
        kind, params = request
        start = time.perf_counter()
        response = client.request(kind, params)
        end = time.perf_counter()
        with self.lock:
            self.records.append({
                "kind": kind, "params": params,
                "rt_ms": (end - start) * 1000.0, "slice": slice_index,
                # Throughput counts the replies that came in before the
                # slice ended, not the drain of the requests in flight.
                "in_slice": end <= slice_end, "response": response,
            })

    @staticmethod
    def _digest(record: Dict[str, Any]) -> None:
        """Reduce a response to what the checks and metrics need.  Done
        between slices, so the hashing adds no load to the daemon's."""
        response = record.pop("response")
        record["status"] = response.get("status")
        if record["status"] != "ok":
            record["error"] = response.get("error")
            return
        kind = record["kind"]
        result = response["result"]
        record["digest"] = canonical_digest(comparable(kind, result))
        if kind == "synthesize":
            record["modules"] = len(result["modules"])
        meta = response["meta"]
        record["queue_ms"] = meta["queue_wait_ms"]
        record["service_ms"] = meta["service_ms"]
        if kind == "fleet":
            record["reactions_per_s"] = result["summary"]["reactions_per_sec"]

    def _window(self, port: int, seconds: float) -> float:
        """Drive the daemon in slices; returns the slices' seconds at
        nominal speed.  Between slices every client waits, the daemon is
        idle, and the machine's speed is read (see ``harness.Speed``)."""
        gate = threading.Barrier(self.clients + 1, timeout=300)
        threads = [
            threading.Thread(target=self._client, args=(i, port, gate))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        factors: List[float] = []
        digested = 0
        with Speed(self.clients) as speed:
            deadline = time.perf_counter() + seconds
            try:
                while time.perf_counter() < deadline or len(factors) < 2:
                    self._slice = (len(factors), time.perf_counter() + SLICE_S)
                    gate.wait()
                    gate.wait()
                    factors.append(speed.factor())
                    for record in self.records[digested:]:
                        self._digest(record)
                    digested = len(self.records)
                self._slice = None
                gate.wait()
            except threading.BrokenBarrierError:
                self.errors.append("the load generator broke off")
                factors.append(speed.factor())  # for the unfinished slice
            finally:
                for thread in threads:
                    thread.join(timeout=300)
        for record in self.records[digested:]:
            self._digest(record)
        for record in self.records:
            factor = factors[record["slice"]]
            record["rt_raw_ms"] = record["rt_ms"]
            record["rt_ms"] /= factor
            if "service_ms" in record:
                record["queue_ms"] /= factor
                record["service_ms"] /= factor
            if "reactions_per_s" in record:
                record["reactions_per_s"] *= factor
        self.result.details.append(speed.summary())
        speed.check(self.result)
        return sum(SLICE_S / factor for factor in factors)

    def run(self, seconds: float, traced: bool, setup_repeats: int) -> None:
        result = self.result
        setup, setup_raw = [], []
        handle = None
        try:
            with Speed(self.clients) as speed:
                for attempt in range(setup_repeats):
                    start = time.perf_counter()
                    handle = self._boot()
                    setup_raw.append(time.perf_counter() - start)
                    setup.append(setup_raw[-1] / speed.factor())
                    if attempt < setup_repeats - 1:
                        handle.stop()
                        handle = None
            speed.check(result)
            with ServeClient(port=handle.port) as control:
                before = control.stats()["cache"]
                active = self._window(handle.port, seconds)
                after = control.stats()["cache"]
        finally:
            if handle is not None:
                handle.stop()
        for error in self.errors:
            result.fail(error)
        result.details.append(
            f"{len(self.records)} requests in {active:.1f} slice s at "
            f"nominal speed from {self.clients} closed-loop clients"
        )
        self._check()
        code_bytes, max_cycles = self._exact_counts()
        if traced:
            self._report_layers(before, after)
        else:
            self._report_end_to_end((setup, setup_raw), active)
            result.metric("code_bytes", code_bytes, "bytes")
            result.metric("max_cycles", max_cycles, "cycles")

    # -- checks -------------------------------------------------------------------

    def _check(self) -> None:
        result = self.result
        direct = DirectCalls(self.plan)
        expected: Dict[str, str] = {}
        for record in self.records:
            result.attempted += 1
            if record["status"] != "ok":
                result.fail(f"{record['kind']} {record['status']}: "
                            f"{record.get('error')}")
                continue
            key = _request_key(record["kind"], record["params"])
            if key not in expected:
                expected[key] = canonical_digest(
                    direct.result(record["kind"], record["params"]))
            if record["digest"] != expected[key]:
                result.fail(f"{record['kind']} response differs from the "
                            f"direct call for {record['params']}")
        result.details.append(
            f"{len(expected)} distinct requests checked against direct calls"
        )
        machines, built = {}, {}
        for app, build in direct.builds.items():
            for machine in self.plan.networks[app].machines:
                machines[machine.name] = machine
                built[machine.name] = build.modules[machine.name]
        check_modules(machines, built, self.seed, result)
        self.built = built

    def _exact_counts(self) -> Tuple[int, int]:
        exact = ExactCounts(self.result)
        code_bytes, max_cycles = code_totals(self.built)
        exact.observe("code_bytes", code_bytes)
        exact.observe("max_cycles", max_cycles)
        exact.check_ledger(["code_bytes", "max_cycles"])
        return code_bytes, max_cycles

    # -- reporting ----------------------------------------------------------------

    def _report_end_to_end(self, setup, active_s: float) -> None:
        result = self.result
        ok = [r for r in self.records if r["status"] == "ok"]
        synth = [r for r in ok if r["kind"] == "synthesize"]
        result.metric("setup_s", median(setup[0]), "s")
        result.details.append(setup_detail(*setup))
        synth_ms = [r["rt_ms"] for r in synth]
        synth_raw = [r["rt_raw_ms"] for r in synth]
        # A served build is a synthesize request, always from the warm cache.
        result.timing("build_ms_p50", synth_ms, 50, synth_raw)
        result.timing("build_ms_p90", synth_ms, 90, synth_raw)
        result.metric(
            "modules_per_s",
            sum(r["modules"] for r in synth) / (sum(synth_ms) / 1000.0),
            "1/s",
        )
        result.timing("warm_build_ms_p50", synth_ms, 50, synth_raw)
        # The daemon has no verify kind: a caller verifies the designs it
        # was served.  Timed here after the window, five calls per design.
        verify_ms, verify_raw = [], []
        with Speed() as speed:
            for network in 5 * list(self.plan.networks.values()):
                start = time.perf_counter()
                report = verify_design(network.machines, design=network.name)
                verify_raw.append((time.perf_counter() - start) * 1000.0)
                verify_ms.append(verify_raw[-1] / speed.factor())
                if report.has_errors():
                    result.fail(
                        f"{network.name}: verify_design reported errors")
        speed.check(result)
        result.timing("verify_ms_p50", verify_ms, 50, verify_raw)
        all_ms = [r["rt_ms"] for r in ok]
        all_raw = [r["rt_raw_ms"] for r in ok]
        result.timing("request_ms_p50", all_ms, 50, all_raw)
        result.timing("request_ms_p90", all_ms, 90, all_raw)
        for kind in KINDS:
            times = [r["rt_ms"] for r in ok if r["kind"] == kind]
            if times:
                result.details.append(
                    f"{kind}: {len(times)} requests, p50 "
                    f"{percentile(times, 50)[0]:.3f} ms, p90 "
                    f"{percentile(times, 90)[0]:.3f} ms"
                )
        result.metric("throughput_rps",
                      sum(r["in_slice"] for r in ok) / active_s, "1/s")

    def _report_layers(self, before, after) -> None:
        result = self.result
        ok = [r for r in self.records if r["status"] == "ok"]

        def p50(values):
            return median(values) if values else 0.0

        result.metric("serve.queue_wait.ms_p50",
                      p50([r["queue_ms"] for r in ok]), "ms")
        result.metric("serve.service.ms_p50",
                      p50([r["service_ms"] for r in ok]), "ms")
        result.metric("serve.transport.ms_p50", p50([
            r["rt_ms"] - r["queue_ms"] - r["service_ms"] for r in ok
        ]), "ms")
        for kind in KINDS:
            result.metric(f"serve.{kind}.service.ms_p50", p50([
                r["service_ms"] for r in ok if r["kind"] == kind
            ]), "ms")
        result.metric("serve.rejected", sum(
            r["status"] == "rejected" for r in self.records), "count")
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        result.metric("serve.cache.hit_rate",
                      hits / lookups if lookups else 0.0, "ratio")
        result.metric("fleet.reactions_per_s", p50([
            r["reactions_per_s"] for r in ok if r["kind"] == "fleet"
        ]), "1/s")
        self._probe_cache(after["bytes"])
        # The daemon records a causal trace of every request itself
        # (ServeConfig.trace_requests is on by default), and every
        # response carries the meta read above: the benchmark adds nothing.
        result.metric("trace.overhead_ms", 0.0, "ms")
        result.details.append(
            "tracing overhead: 0 ms: on serve-mixed the benchmark adds no "
            "tracing; it reads the meta every response carries"
        )

    def _probe_cache(self, cache_bytes: int) -> None:
        """Time the daemon's cache layer from outside: the lookups its
        workers make, against the same directory, and the matching writes
        into a fresh one."""
        cost = calibrate(K11)
        keys = []
        for network in self.plan.networks.values():
            for machine in network.machines:
                for copy_elimination in (True, False):
                    options = synthesis_options(
                        scheme="sift", copy_elimination=copy_elimination,
                        params=cost,
                    )
                    keys.append(module_cache_key(machine, options, K11))
        shared = ArtifactCache(self.cache_dir, shared=True)
        payloads = {}
        speed = Speed()
        start = time.perf_counter()
        for _ in range(3):
            for key in keys:
                payloads[key] = shared.get(key)
        get_ms = (time.perf_counter() - start) * 1000.0 / speed.factor()
        shared.release_pins()
        fresh = ArtifactCache(self.workspace.fresh_dir("probe-cache"))
        stored = [(k, v) for k, v in payloads.items() if v is not None]
        start = time.perf_counter()
        for key, payload in stored:
            fresh.put(key, payload)
        put_ms = (time.perf_counter() - start) * 1000.0 / speed.factor()
        result = self.result
        speed.check(result)
        result.metric("pipeline.cache.get.ms", get_ms / (3 * len(keys)), "ms")
        result.metric("pipeline.cache.put.ms",
                      put_ms / len(stored) if stored else 0.0, "ms")
        result.metric("pipeline.cache.hit_rate", shared.hit_rate, "ratio")
        result.metric("pipeline.cache.bytes", cache_bytes, "bytes")
