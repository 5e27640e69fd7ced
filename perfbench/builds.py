"""The build workloads: ``build-serial`` and ``build-jobs``.

Both run a seeded, shuffled sequence of rounds; each round builds the RSL
text of ``dashboard``, ``shock`` and ``abp`` once, in a fresh order, so
every run holds the three designs in equal shares and its percentiles sit
inside, not between, the designs' build-time modes.

One operation of ``build-serial`` is the designer's edit-build-verify
step: RSL text -> ``build_system(jobs=1)`` (no cache) -> ``verify_design``.
One operation of ``build-jobs`` builds the same text at ``jobs=nproc``
into a fresh ``ArtifactCache``, rebuilds it warm from that cache, then
verifies at ``jobs=nproc``.

The traced run (``--trace 1``) alternates untraced and traced rounds. A
traced operation makes the calls ``build_system`` and
``build_module_artifacts`` make, in their order, each wrapped in a timer:
per-layer figures come from outside the program, and the traced build's C
is compared byte for byte with the untraced build's.
"""

from __future__ import annotations

import random
import shutil
import time
from collections import defaultdict
from typing import Dict, List

from checks import ExactCounts, build_fingerprint, check_modules, code_totals
from harness import (
    Result,
    Speed,
    Timings,
    median,
    nproc,
    setup_detail,
    time_fresh_processes,
)

from repro.analysis import render_verify_json, verify_design
from repro.apps import abp_sources, dashboard_sources, shock_sources
from repro.cfsm.network import Network
from repro.codegen import generate_c
from repro.estimation import calibrate, estimate
from repro.flow import build_system
from repro.frontend import compile_source
from repro.pipeline import (
    ArtifactCache,
    ModuleArtifacts,
    ModuleBuildTask,
    make_executor,
    module_cache_key,
    synthesis_options,
)
from repro.pipeline.passes import PassContext
from repro.rtos import RtosConfig, generate_rtos_c
from repro.rtos.footprint import system_footprint
from repro.sgraph import SynthesisResult, SynthesisState, synthesis_passes
from repro.synthesis import synthesize_reactive
from repro.target import K11, analyze_program, compile_sgraph

#: Workload app name -> (network name as the apps package builds it, sources).
APPS = {
    "dashboard": ("dashboard", dashboard_sources),
    "shock": ("shock_absorber", shock_sources),
    "abp": ("abp", abp_sources),
}

#: What a fresh process does before its first build: import every layer
#: a build and a verify touch, and calibrate the target's cost model.
SETUP_CODE = (
    "import repro.flow, repro.analysis, repro.frontend, repro.apps\n"
    "from repro.estimation import calibrate\n"
    "from repro.target import K11\n"
    "calibrate(K11)\n"
)

#: Layers a build-workload traced run reports as ``<layer>.ms``.
BUILD_LAYERS = (
    "frontend.compile_source",
    "synthesis.synthesize_reactive",
    "sgraph.order",
    "sgraph.build",
    "sgraph.reduce",
    "sgraph.prune",
    "sgraph.multiway",
    "sgraph.copy-elim",
    "target.compile_sgraph",
    "codegen.generate_c",
    "estimation.estimate",
    "target.analyze_program",
    "rtos",
    "analysis.verify_design",
    "pipeline.executor.run",
)
#: Per-layer metrics of the daemon, which the build workloads never start.
UNEXERCISED = {
    "serve.queue_wait.ms_p50": "ms",
    "serve.service.ms_p50": "ms",
    "serve.transport.ms_p50": "ms",
    "serve.rejected": "count",
    "serve.cache.hit_rate": "ratio",
    "serve.synthesize.service.ms_p50": "ms",
    "serve.estimate.service.ms_p50": "ms",
    "serve.simulate.service.ms_p50": "ms",
    "serve.fleet.service.ms_p50": "ms",
    "fleet.reactions_per_s": "1/s",
}


def compile_app(app: str, timings: Timings = None) -> Network:
    """RSL text -> CFSM network, through the frontend."""
    name, sources = APPS[app]
    machines = [
        timings.call("frontend.compile_source", compile_source, text)
        if timings is not None else compile_source(text)
        for text in sources().values()
    ]
    return Network(name, machines)


def _options():
    params = calibrate(K11)
    return params, synthesis_options(
        scheme="sift", copy_elimination=True, params=params
    )


class BuildBench:
    """One run of ``build-serial`` (jobs=1) or ``build-jobs`` (jobs=nproc)."""

    def __init__(self, workload: str, seed: int, workspace, result: Result):
        self.jobs = 1 if workload == "build-serial" else nproc()
        self.seed = seed
        self.workspace = workspace
        self.result = result
        self.exact = ExactCounts(result)
        self.reference: Dict[str, str] = {}
        self.verify_reference: Dict[str, str] = {}
        self.machines: Dict[str, object] = {}
        self.built: Dict[str, object] = {}
        self._reset()

    def _reset(self) -> None:
        #: Operations and the layers inside them, one sample per operation.
        self.timings = Timings()
        self.modules_built = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.cache_bytes: List[int] = []

    # -- checks -------------------------------------------------------------

    def _expect(self, app: str, what: str, fingerprint: str) -> None:
        if fingerprint != self.reference[app]:
            self.result.fail(f"{app}: {what} differs from the serial build")

    def _expect_verify(self, app: str, report) -> None:
        if report.has_errors():
            self.result.fail(f"{app}: verify_design reported errors")
        elif render_verify_json(report) != self.verify_reference[app]:
            self.result.fail(f"{app}: verify report differs from reference")

    # -- untraced operations ------------------------------------------------

    def _op_serial(self, app: str) -> None:
        timings = self.timings
        start = time.perf_counter()
        network = compile_app(app)
        build = build_system(network, jobs=1)
        built = timings.since("build", start)
        report = verify_design(network.machines, design=network.name)
        timings.since("verify", built)
        timings.since("op", start)
        self.result.attempted += 2
        self.modules_built += len(build.modules)
        self._expect(app, "build", build_fingerprint(
            build.modules, build.rtos_source, build.footprint))
        self._expect_verify(app, report)

    def _op_jobs(self, app: str) -> None:
        timings = self.timings
        cache = ArtifactCache(self.workspace.fresh_dir("cache"))
        try:
            start = time.perf_counter()
            network = compile_app(app)
            cold = build_system(network, jobs=self.jobs, cache=cache)
            built = timings.since("build", start)
            warm = build_system(compile_app(app), jobs=self.jobs, cache=cache)
            rebuilt = timings.since("warm", built)
            report = verify_design(
                network.machines, design=network.name, jobs=self.jobs
            )
            timings.since("verify", rebuilt)
            timings.since("op", start)
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)
        self.result.attempted += 3
        self.modules_built += len(cold.modules)
        for what, build in (("cold build", cold), ("warm rebuild", warm)):
            self._expect(app, what, build_fingerprint(
                build.modules, build.rtos_source, build.footprint))
        if any(m.from_cache for m in cold.modules.values()) or not all(
            m.from_cache for m in warm.modules.values()
        ):
            self.result.fail(f"{app}: cache temperature not as expected")
        self._expect_verify(app, report)

    # -- traced operations --------------------------------------------------

    def _module_traced(self, machine, options, params) -> ModuleArtifacts:
        """``build_module_artifacts``'s calls, each timed as its layer."""
        layers = self.timings
        start = time.perf_counter()
        rf = layers.call(
            "synthesis.synthesize_reactive", synthesize_reactive, machine
        )
        state = SynthesisState(
            rf=rf, scheme=options["scheme"], mixed_seed=options["mixed_seed"]
        )
        context = PassContext(module=machine.name)
        passes = synthesis_passes(
            options["scheme"],
            multiway=options["multiway"],
            multiway_threshold=options["multiway_threshold"],
            prune=options["prune"],
            copy_elimination=options["copy_elimination"],
        )
        figures = {}
        for stage in passes:
            figures.update(
                layers.call(f"sgraph.{stage.name}", stage.run, state, context)
                or {}
            )
        result = SynthesisResult(
            reactive=rf, sgraph=state.sgraph, order=state.order,
            scheme=options["scheme"], copy_vars=state.copy_vars,
        )
        program = layers.call(
            "target.compile_sgraph", compile_sgraph, result, K11
        )
        c_source = layers.call("codegen.generate_c", generate_c, result)
        est = layers.call(
            "estimation.estimate", estimate, result.sgraph,
            rf.encoding, params, copy_vars=result.copy_vars,
        )
        measured = layers.call(
            "target.analyze_program", analyze_program, program, K11
        )
        layers.since("serial_modules", start)
        kernel = rf.manager.counters()
        for key, value in (
            ("chi_nodes", figures["chi_nodes"]),
            ("vertices", figures["sgraph_vertices"]),
            ("swaps", kernel["swaps"]),
            ("peak_nodes", kernel["peak_nodes"]),
            ("ite_hits", kernel["ite_cache_hits"]),
            ("ite_misses", kernel["ite_cache_misses"]),
        ):
            self.exact.observe(f"module.{machine.name}.{key}", value)
        return ModuleArtifacts(
            name=machine.name, scheme=options["scheme"], c_source=c_source,
            program=program, estimate=est, measured=measured,
            copied_state_vars=result.copied_state_vars(),
        )

    def _system_traced(self, network: Network, cache=None) -> str:
        """``build_system``'s calls, each timed as its layer; returns the
        build's fingerprint.  Without a cache, modules are built in-process
        layer by layer; with one, misses go through the process pool."""
        layers = self.timings
        params, options = _options()
        config = RtosConfig()
        software = [
            m for m in network.machines if m.name not in config.hw_machines
        ]
        modules = {}
        pending = []
        for machine in software:
            if cache is None:
                modules[machine.name] = self._module_traced(
                    machine, options, params
                )
                continue
            key = module_cache_key(machine, options, K11)
            artifacts = layers.call("pipeline.cache.get", cache.get, key)
            self.cache_lookups += 1
            if artifacts is not None:
                self.cache_hits += 1
                modules[machine.name] = artifacts
            else:
                pending.append((machine, key))
        if pending:
            tasks = [
                ModuleBuildTask(
                    machine=machine, options=options, profile=K11,
                    params=params,
                )
                for machine, _ in pending
            ]
            outcomes = layers.call(
                "pipeline.executor.run", make_executor(self.jobs).run, tasks
            )
            for (machine, key), outcome in zip(pending, outcomes):
                layers.call(
                    "pipeline.cache.put", cache.put, key, outcome.artifacts
                )
                modules[machine.name] = outcome.artifacts
        modules = {m.name: modules[m.name] for m in software}
        rtos_source = layers.call("rtos", generate_rtos_c, network, config)
        footprint = layers.call(
            "rtos", system_footprint, network, config, K11,
            {name: m.program for name, m in modules.items()},
            copied_counts={
                name: len(m.copied_state_vars) for name, m in modules.items()
            },
        )
        return build_fingerprint(modules, rtos_source, footprint)

    def _op_traced_serial(self, app: str) -> None:
        layers = self.timings
        start = time.perf_counter()
        network = compile_app(app, layers)
        fingerprint = self._system_traced(network)
        report = layers.call(
            "analysis.verify_design", verify_design,
            network.machines, design=network.name,
        )
        layers.since("traced_op", start)
        self.result.attempted += 2
        self._expect(app, "traced build", fingerprint)
        self._expect_verify(app, report)

    def _op_traced_jobs(self, app: str) -> None:
        layers = self.timings
        cache = ArtifactCache(self.workspace.fresh_dir("cache"))
        try:
            start = time.perf_counter()
            network = compile_app(app, layers)
            cold = self._system_traced(network, cache)
            warm = self._system_traced(compile_app(app, layers), cache)
            report = layers.call(
                "analysis.verify_design", verify_design,
                network.machines, design=network.name, jobs=self.jobs,
            )
            layers.since("traced_op", start)
            self.cache_bytes.append(cache.total_bytes())
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)
        self.result.attempted += 4
        self._expect(app, "traced cold build", cold)
        self._expect(app, "traced warm rebuild", warm)
        self._expect_verify(app, report)
        # The same modules built one after another in this process, outside
        # the operation's timer: the per-layer split of the work the pool
        # did, and the serial time the pool's efficiency is measured by.
        self._expect(app, "layer-by-layer build", self._system_traced(network))

    # -- the run ------------------------------------------------------------

    def _operation(self, app: str, traced: bool) -> None:
        serial = self.jobs == 1
        if traced:
            op = self._op_traced_serial if serial else self._op_traced_jobs
        else:
            op = self._op_serial if serial else self._op_jobs
        try:
            op(app)
        except Exception as exc:  # noqa: BLE001 - count it, go on
            self.result.attempted += 1
            self.result.fail(f"{app}: {type(exc).__name__}: {exc}")

    def _warm_up(self, traced: bool) -> None:
        """Reference builds, then one untimed operation per design."""
        for app in APPS:
            network = compile_app(app)
            build = build_system(network, jobs=1)
            self.reference[app] = build_fingerprint(
                build.modules, build.rtos_source, build.footprint
            )
            self.verify_reference[app] = render_verify_json(
                verify_design(network.machines, design=network.name)
            )
            for machine in network.machines:
                self.machines[machine.name] = machine
                self.built[machine.name] = build.modules[machine.name]
        for app in APPS:
            self._operation(app, traced=False)
            if traced:
                self._operation(app, traced=True)
        self._reset()

    def run(self, seconds: float, traced: bool, setup_repeats: int) -> None:
        result = self.result
        with Speed() as speed:
            setup = time_fresh_processes(SETUP_CODE, setup_repeats, speed)
        speed.check(result)
        self._warm_up(traced)
        rng = random.Random(self.seed)
        apps = list(APPS)
        rounds = 0
        with Speed(self.jobs) as speed:
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline or rounds < 1 + traced:
                rng.shuffle(apps)
                for app in apps:
                    self._operation(app, traced and rounds % 2 == 1)
                    self.timings.commit(speed.factor())
                rounds += 1
            wall = time.perf_counter() - start
        result.details.append(
            f"{rounds} rounds in {wall:.1f} s, jobs={self.jobs}"
        )
        result.details.append(speed.summary())
        speed.check(result)

        check_modules(self.machines, self.built, self.seed, result)
        code_bytes, max_cycles = code_totals(self.built)
        self.exact.observe("code_bytes", code_bytes)
        self.exact.observe("max_cycles", max_cycles)
        ledger = ["code_bytes", "max_cycles"]

        if not traced:
            self._report_end_to_end(setup, code_bytes, max_cycles)
        else:
            ledger += self._report_layers()
        self.exact.check_ledger(ledger)

    def _report_end_to_end(self, setup, code_bytes, max_cycles):
        result = self.result
        samples, raw = self.timings.samples, self.timings.raw
        result.metric("setup_s", median(setup[0]), "s")
        result.details.append(setup_detail(*setup))
        result.timing("build_ms_p50", samples["build"], 50, raw["build"])
        result.timing("build_ms_p90", samples["build"], 90, raw["build"])
        result.metric(
            "modules_per_s",
            self.modules_built / (self.timings.total("build") / 1000.0),
            "1/s",
        )
        result.timing("verify_ms_p50", samples["verify"], 50, raw["verify"])
        # Without a cache every rebuild is a cold build: the same samples.
        warm = "warm" if samples["warm"] else "build"
        result.timing("warm_build_ms_p50", samples[warm], 50, raw[warm])
        result.timing("request_ms_p50", samples["op"], 50, raw["op"])
        result.timing("request_ms_p90", samples["op"], 90, raw["op"])
        result.metric(
            "throughput_rps",
            len(samples["op"]) / (self.timings.total("op") / 1000.0), "1/s",
        )
        result.metric("code_bytes", code_bytes, "bytes")
        result.metric("max_cycles", max_cycles, "cycles")

    def _report_layers(self) -> List[str]:
        """Per-layer metrics, per traced operation; returns exact-count names."""
        result = self.result
        timings = self.timings
        ops = max(1, len(timings.samples["traced_op"]))
        for layer in BUILD_LAYERS:
            result.metric(f"{layer}.ms", timings.total(layer) / ops, "ms")
        for layer in ("pipeline.cache.get", "pipeline.cache.put"):
            calls = timings.calls[layer]
            result.metric(
                f"{layer}.ms", timings.total(layer) / calls if calls else 0.0,
                "ms",
            )
        pool_ms = timings.total("pipeline.executor.run")
        result.metric(
            "pipeline.parallel_efficiency",
            timings.total("serial_modules") / (self.jobs * pool_ms)
            if pool_ms else 0.0,
            "ratio",
        )
        result.metric(
            "pipeline.cache.hit_rate",
            self.cache_hits / self.cache_lookups if self.cache_lookups
            else 0.0,
            "ratio",
        )
        result.metric("pipeline.cache.bytes", median(self.cache_bytes), "bytes")
        totals: Dict[str, int] = defaultdict(int)
        for key, value in self.exact.values.items():
            if key.startswith("module."):
                totals[key.rsplit(".", 1)[1]] += value
        counts = {
            "synthesis.chi_nodes": totals["chi_nodes"],
            "sgraph.vertices": totals["vertices"],
            "bdd.swaps": totals["swaps"],
            "bdd.peak_nodes": totals["peak_nodes"],
        }
        for name, value in counts.items():
            result.metric(name, value, "count")
            self.exact.observe(name, value)
        lookups = totals["ite_hits"] + totals["ite_misses"]
        result.metric(
            "bdd.ite_cache_hit_rate",
            totals["ite_hits"] / lookups if lookups else 0.0, "ratio",
        )
        overhead = median(timings.samples["traced_op"]) - median(
            timings.samples["op"]
        )
        result.metric("trace.overhead_ms", overhead, "ms")
        result.details.append(
            f"tracing overhead: {overhead:.3f} ms per operation "
            f"({len(timings.samples['traced_op'])} traced, "
            f"{len(timings.samples['op'])} untraced operations)"
        )
        return list(counts)
