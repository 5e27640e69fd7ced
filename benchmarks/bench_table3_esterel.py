"""T3 — Table III: comparison of software synthesis with ESTEREL-style flows.

"We compared our software implementation to that produced by ESTEREL v5 for
the dashboard ... POLIS uses ESTEREL to process the CFSMs individually,
while the ESTEREL compiler processes the whole design into a single FSM."

Columns per flow: code size (bytes) and simulated cycles on a stimulus
file.  The committed table holds only these deterministic columns, so a
rerun reproduces it byte for byte; each flow's elapsed synthesis time is
printed to stdout alongside.  Flows:

* POLIS       — per-CFSM BDD-ordered synthesis (this paper);
* ESTEREL     — whole design composed into a single FSM, then synthesized;
* ESTEREL_OPT — same composition with the Boolean-circuit (outputs-first)
  style, "ordering outputs before inputs".

Shape claims: POLIS code is much smaller and synthesizes much faster; the
Boolean-circuit optimization "does not help" (ESTEREL_OPT >= ESTEREL in
size).
"""

import random

from repro.baselines import circuit_style_flow, polis_flow, single_fsm_flow
from repro.cfsm import react
from repro.rtos import RtosConfig, RtosRuntime, Stimulus
from repro.target import K11, run_reaction

from conftest import write_report


def _stimulus_trace(n=300, seed=11):
    """A reproducible dashboard stimulus file."""
    rng = random.Random(seed)
    trace = []
    t = 0
    for i in range(n):
        t += rng.randrange(1200, 2400)
        trace.append((t, "wpulse", None))
        if i % 5 == 4:
            trace.append((t + 300, "epulse", None))
        if i % 10 == 9:
            trace.append((t + 500, "stimer", None))
        if i % 20 == 19:
            trace.append((t + 650, "etimer", None))
        if i % 25 == 24:
            trace.append((t + 800, "fsample", rng.randrange(256)))
    return trace


def _simulate_polis(flow, network, trace):
    """Total reaction cycles executing the modular system under the RTOS."""
    rt = RtosRuntime(
        network, RtosConfig(), profile=K11, programs=flow.programs
    )
    rt.schedule_stimuli(
        [Stimulus(t, name, value) for t, name, value in trace]
    )
    stats = rt.run(until=trace[-1][0] + 100_000)
    return stats.busy_cycles


def _simulate_single_fsm(flow, trace):
    """Total reaction cycles executing the composed FSM per stimulus."""
    (product_name, program), = flow.programs.items()
    result = flow.results[product_name]
    cfsm = result.reactive.cfsm
    state = cfsm.initial_state()
    values = {}
    total = 0
    for _t, name, value in trace:
        if value is not None:
            values[name] = value
        outcome = run_reaction(program, K11, cfsm, dict(state), {name}, values)
        state = {k: outcome.memory[k] for k in state}
        total += outcome.cycles
    return total


def test_table3_flows(benchmark, dashboard_net):
    trace = _stimulus_trace()

    def run_all():
        polis = polis_flow(dashboard_net, K11)
        esterel = single_fsm_flow(dashboard_net, K11)
        opt = circuit_style_flow(dashboard_net, K11)
        sim = {
            "POLIS": _simulate_polis(polis, dashboard_net, trace),
            "ESTEREL": _simulate_single_fsm(esterel, trace),
            "ESTEREL_OPT": _simulate_single_fsm(opt, trace),
        }
        return [polis, esterel, opt], sim

    flows, sim = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Table III — comparison of software synthesis with ESTEREL",
        f"(dashboard network, K11 target, stimulus file of {len(_stimulus_trace())} events)",
        "",
        f"{'flow':12s} {'size (B)':>9s} {'sim cycles':>11s}",
    ]
    by_name = {}
    for flow in flows:
        by_name[flow.flow] = flow
        lines.append(f"{flow.flow:12s} {flow.code_size:9d} {sim[flow.flow]:11d}")
    write_report("table3_esterel", lines)
    print("synthesis time (wall clock, not part of the table):")
    for flow in flows:
        print(f"  {flow.flow:12s} {flow.synthesis_seconds:7.2f} s")

    polis, esterel, opt = (
        by_name["POLIS"], by_name["ESTEREL"], by_name["ESTEREL_OPT"],
    )
    # Shape claims of Sec. V-A.
    assert polis.code_size < esterel.code_size / 2
    assert opt.code_size >= esterel.code_size  # circuit style does not help
    assert polis.synthesis_seconds < esterel.synthesis_seconds


def test_table3_functional_equivalence(dashboard_net, benchmark):
    """The composed FSM and the modular network compute the same outputs."""
    from repro.baselines import synchronous_product
    from repro.cfsm import NetworkSimulator

    product = benchmark.pedantic(
        synchronous_product, args=(dashboard_net,), rounds=1, iterations=1
    )
    rng = random.Random(5)
    sim = NetworkSimulator(dashboard_net)
    state = product.initial_state()
    values = {}
    env_inputs = [e for e in dashboard_net.environment_inputs()]
    for _ in range(150):
        event = rng.choice(env_inputs)
        value = rng.randrange(256) if event.is_valued else None
        if value is not None:
            values[event.name] = value
        sim.inject(event.name, value)
        sim.run_until_quiescent()
        network_out = sorted(name for name, _ in sim.drain_environment())
        res = react(product, state, {event.name}, values)
        state = res.new_state
        assert sorted(e.name for e, _ in res.emissions) == network_out
