"""Run one benchmark workload; the last line of stdout is its JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-serial --seed 1 --seconds 30 --trace 0

Workloads: ``build-serial``, ``build-jobs`` (see ``builds.py``) and
``serve-mixed`` (see ``serving.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics and the tracing
overhead.  ``--smoke`` shortens set-up for the benchmark's own test.

The result line has the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give sample counts, machine facts and the
first failures.  The program is imported from the checkout's ``src``; a
checkout without it is an error (exit 2, no result).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import SRC, Result, Workspace, machine_facts, peak_rss_mb

WORKLOADS = ("build-serial", "build-jobs", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up repetition instead of several")
    return parser.parse_args(argv)


def run(args) -> Result:
    result = Result()
    traced = bool(args.trace)
    with Workspace() as workspace:
        if args.workload == "serve-mixed":
            import serving as workload

            bench = workload.ServeBench(args.seed, workspace, result)
            repeats = 5
        else:
            import builds as workload

            bench = workload.BuildBench(
                args.workload, args.seed, workspace, result
            )
            repeats = 9
        bench.run(args.seconds, traced, 1 if args.smoke else repeats)
    if traced:
        for name, unit in workload.UNEXERCISED.items():
            result.metric(name, 0.0, unit)
    else:
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    result.details.append(
        "failed_frac: "
        f"{result.failed / max(1, result.attempted):.6f} "
        f"({result.failed} of {result.attempted} operations)"
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    facts = machine_facts(args.seed)
    result = run(args)
    print("facts: " + json.dumps(facts, sort_keys=True))
    for line in result.details:
        print(line)
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
