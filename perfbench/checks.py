"""Output checks: every operation's product is compared, outside timing.

* :func:`build_fingerprint` reduces a system build (module C, ISA-measured
  and estimated figures, RTOS C, footprint) to one digest, so a timed
  build can be compared byte for byte with a reference build.
* :func:`check_modules` runs the differential oracle
  (:func:`repro.difftest.oracle.check_case`: the C interpreter and the ISA
  simulator against :func:`repro.cfsm.semantics.react`) once on every
  distinct module a run built, on seeded random snapshots.
* :class:`ExactCounts` holds the figures that must repeat exactly — within
  a run and across every run made in one checkout of one source tree
  (every ``.py`` file under ``src/repro``, see :func:`source_digest`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, Mapping, Optional, Tuple

from harness import ROOT, SRC, Result, canonical_digest

#: Where exact counts persist between runs (one file per source tree).
LEDGER_DIR = os.path.join(ROOT, ".perfbench_ledger")


def source_digest(src: str = SRC) -> str:
    """sha256 over the path and bytes of every ``.py`` file under
    ``src/repro``: the source tree the exact counts belong to."""
    digest = hashlib.sha256()
    package = os.path.join(src, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def figures(analysis) -> Dict[str, int]:
    return {
        "code_size": analysis.code_size,
        "min_cycles": analysis.min_cycles,
        "max_cycles": analysis.max_cycles,
    }


def build_fingerprint(modules: Mapping[str, Any], rtos_source: str,
                      footprint: Any) -> str:
    """Digest of everything a system build hands its user.

    ``modules`` maps names to objects with ``c_source``, ``estimate``,
    ``measured`` and ``copied_state_vars`` (a ``ModuleBuild`` or a
    ``ModuleArtifacts``), in network order.
    """
    return canonical_digest({
        "modules": [
            [name, module.c_source, figures(module.estimate),
             figures(module.measured), list(module.copied_state_vars)]
            for name, module in modules.items()
        ],
        "rtos": rtos_source,
        "footprint": str(footprint),
    })


def code_totals(built: Mapping[str, Any]) -> Tuple[int, int]:
    """Summed measured code size and worst-case reaction cycles."""
    return (
        sum(m.measured.code_size for m in built.values()),
        sum(m.measured.max_cycles for m in built.values()),
    )


def check_modules(machines: Mapping[str, Any], built: Mapping[str, Any],
                  seed: int, result: Result, snapshots: int = 24) -> None:
    """Run the differential oracle once per distinct module.

    ``built`` maps module names to the artifacts the timed path produced;
    the oracle's own measured figures must match them too.
    """
    from repro.difftest.generator import random_snapshots
    from repro.difftest.oracle import check_case

    for index, (name, machine) in enumerate(sorted(machines.items())):
        result.attempted += 1
        rng = random.Random(f"{seed}:{name}")
        report = check_case(
            machine, random_snapshots(machine, rng, snapshots), index=index
        )
        if report.skipped:
            result.fail(f"oracle skipped {name}: {report.skipped}")
        elif not report.ok:
            first = report.mismatches[0]
            result.fail(
                f"oracle mismatch in {name}: {first.layer}/{first.kind} "
                f"{first.detail}"
            )
        elif report.measured != figures(built[name].measured):
            result.fail(f"oracle and build disagree on {name}'s figures")


class ExactCounts:
    """Counts that must never vary: a difference is nondeterminism."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.values: Dict[str, int] = {}

    def observe(self, key: str, value: int) -> None:
        """Record ``value`` under ``key``; a differing repeat is a failure."""
        previous = self.values.setdefault(key, value)
        if previous != value:
            self.result.fail(
                f"nondeterminism: {key} was {previous}, now {value}"
            )

    def check_ledger(self, names, ledger_dir: str = LEDGER_DIR,
                     tree: Optional[str] = None) -> None:
        """Compare ``names`` with earlier runs of the same source tree
        (``tree``, by default :func:`source_digest` of the checkout)."""
        os.makedirs(ledger_dir, exist_ok=True)
        tree = tree or source_digest()
        path = os.path.join(ledger_dir, f"{tree[:16]}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                ledger = json.load(handle)
        except (OSError, ValueError):
            ledger = {}
        for name in names:
            value = self.values[name]
            if ledger.setdefault(name, value) != value:
                self.result.fail(
                    f"nondeterminism: {name} is {value} here, "
                    f"{ledger[name]} in an earlier run"
                )
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, sort_keys=True)
        os.replace(tmp, path)
