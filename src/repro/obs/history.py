"""Perf-trajectory tracking: merge benchmark reports, gate regressions.

Every benchmark report script in this repository emits a ``BENCH_*.json``
document (the BDD-engine, fleet-simulation, serving and
observability-overhead benches).  Each file captures one subsystem at one
commit; none of them shows a *trajectory*.  :func:`build_history` merges any set of them into one
``repro-bench-history/v1`` trend document: every numeric leaf of every
report, flattened to a dotted path prefixed with the report's stem
(``BENCH_bdd.json`` → ``bdd.counters.swaps``), so the same path names the
same quantity across commits and CI runs can diff documents over time.

:func:`check_history` is the regression gate (``repro bench-history
--check``): a committed reference file declares tracked metrics with
either a relative tolerance (``ref`` + ``max_regress_pct`` — fail when
the metric degrades more than N% against the recorded value) or an
absolute bound (``limit`` — fail when the metric crosses it; the right
tool for timing figures, which are too noisy for tight relative gates), or
an exact value (``equals`` — for deterministic counters).  ``better``
declares the good direction (``lower`` for wall times and sizes,
``higher`` for throughputs and hit rates).  A tracked metric that
vanished from the merged document fails too — silently dropping a
benchmark must not pass the gate.  :func:`load_reference` checks the
reference against its spec, so a malformed gate fails loudly instead of
passing everything.

:func:`bench_main` is the one ``main`` of the ``benchmarks/bench_*.py``
report scripts: it runs, validates, writes, renders and gates a report
against the single reference ``benchmarks/results/bench_history_reference.json``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .schema import BENCH_HISTORY_FORMAT, validate_bench_reference

__all__ = [
    "BENCH_HISTORY_FORMAT",
    "bench_main",
    "smoke_from_env",
    "flatten_metrics",
    "source_prefix",
    "build_history",
    "check_history",
    "render_history",
    "load_reference",
]


def flatten_metrics(doc: Any, prefix: str = "") -> Dict[str, float]:
    """Every numeric leaf of ``doc`` as ``{dotted.path: value}``.

    Booleans and the ``format`` tag are skipped; lists are indexed by
    position so array-valued figures stay addressable.
    """
    out: Dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            out[path] = node
            return
        if isinstance(node, dict):
            for key, value in node.items():
                if path == prefix and key == "format":
                    continue
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{path}[{index}]")

    walk(doc, prefix)
    return out


def source_prefix(path: str) -> str:
    """The metric-path prefix of one report file.

    ``BENCH_bdd.json`` → ``bdd``; a file without the ``BENCH_`` stem keeps
    its lowercase stem (``results.json`` → ``results``).
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem.upper().startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.lower()


def build_history(paths: List[str]) -> Dict[str, Any]:
    """Merge benchmark reports into one ``repro-bench-history/v1`` doc."""
    sources: List[str] = []
    metrics: Dict[str, float] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        prefix = source_prefix(path)
        sources.append(os.path.basename(path))
        metrics.update(flatten_metrics(doc, prefix))
    return {
        "format": BENCH_HISTORY_FORMAT,
        "sources": sources,
        "metrics": {key: metrics[key] for key in sorted(metrics)},
        "summary": {"metrics": len(metrics), "sources": len(sources)},
    }


def load_reference(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    errors = validate_bench_reference(doc)
    if errors:
        listing = "\n".join(f"  - {e}" for e in errors)
        raise ValueError(f"{path}: not a valid bench-history reference:\n{listing}")
    return doc


def _check_one(
    value: Optional[float], spec: Dict[str, Any]
) -> Tuple[str, str]:
    """Evaluate one tracked metric; returns ``(status, detail)``."""
    if value is None:
        return "missing", "metric absent from merged history"
    equals = spec.get("equals")
    if equals is not None and value != equals:
        return "fail", f"value {value:g} != expected {equals:g}"
    better = spec.get("better", "lower")
    limit = spec.get("limit")
    if limit is not None:
        if better == "lower" and value > limit:
            return "fail", f"value {value:g} above limit {limit:g}"
        if better == "higher" and value < limit:
            return "fail", f"value {value:g} below limit {limit:g}"
    ref = spec.get("ref")
    pct = spec.get("max_regress_pct")
    if ref is not None and pct is not None:
        if better == "lower":
            bound = ref * (1 + pct / 100.0)
            if value > bound:
                return (
                    "fail",
                    f"value {value:g} regressed >{pct:g}% vs ref {ref:g}",
                )
        else:
            bound = ref * (1 - pct / 100.0)
            if value < bound:
                return (
                    "fail",
                    f"value {value:g} regressed >{pct:g}% vs ref {ref:g}",
                )
    return "ok", ""


def check_history(
    history: Dict[str, Any], reference: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], int]:
    """Gate ``history`` against ``reference``; returns (checks, failures).

    The returned check entries are attached to the history document
    (``doc["checks"]``) by the CLI; a ``missing`` status counts as a
    failure so a benchmark silently dropping out of CI trips the gate.
    """
    metrics = history.get("metrics", {})
    checks: List[Dict[str, Any]] = []
    failures = 0
    for name in sorted(reference.get("metrics", {})):
        spec = reference["metrics"][name]
        value = metrics.get(name)
        status, detail = _check_one(value, spec)
        entry: Dict[str, Any] = {"metric": name, "status": status}
        if value is not None:
            entry["value"] = value
        for key in ("ref", "max_regress_pct", "limit", "equals", "better"):
            if key in spec:
                entry[key] = spec[key]
        if detail:
            entry["detail"] = detail
        if status != "ok":
            failures += 1
        checks.append(entry)
    return checks, failures


def render_history(doc: Dict[str, Any]) -> str:
    """Human-readable summary of a bench-history document."""
    lines = [
        f"bench history: {doc['summary']['metrics']} metrics from "
        f"{', '.join(doc.get('sources', []))}"
    ]
    checks = doc.get("checks")
    if checks is not None:
        for check in checks:
            status = check["status"]
            mark = {"ok": "ok  ", "fail": "FAIL", "missing": "MISS"}[status]
            line = f"  [{mark}] {check['metric']}"
            if "value" in check:
                line += f" = {check['value']:g}"
            if "limit" in check:
                line += f" (limit {check['limit']:g})"
            if "equals" in check:
                line += f" (equals {check['equals']:g})"
            if "ref" in check and "max_regress_pct" in check:
                line += (
                    f" (ref {check['ref']:g} "
                    f"±{check['max_regress_pct']:g}%)"
                )
            if check.get("detail"):
                line += f" — {check['detail']}"
            lines.append(line)
        failures = sum(1 for c in checks if c["status"] != "ok")
        lines.append(
            f"  {len(checks)} tracked, {failures} failing"
            if failures else f"  {len(checks)} tracked, all within bounds"
        )
    return "\n".join(lines)


#: The one gate file, in ``results/`` next to the bench report scripts.
REFERENCE_NAME = "bench_history_reference.json"


def smoke_from_env() -> bool:
    """The one ``REPRO_BENCH_SMOKE`` rule: any value but empty or ``0`` means smoke."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def bench_main(
    run_report: Callable[..., Dict[str, Any]],
    name: str,
    check: Optional[Callable[[Dict[str, Any]], Optional[str]]] = None,
    argv: Optional[List[str]] = None,
    reference: Optional[str] = None,
) -> int:
    """The shared ``main`` of the ``benchmarks/bench_*.py`` report scripts.

    Parses ``--json PATH`` (default ``name``) and ``--smoke``, runs
    ``run_report(smoke=...)``, validates the document against its spec,
    writes it as sorted JSON and prints its report.  Then it gates the
    document against the tracked metrics under the prefix of the canonical
    ``name`` (``BENCH_bdd.json`` → ``bdd.*``, whatever ``--json`` says) in
    ``reference`` — by default :data:`REFERENCE_NAME` in ``results/`` next
    to the file defining ``run_report``.  ``check(doc)`` may return a
    failure message for an invariant that is not a number.

    Returns the exit code: 0 when every check passes, 1 on any ``fail`` or
    ``missing`` metric or a failed ``check``, 2 on a malformed reference.
    """
    import argparse

    from .report import render_report
    from .schema import assert_valid_trace

    parser = argparse.ArgumentParser(description=sys.modules[run_report.__module__].__doc__)
    parser.add_argument("--json", metavar="PATH", default=name,
                        help="where to write the report document")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink workloads (or set REPRO_BENCH_SMOKE)")
    args = parser.parse_args(argv)
    if reference is None:
        script_dir = os.path.dirname(os.path.abspath(run_report.__code__.co_filename))
        reference = os.path.join(script_dir, "results", REFERENCE_NAME)
    try:
        tracked = load_reference(reference)["metrics"]
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    doc = run_report(smoke=args.smoke or smoke_from_env())
    assert_valid_trace(doc)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    print(render_report(doc))

    prefix = source_prefix(name)
    metrics = flatten_metrics(doc, prefix)
    own = {k: v for k, v in tracked.items() if k.startswith(prefix + ".")}
    checks, failures = check_history({"metrics": metrics}, {"metrics": own})
    print(render_history({
        "sources": [name], "summary": {"metrics": len(metrics)}, "checks": checks,
    }))
    problem = check(doc) if check else None
    if problem:
        print(f"FAIL: {problem}")
    return 1 if failures or problem else 0
