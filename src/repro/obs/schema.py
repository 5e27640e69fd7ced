"""Declarative schemas for the ten ``repro`` JSON document formats.

Each format — build and run traces, the BDD, fleet-simulation, serving and
observability benchmark reports, the bench-history trend document, the
difftest campaign report and its replay documents, and the static-verify
report — is one spec in :data:`SPECS`, built from :func:`obj`,
:func:`list_of`, :func:`map_of`, :func:`one_of` and :func:`const` over typed
leaves (the package has no JSON-Schema dependency).  Bespoke code is kept
only for cross-field rules.  The bench-history reference file has a spec
too (:func:`validate_bench_reference`), so a malformed gate is rejected
instead of silently passing.  Every field a reporter reads has a type, so a
document that validates also renders.  An optional key may be absent; when
present it is checked like any other value, ``null`` included.  Validators
return a list of error strings (empty means valid) so CI can print every
problem at once; :func:`assert_valid_trace` wraps them in a raising form.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from .runtrace import RUN_EVENT_KINDS, RUN_TRACE_FORMAT

__all__ = [
    "validate_build_trace", "validate_run_trace", "validate_bdd_bench", "validate_sim_bench",
    "validate_serve_bench", "validate_bench_history",
    "validate_bench_reference", "validate_difftest_report",
    "validate_difftest_repro", "validate_verify_report", "validate_trace", "assert_valid_trace",
    "SPECS", "BUILD_TRACE_FORMAT", "BDD_BENCH_FORMAT", "SIM_BENCH_FORMAT",
    "SERVE_BENCH_FORMAT", "OBS_BENCH_FORMAT",
    "BENCH_HISTORY_FORMAT", "DIFFTEST_REPORT_FORMAT", "DIFFTEST_REPRO_FORMAT",
    "VERIFY_REPORT_FORMAT",
]

BUILD_TRACE_FORMAT = "repro-build-trace/v1"
BDD_BENCH_FORMAT = "repro-bdd-bench/v2"
SIM_BENCH_FORMAT = "repro-sim-bench/v1"
SERVE_BENCH_FORMAT = "repro-serve-bench/v1"
OBS_BENCH_FORMAT = "repro-obs-bench/v1"
BENCH_HISTORY_FORMAT = "repro-bench-history/v1"
DIFFTEST_REPORT_FORMAT = "repro-difftest/v1"
DIFFTEST_REPRO_FORMAT = "repro-difftest-repro/v1"
VERIFY_REPORT_FORMAT = "repro-verify-report/v1"

#: A spec checks the JSON value at path ``where`` and appends each problem to
#: ``errors``; a rule (a cross-field check on an :func:`obj`) has the same shape.
Spec = Callable[[Any, str, List[str]], None]


# -- Combinators -------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaf(desc: str, test: Callable[[Any], bool]) -> Spec:
    def check(value: Any, where: str, errors: List[str]) -> None:
        if not test(value):
            errors.append(f"{where} must be {desc}")

    return check


#: The typed leaves; a bool never counts as a number.
INTEGER = _leaf("an integer", _is_int)
COUNT = _leaf("a non-negative integer", lambda v: _is_int(v) and v >= 0)
POSITIVE_INT = _leaf("a positive integer", lambda v: _is_int(v) and v > 0)
NUMBER = _leaf("a number", _is_num)
NON_NEGATIVE = _leaf("a non-negative number", lambda v: _is_num(v) and v >= 0)
POSITIVE = _leaf("a positive number", lambda v: _is_num(v) and v > 0)
FRACTION = _leaf("a number in [0, 1]", lambda v: _is_num(v) and 0 <= v <= 1)
STRING = _leaf("a string", lambda v: isinstance(v, str))
BOOL = _leaf("a boolean", lambda v: isinstance(v, bool))
ANY = _leaf("any value", lambda v: True)  # a required key must still be present


def const(expected: str) -> Spec:
    def check(value: Any, where: str, errors: List[str]) -> None:
        if value != expected:
            errors.append(f"{where} is {value!r}, expected {expected!r}")

    return check


def one_of(*choices: str) -> Spec:
    def check(value: Any, where: str, errors: List[str]) -> None:
        if not isinstance(value, str) or value not in choices:
            name = where.rsplit(".", 1)[-1]
            errors.append(f"{where}: unknown {name} {value!r} (expected {'/'.join(choices)})")

    return check


def maybe(spec: Spec) -> Spec:
    """``spec``, or an explicit ``null``."""

    def check(value: Any, where: str, errors: List[str]) -> None:
        if value is not None:
            spec(value, where, errors)

    return check


def list_of(item: Spec = ANY, nonempty: bool = False) -> Spec:
    def check(value: Any, where: str, errors: List[str]) -> None:
        if not isinstance(value, list) or (nonempty and not value):
            errors.append(f"{where} must be a {'non-empty ' if nonempty else ''}list")
            return
        for i, entry in enumerate(value):
            item(entry, f"{where}[{i}]", errors)

    return check


def map_of(item: Spec = ANY, keys: Sequence[str] = (), nonempty: bool = False) -> Spec:
    """An object with free keys (restricted to ``keys`` if given)."""

    def check(value: Any, where: str, errors: List[str]) -> None:
        if not isinstance(value, dict) or (nonempty and not value):
            errors.append(f"{where} must be a {'non-empty ' if nonempty else ''}object")
            return
        for key, entry in value.items():
            if keys and key not in keys:
                errors.append(f"{where}: unknown key {key!r} (expected {'/'.join(keys)})")
            item(entry, f"{where}[{key!r}]", errors)

    return check


def obj(required: Optional[Dict[str, Spec]] = None, optional: Optional[Dict[str, Spec]] = None,
        rules: Sequence[Spec] = ()) -> Spec:
    """An object with typed ``required`` and ``optional`` keys; others pass."""

    def check(value: Any, where: str, errors: List[str]) -> None:
        if not isinstance(value, dict):
            errors.append(f"{where or 'document'} must be an object")
            return
        for key, spec in (required or {}).items():
            if key in value:
                spec(value[key], f"{where}.{key}" if where else key, errors)
            else:
                errors.append(f"{where}: missing {key!r}" if where else f"missing {key!r}")
        for key, spec in (optional or {}).items():
            if key in value:
                spec(value[key], f"{where}.{key}" if where else key, errors)
        for rule in rules:
            rule(value, where, errors)

    return check


def switch(tag: str, variants: Dict[str, Spec]) -> Spec:
    """Rule: also check an object against the variant its ``tag`` selects."""

    def check(value: Dict[str, Any], where: str, errors: List[str]) -> None:
        variant = value.get(tag)
        if isinstance(variant, str) and variant in variants:
            variants[variant](value, where, errors)

    return check


# -- Cross-field rules -------------------------------------------------


def count_of(field: str, items: str, **match: Sequence[str]) -> Spec:
    """Rule: ``summary.<field>`` counts the ``<items>`` entries, or only those
    whose ``match`` keys hold one of the given values."""

    def check(doc: Dict[str, Any], where: str, errors: List[str]) -> None:
        summary, present = doc.get("summary"), doc.get(items)
        if not isinstance(summary, dict) or not isinstance(present, (list, dict)):
            return
        if match:
            present = [
                e for e in present
                if isinstance(e, dict) and all(e.get(k) in v for k, v in match.items())
            ]
        count = summary.get(field)
        if (count is None or _is_int(count)) and count != len(present):
            what = items + "".join(f" with {k} {'/'.join(v)}" for k, v in match.items())
            errors.append(f"summary.{field}={count} but {len(present)} {what} present")

    return check


def ordered(low: str, high: str) -> Spec:
    """Rule: the object's ``low`` figure does not exceed its ``high`` one."""

    def check(value: Dict[str, Any], where: str, errors: List[str]) -> None:
        lo, hi = value.get(low), value.get(high)
        if _is_num(lo) and _is_num(hi) and lo > hi:
            errors.append(f"{where}: {low} > {high}")

    return check


def _is_hex(value: Any, width: int) -> bool:
    return isinstance(value, str) and re.fullmatch(f"[0-9a-fA-F]{{{width}}}", value) is not None


def _span_links(doc: Dict[str, Any], where: str, errors: List[str]) -> None:
    """A build trace with a ``trace_id`` links its events into one tree: unique
    16-hex ``span_id``s, every ``parent_id`` naming another span, and only
    the ``root_span_id`` span parentless."""
    if "trace_id" not in doc and "root_span_id" not in doc:
        return
    events = doc.get("events") if isinstance(doc.get("events"), list) else []
    if not _is_hex(doc.get("trace_id"), 32):
        errors.append("trace_id is not a 32-hex-char string")
    root = doc.get("root_span_id")
    if not _is_hex(root, 16):
        errors.append("root_span_id missing or not a 16-hex-char string")
    span_ids: Dict[str, int] = {}
    parents: Dict[str, Any] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        span_id = event.get("span_id")
        if not _is_hex(span_id, 16):
            errors.append(f"events[{i}]: span_id missing or not 16 hex chars")
            continue
        if span_id in span_ids:
            errors.append(f"events[{i}]: span_id {span_id} duplicates events[{span_ids[span_id]}]")
            continue
        span_ids[span_id] = i
        parent_id = event.get("parent_id")
        if parent_id is None:
            if span_id != root:
                errors.append(f"events[{i}]: non-root span {span_id} has no parent")
        elif not _is_hex(parent_id, 16):
            errors.append(f"events[{i}]: parent_id is not 16 hex chars")
        else:
            parents[span_id] = parent_id
    if isinstance(root, str) and root not in span_ids:
        errors.append(f"root_span_id {root} names no event")
    for span_id, parent_id in parents.items():
        if parent_id not in span_ids:
            errors.append(f"span {span_id}: parent {parent_id} names no event")
    # Walk each parent chain once: a chain that meets its own path is a cycle.
    done: set = set()
    for start in parents:
        path: List[str] = []
        node = start
        while node in parents and node not in done and node not in path:
            path.append(node)
            node = parents[node]
        if node in path:
            errors.append(f"span link cycle through {node}")
        done.update(path)


def _monotone_time(doc: Dict[str, Any], where: str, errors: List[str]) -> None:
    """Run-trace timestamps never go backwards."""
    last = 0
    events = doc.get("events") if isinstance(doc.get("events"), list) else []
    for i, event in enumerate(events):
        t = event.get("t") if isinstance(event, dict) else None
        if _is_int(t) and t >= 0:
            if t < last:
                errors.append(f"events[{i}]: timestamp {t} goes backwards (previous {last})")
            last = t


def _baseline_needs_speedup(scenario: Dict[str, Any], where: str, errors: List[str]) -> None:
    if "baseline" in scenario and "speedup" not in scenario:
        errors.append(f"{where}: baseline present but no speedup")


def _tracks_something(entry: Dict[str, Any], where: str, errors: List[str]) -> None:
    """Rule: a reference entry declares at least one check, and a relative
    band has both its halves."""
    if "ref" in entry or "max_regress_pct" in entry:
        if "ref" not in entry or "max_regress_pct" not in entry:
            errors.append(f"{where}: ref and max_regress_pct go together")
    elif "limit" not in entry and "equals" not in entry:
        errors.append(f"{where}: no check (expected limit, ref + max_regress_pct or equals)")


# -- Format specs ------------------------------------------------------

_BUILD_EVENT = obj(
    {"module": STRING, "name": STRING, "kind": one_of("pass", "cache", "stage")},
    {
        "wall_ms": NUMBER,
        "lane": COUNT,
        "metrics": obj(optional={"sift_timeline": list_of(obj(optional={"ite_hit_rate": NUMBER}))}),
    },
    rules=[switch("kind", {"cache": obj({"status": one_of("hit", "miss")})})],
)
_BUILD_TRACE = obj(
    {
        "format": const(BUILD_TRACE_FORMAT),
        "events": list_of(_BUILD_EVENT),
        "summary": obj(
            {"events": COUNT},
            {**dict.fromkeys(("synthesis_passes", "cache_hits", "cache_misses"), COUNT),
             "wall_ms": NUMBER},
        ),
    },
    {"metrics": map_of(NUMBER)},
    rules=[_span_links, count_of("events", "events")],
)

#: The data fields each kind of run-trace event carries.
_RUN_VARIANTS = {
    "stimulus": obj({"event": STRING}),
    "dispatch": obj({"task": STRING}),
    "preempt": obj({"task": STRING, "by": STRING}),
    "resume": obj({"task": STRING}),
    "complete": obj({"task": STRING, "cycles": COUNT}),
    "isr": obj({"event": STRING}),
    "isr_dispatch": obj({"task": STRING, "cycles": COUNT}),
    "react": obj({"machine": STRING, "task": STRING, "fired": BOOL, "consumed": list_of(STRING)}),
    "emit": obj({"event": STRING, "by": STRING}),
    "lost": obj({"event": STRING, "task": STRING, "where": one_of("flags", "pending")}),
    "poll": obj({"events": list_of(STRING)}),
}
_RUN_EVENT = obj(
    {"t": COUNT, "kind": one_of(*RUN_EVENT_KINDS)}, rules=[switch("kind", _RUN_VARIANTS)]
)
_RUN_TRACE = obj(
    {
        "format": const(RUN_TRACE_FORMAT),
        "system": STRING,
        "policy": STRING,
        "events": list_of(_RUN_EVENT),
        "stats": obj(optional={"span": NUMBER, "utilization": NUMBER}),
        "probes": list_of(obj({"source": ANY, "sink": ANY, "samples": list_of(NUMBER)})),
        "summary": obj({"events": COUNT}),
    },
    rules=[_monotone_time, count_of("events", "events")],
)

#: The sift counters are counted, not timed: they reproduce exactly and
#: are what the CI regression gate compares.  The node-store figures are
#: interpreter-dependent (sys.getsizeof), so reported, never gated.
_SIFT_COUNTERS = ("swaps", "swap_skips", "collects", "final_size")
_STORE_FIELDS = (
    "allocated_slots", "allocated_nodes", "store_bytes", "bytes_per_node", "complemented_lo_edges",
)
_BDD_BENCH = obj(
    {
        "format": const(BDD_BENCH_FORMAT),
        "smoke": BOOL,
        "workloads": map_of(
            obj({"wall_s": NON_NEGATIVE, "ops": POSITIVE_INT, "ops_per_sec": NUMBER})
        ),
        "sift": map_of(
            obj(
                {"wall_s": NON_NEGATIVE, **dict.fromkeys(_SIFT_COUNTERS, COUNT)},
                {"baseline": obj({"wall_s": NUMBER}), "speedup": NUMBER},
                rules=[_baseline_needs_speedup],
            ),
            nonempty=True,
        ),
        "counters": map_of(NUMBER),
        "store": obj(
            {**dict.fromkeys(_STORE_FIELDS, NON_NEGATIVE), "complement_edge_share": FRACTION}
        ),
    }
)

#: One timed simulation leg (the scalar baseline and the fleet backend).
_SIM_LEG = {"reactions": COUNT, "wall_s": NON_NEGATIVE, "reactions_per_sec": NUMBER}
_SIM_BENCH = obj(
    {
        "format": const(SIM_BENCH_FORMAT),
        "smoke": BOOL,
        "network": STRING,
        **dict.fromkeys(("instances", "steps", "kernel_ops"), POSITIVE_INT),
        "scalar": obj(_SIM_LEG),
        "backends": map_of(obj({**_SIM_LEG, "speedup": NUMBER}), nonempty=True),
        "crosscheck": obj({"lanes": COUNT, "mismatches": COUNT}),
        "determinism": obj({"jobs1_digest": STRING, "jobs4_digest": STRING, "match": BOOL}),
    }
)

#: One timed serving leg; the latency legs add percentiles (ms).
_SERVE_LEG = {"requests": POSITIVE_INT, "wall_s": NON_NEGATIVE, "throughput_rps": NUMBER}
_PERCENTILES = dict.fromkeys(("p50_ms", "p90_ms", "p99_ms"), NON_NEGATIVE)
_SERVE_BENCH = obj(
    {
        "format": const(SERVE_BENCH_FORMAT),
        "smoke": BOOL,
        "config": obj(dict.fromkeys(("jobs", "queue_depth", "clients"), POSITIVE_INT)),
        "latency": map_of(
            obj({**_SERVE_LEG, **_PERCENTILES}, rules=[ordered("p50_ms", "p99_ms")]),
            nonempty=True,
        ),
        "cache": obj(
            {"cold": obj(_SERVE_LEG), "warm": obj(_SERVE_LEG), "warm_over_cold": POSITIVE}
        ),
        "conformance": obj({"requests": POSITIVE_INT, "mismatches": COUNT}),
        "backpressure": obj(
            {"attempts": POSITIVE_INT, "rejected": COUNT, "retry_after_ms": NON_NEGATIVE}
        ),
        "soak": obj(
            {"requests": POSITIVE_INT, "errors": COUNT, "leaked_workers": COUNT, "pin_files": COUNT}
        ),
    }
)

#: The observability-overhead figures (BENCH_obs.json).
_OBS_BENCH = obj(
    {
        "format": const(OBS_BENCH_FORMAT),
        "smoke": BOOL,
        "build": obj(
            {**dict.fromkeys(("bare_wall_ms", "traced_wall_ms"), NON_NEGATIVE),
             "overhead_pct": NUMBER}
        ),
        "bus": obj(
            {"records": COUNT, **dict.fromkeys(("wall_ms", "records_per_sec"), NON_NEGATIVE)}
        ),
        "trace": obj(dict.fromkeys(("events", "lanes", "json_bytes"), COUNT)),
    }
)

_HISTORY_CHECK = obj(
    {"metric": STRING, "status": one_of("ok", "fail", "missing")},
    dict.fromkeys(("value", "limit", "ref", "max_regress_pct", "equals"), NUMBER),
)
_BENCH_HISTORY = obj(
    {
        "format": const(BENCH_HISTORY_FORMAT),
        "sources": list_of(STRING),
        "metrics": map_of(NUMBER),
        "summary": obj({"metrics": COUNT}, {"failures": COUNT}),
    },
    {"checks": list_of(_HISTORY_CHECK)},
    rules=[
        count_of("metrics", "metrics"),
        # A ``missing`` metric fails too: a benchmark silently dropping
        # out of CI must trip the gate.
        count_of("failures", "checks", status=("fail", "missing")),
    ],
)

#: A tracked metric of the bench-history reference: an absolute ``limit``,
#: a relative band (``ref`` + ``max_regress_pct``) or an exact ``equals``;
#: ``better`` gives the good direction of the first two.
_REFERENCE_ENTRY_FIELDS = {
    **dict.fromkeys(("limit", "ref", "equals"), NUMBER),
    "max_regress_pct": NON_NEGATIVE,
    "better": one_of("lower", "higher"),
}
_BENCH_REFERENCE = obj(
    {
        "metrics": map_of(
            obj(
                optional=_REFERENCE_ENTRY_FIELDS,
                rules=[map_of(keys=tuple(_REFERENCE_ENTRY_FIELDS)), _tracks_something],
            ),
            nonempty=True,
        )
    },
    {"note": STRING},
)

_LAYER_NAMES = ("reference", "bdd", "sgraph", "cgen", "isa", "analysis", "estimation")
_LAYER = one_of(*_LAYER_NAMES)
_DIFFTEST_REPRO = obj(
    {
        "format": const(DIFFTEST_REPRO_FORMAT),
        "cfsm": obj(
            {
                "name": STRING,
                **dict.fromkeys(("inputs", "outputs", "transitions"), list_of()),
                "state_vars": list_of(obj(optional={"num_values": POSITIVE_INT})),
            }
        ),
        "snapshots": list_of(
            obj({"state": obj(), "present": list_of(), "values": obj()}), nonempty=True
        ),
        "failure": obj({"layer": _LAYER}, {"detail": STRING}),
        "origin": obj(),
    }
)
_DIFFTEST_REPORT = obj(
    {
        "format": const(DIFFTEST_REPORT_FORMAT),
        "seed": INTEGER,
        "summary": obj(
            dict.fromkeys(("cases", "reactions", "failures", "skipped"), COUNT),
            {
                "mismatches_by_layer": map_of(COUNT, keys=_LAYER_NAMES),
                "estimate_max_over_measured": obj(),
            },
        ),
        "failures": list_of(
            obj(
                {
                    "index": INTEGER,
                    "mismatches": list_of(
                        obj({"layer": _LAYER, "kind": STRING}, {"detail": STRING}), nonempty=True
                    ),
                },
                # ``null`` when the campaign ran without shrinking.
                {"repro": maybe(_DIFFTEST_REPRO)},
            )
        ),
    },
    {
        "options": obj(optional={"schemes": list_of(STRING)}),
        "skipped_cases": list_of(obj(optional={"reason": STRING})),
    },
    rules=[count_of("failures", "failures")],
)

_CYCLE_BOUNDS = obj(
    dict.fromkeys(("code_size", "min_cycles", "max_cycles"), INTEGER),
    rules=[ordered("min_cycles", "max_cycles")],
)
_SEVERITIES = ("error", "warning", "info")
_VERIFY_REPORT = obj(
    {
        "format": const(VERIFY_REPORT_FORMAT),
        **dict.fromkeys(("design", "scheme", "profile"), STRING),
        "summary": obj(
            dict.fromkeys(("errors", "warnings", "infos", "exit_code", "modules"), COUNT)
        ),
        "modules": list_of(
            obj({"module": STRING, "estimate": _CYCLE_BOUNDS, "measured": _CYCLE_BOUNDS})
        ),
        "diagnostics": list_of(
            obj(
                {
                    **dict.fromkeys(("check", "artifact", "message"), STRING),
                    "severity": one_of(*_SEVERITIES),
                    "layer": one_of("network", "sgraph", "codegen", "verify", "verify-network"),
                }
            )
        ),
    },
    rules=[
        count_of("modules", "modules"),
        *[count_of(f"{s}s", "diagnostics", severity=(s,)) for s in _SEVERITIES],
    ],
)

#: Every document format and its spec; :mod:`repro.obs.report` keeps one
#: renderer per key.
SPECS: Dict[str, Spec] = {
    BUILD_TRACE_FORMAT: _BUILD_TRACE,
    RUN_TRACE_FORMAT: _RUN_TRACE,
    BDD_BENCH_FORMAT: _BDD_BENCH,
    SIM_BENCH_FORMAT: _SIM_BENCH,
    SERVE_BENCH_FORMAT: _SERVE_BENCH,
    OBS_BENCH_FORMAT: _OBS_BENCH,
    BENCH_HISTORY_FORMAT: _BENCH_HISTORY,
    DIFFTEST_REPORT_FORMAT: _DIFFTEST_REPORT,
    DIFFTEST_REPRO_FORMAT: _DIFFTEST_REPRO,
    VERIFY_REPORT_FORMAT: _VERIFY_REPORT,
}


# -- Validators --------------------------------------------------------


def _validator(fmt: str) -> Callable[[Any], List[str]]:
    def validate(doc: Any) -> List[str]:
        errors: List[str] = []
        SPECS[fmt](doc, "", errors)
        return errors

    validate.__doc__ = f"Check a ``{fmt}`` document; returns its errors (empty means valid)."
    return validate


validate_build_trace = _validator(BUILD_TRACE_FORMAT)
validate_run_trace = _validator(RUN_TRACE_FORMAT)
validate_bdd_bench = _validator(BDD_BENCH_FORMAT)
validate_sim_bench = _validator(SIM_BENCH_FORMAT)
validate_serve_bench = _validator(SERVE_BENCH_FORMAT)
validate_bench_history = _validator(BENCH_HISTORY_FORMAT)
validate_difftest_report = _validator(DIFFTEST_REPORT_FORMAT)
validate_difftest_repro = _validator(DIFFTEST_REPRO_FORMAT)
validate_verify_report = _validator(VERIFY_REPORT_FORMAT)


def validate_bench_reference(doc: Any) -> List[str]:
    """Check a bench-history reference file; returns its errors (empty means valid)."""
    errors: List[str] = []
    _BENCH_REFERENCE(doc, "", errors)
    return errors


def validate_trace(doc: Any) -> List[str]:
    """Check any document against the spec its ``format`` field names."""
    if not isinstance(doc, dict):
        return ["document must be an object"]
    fmt = doc.get("format")
    if not isinstance(fmt, str) or fmt not in SPECS:
        return [f"unknown trace format {fmt!r}"]
    return _validator(fmt)(doc)


def assert_valid_trace(doc: Dict[str, Any]) -> None:
    errors = validate_trace(doc)
    if errors:
        raise ValueError("invalid trace document:\n" + "\n".join(f"  - {e}" for e in errors))
