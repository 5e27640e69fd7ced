"""Bench-history merging, the regression gate and the shared bench main."""

import glob
import json
import os
import re

import pytest

from repro.obs import (
    BENCH_HISTORY_FORMAT,
    bench_main,
    build_history,
    check_history,
    flatten_metrics,
    load_reference,
    render_history,
    smoke_from_env,
    validate_bench_history,
    validate_bench_reference,
    validate_trace,
)
from repro.obs.history import source_prefix


def test_flatten_walks_nested_dicts_lists_and_skips_bools():
    doc = {
        "format": "repro-x/v1",
        "smoke": True,
        "build": {"wall_ms": 12.5, "counts": [3, 4]},
    }
    flat = flatten_metrics(doc, "obs")
    assert flat == {
        "obs.build.wall_ms": 12.5,
        "obs.build.counts[0]": 3,
        "obs.build.counts[1]": 4,
    }


def test_source_prefix_strips_bench_stem():
    assert source_prefix("/a/b/BENCH_obs.json") == "obs"
    assert source_prefix("BENCH_bdd.json") == "bdd"
    assert source_prefix("results.json") == "results"


@pytest.fixture
def reports(tmp_path):
    obs = tmp_path / "BENCH_obs.json"
    obs.write_text(json.dumps({"build": {"overhead_pct": 4.0}}))
    bdd = tmp_path / "BENCH_bdd.json"
    bdd.write_text(json.dumps({"sift": {"small": {"swaps": 100}}}))
    return [str(obs), str(bdd)]


def test_build_history_merges_and_validates(reports):
    doc = build_history(reports)
    assert doc["format"] == BENCH_HISTORY_FORMAT
    assert doc["sources"] == ["BENCH_obs.json", "BENCH_bdd.json"]
    assert doc["metrics"] == {
        "bdd.sift.small.swaps": 100,
        "obs.build.overhead_pct": 4.0,
    }
    assert validate_bench_history(doc) == []
    assert validate_trace(doc) == []


def test_check_passes_within_limits(reports):
    doc = build_history(reports)
    reference = {
        "metrics": {
            "obs.build.overhead_pct": {"limit": 10, "better": "lower"},
            "bdd.sift.small.swaps": {"ref": 100, "max_regress_pct": 20},
        }
    }
    checks, failures = check_history(doc, reference)
    assert failures == 0
    assert [c["status"] for c in checks] == ["ok", "ok"]


def test_check_fails_on_limit_and_relative_regression(reports):
    doc = build_history(reports)
    reference = {
        "metrics": {
            # better=lower with value above the limit.
            "obs.build.overhead_pct": {"limit": 2, "better": "lower"},
            # better=higher with a >5% drop vs the reference.
            "bdd.sift.small.swaps": {
                "ref": 200, "max_regress_pct": 5, "better": "higher",
            },
        }
    }
    checks, failures = check_history(doc, reference)
    assert failures == 2
    assert all(c["status"] == "fail" for c in checks)


def test_missing_tracked_metric_fails_the_gate(reports):
    doc = build_history(reports)
    reference = {"metrics": {"pipeline.vanished": {"limit": 1}}}
    checks, failures = check_history(doc, reference)
    assert failures == 1
    assert checks[0]["status"] == "missing"
    # Attached to the doc, the summary must stay consistent for the schema.
    doc["checks"] = checks
    doc["summary"]["checked"] = len(checks)
    doc["summary"]["failures"] = failures
    assert validate_bench_history(doc) == []


def test_render_history_marks_statuses(reports):
    doc = build_history(reports)
    reference = {
        "metrics": {
            "obs.build.overhead_pct": {"limit": 10, "better": "lower"},
            "pipeline.vanished": {"limit": 1},
        }
    }
    checks, failures = check_history(doc, reference)
    doc["checks"] = checks
    text = render_history(doc)
    assert "[ok  ] obs.build.overhead_pct" in text
    assert "[MISS] pipeline.vanished" in text
    assert "1 failing" in text


def test_validator_rejects_inconsistent_summary(reports):
    doc = build_history(reports)
    doc["summary"]["metrics"] = 99
    assert validate_bench_history(doc)


# -- Exact-match entries ---------------------------------------------------


def test_equals_passes_on_the_value_and_fails_either_side():
    reference = {"metrics": {"bdd.sift.small.swaps": {"equals": 100}}}
    for value, status in ((100, "ok"), (101, "fail"), (99, "fail")):
        checks, failures = check_history(
            {"metrics": {"bdd.sift.small.swaps": value}}, reference
        )
        assert checks[0]["status"] == status, value
        assert failures == (status != "ok")
        assert checks[0]["equals"] == 100
    doc = {"format": BENCH_HISTORY_FORMAT, "sources": [], "summary": {"metrics": 1},
           "metrics": {"bdd.sift.small.swaps": 99}, "checks": checks}
    assert "(equals 100)" in render_history(doc)
    doc["summary"]["failures"] = 1
    assert validate_bench_history(doc) == []


# -- The single reference --------------------------------------------------

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
REFERENCE = os.path.join(REPO_ROOT, "benchmarks", "results", "bench_history_reference.json")
COMMITTED = [os.path.join(REPO_ROOT, f"BENCH_{n}.json") for n in ("bdd", "obs", "serve", "sim")]


def test_single_reference_is_the_only_gate_file():
    results = glob.glob(os.path.join(REPO_ROOT, "benchmarks", "results", "*.json"))
    assert results == [REFERENCE]


def test_committed_documents_carry_every_tracked_metric_and_pass():
    reference = load_reference(REFERENCE)
    history = build_history(COMMITTED)
    assert set(reference["metrics"]) <= set(history["metrics"])
    checks, failures = check_history(history, reference)
    assert failures == 0, [c for c in checks if c["status"] != "ok"]
    # Every committed document is gated by at least one entry.
    prefixes = {name.split(".", 1)[0] for name in reference["metrics"]}
    assert prefixes == {"bdd", "obs", "serve", "sim"}


@pytest.mark.parametrize(
    "entry, problem",
    [
        ({"limit": -1, "better": "lowr"}, "unknown better 'lowr'"),
        ({"limt": 1e9}, "unknown key 'limt'"),
        ({"ref": 1, "better": "lower"}, "ref and max_regress_pct go together"),
    ],
    ids=["bad-direction", "misspelled-key", "ref-without-band"],
)
def test_malformed_reference_is_rejected(tmp_path, capsys, entry, problem):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"metrics": {"sim.kernel_ops": entry}}))
    with pytest.raises(ValueError, match=re.escape(problem)):
        load_reference(str(path))

    from repro.cli import main

    sim = os.path.join(REPO_ROOT, "BENCH_sim.json")
    assert main(["bench-history", sim, "--check", str(path)]) == 2
    assert problem in capsys.readouterr().err
    # The shared bench main refuses it before running anything.
    assert bench_main(_never_run, "BENCH_sim.json", argv=[], reference=str(path)) == 2


def test_reference_entry_needs_a_numeric_check():
    assert validate_bench_reference({"metrics": {"a.b": {"better": "lower"}}})
    assert validate_bench_reference({"metrics": {"a.b": {"equals": "5"}}})
    assert validate_bench_reference({"metrics": {}})
    assert validate_bench_reference(load_reference(REFERENCE)) == []


# -- The shared bench main -------------------------------------------------


def _never_run(smoke=False):
    raise AssertionError("the bench must not run")


def _committed(name):
    with open(os.path.join(REPO_ROOT, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("delta", [0, 1, -1])
def test_bench_main_gates_by_canonical_prefix(tmp_path, capsys, delta):
    doc = _committed("BENCH_bdd.json")
    doc["sift"]["small"]["swaps"] += delta
    out = tmp_path / "other.json"
    code = bench_main(lambda smoke: doc, "BENCH_bdd.json", argv=["--json", str(out)],
                      reference=REFERENCE)
    assert code == (1 if delta else 0)
    assert json.loads(out.read_text()) == doc
    text = capsys.readouterr().out
    assert text.startswith(f"wrote {out}\n== bdd engine bench")
    assert ("[FAIL] bdd.sift.small.swaps" in text) == bool(delta)
    # Only the bdd.* entries gate a BDD document.
    assert "12 tracked" in text and "serve." not in text


def test_bench_main_runs_the_extra_check(tmp_path, capsys):
    doc = _committed("BENCH_sim.json")
    out = str(tmp_path / "BENCH_sim.json")

    def digests(d):
        return None if d["determinism"]["match"] else "digests diverged"

    assert bench_main(lambda smoke: doc, "BENCH_sim.json", check=digests,
                      argv=["--json", out], reference=REFERENCE) == 0
    doc["determinism"]["match"] = False
    assert bench_main(lambda smoke: doc, "BENCH_sim.json", check=digests,
                      argv=["--json", out], reference=REFERENCE) == 1
    assert "FAIL: digests diverged" in capsys.readouterr().out


def test_bench_main_rejects_an_invalid_document(tmp_path):
    doc = _committed("BENCH_obs.json")
    del doc["trace"]
    with pytest.raises(ValueError, match="invalid trace document"):
        bench_main(lambda smoke: doc, "BENCH_obs.json",
                   argv=["--json", str(tmp_path / "x.json")], reference=REFERENCE)


@pytest.mark.parametrize(
    "env, flag, smoke",
    [("", False, False), ("0", False, False), ("1", False, True),
     ("true", False, True), ("", True, True)],
)
def test_one_smoke_rule(tmp_path, monkeypatch, env, flag, smoke):
    """Any ``REPRO_BENCH_SMOKE`` but empty or ``0`` means smoke, as ``--smoke`` does."""
    monkeypatch.setenv("REPRO_BENCH_SMOKE", env)
    assert smoke_from_env() == (smoke and not flag)
    seen = []
    doc = _committed("BENCH_obs.json")

    def run_report(smoke=False):
        seen.append(smoke)
        return doc

    argv = ["--json", str(tmp_path / "x.json")] + (["--smoke"] if flag else [])
    assert bench_main(run_report, "BENCH_obs.json", argv=argv, reference=REFERENCE) == 0
    assert seen == [smoke]
