"""The benchmark's own test: a smoke run of every workload, both modes.

Run from the root of a checkout::

    python3 -m pytest perfbench

Each smoke run must emit every metric ``BENCHMARK.json`` names for its
mode, each with its unit, and report no failed operation
(``failed_frac`` = 0).  The exact-count ledger must follow every source
file of the program, so that a legitimate change to any of them starts a
new ledger instead of failing as nondeterminism, and a reading of the
machine's speed must not count while the program is busy.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

sys.path.insert(0, HERE)
from checks import ExactCounts, source_digest  # noqa: E402
from harness import Result, Speed  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert "failed_frac: 0.000000" in done.stdout


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "build-serial", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _tree(root, text):
    frontend = root / "src" / "repro" / "frontend"
    frontend.mkdir(parents=True, exist_ok=True)
    (frontend / "rsl.py").write_text(text)
    return source_digest(str(root / "src"))


def test_ledger_key_covers_packages_outside_the_artifact_cache(tmp_path):
    # repro.frontend is not part of the artifact cache's code version.
    assert _tree(tmp_path, "A = 1\n") != _tree(tmp_path, "A = 2\n")


def test_changed_source_tree_starts_a_new_ledger(tmp_path):
    ledger = str(tmp_path / "ledger")

    def run(tree, value):
        result = Result()
        counts = ExactCounts(result)
        counts.observe("code_bytes", value)
        counts.check_ledger(["code_bytes"], ledger_dir=ledger, tree=tree)
        return result.failed

    before = _tree(tmp_path, "A = 1\n")
    assert run(before, 100) == 0
    after = _tree(tmp_path, "A = 2\n")
    assert run(after, 120) == 0  # a new tree may change the counts
    assert run(after, 120) == 0
    assert run(before, 120) == 1  # the old tree gave 100: nondeterminism


def test_speed_reading_taken_while_the_program_works_fails_the_run():
    with Speed() as speed:
        speed.factor()
    idle = Result()
    speed.check(idle)
    assert idle.failed == 0

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        with Speed() as speed:
            speed.factor()
    finally:
        stop.set()
        worker.join()
    busy = Result()
    speed.check(busy)
    assert speed.busy == 2 and busy.failed == 1
