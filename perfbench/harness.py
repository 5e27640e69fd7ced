"""Shared plumbing of the benchmark: timing, percentiles, results, scratch space.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches and temp files; removed when a run ends.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def nproc() -> int:
    """Cores this process may run on (the load generator's thread cap)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """Nearest-rank ``q``-th percentile: ``(value, samples, samples beyond)``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(seed: int) -> Dict[str, Any]:
    """The facts every result records next to its figures."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mp_start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


class Timings:
    """Milliseconds by name, summed over one operation, one sample per operation.

    :meth:`since` and :meth:`call` add to the operation in progress;
    :meth:`commit` closes it, keeping each name's total both as measured
    (``raw``) and divided by the operation's speed factor (``samples``,
    see :class:`Speed`).  Operations and the layers inside them share the
    one namespace.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.calls: Dict[str, int] = defaultdict(int)
        self._op: Dict[str, float] = defaultdict(float)

    def since(self, name: str, start: float) -> float:
        """Add the time since ``start`` to ``name``; returns now."""
        now = time.perf_counter()
        self._op[name] += (now - start) * 1000.0
        self.calls[name] += 1
        return now

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.since(name, start)

    def commit(self, factor: float) -> None:
        for name, ms in self._op.items():
            self.raw[name].append(ms)
            self.samples[name].append(ms / factor)
        self._op.clear()

    def total(self, name: str) -> float:
        """Summed time of ``name`` over every operation, at nominal speed."""
        return sum(self.samples[name])


def _reference_work() -> int:
    """Fixed work on the standard library alone: dicts, tuples, sorting,
    formatting — the kinds of operation the program spends its time on."""
    table = {}
    for i in range(3000):
        table[(i * 7919) % 5003, i & 15] = i
    total = 0
    for (a, b), value in table.items():
        total += a ^ b ^ value
    ordered = sorted(table, key=lambda k: (k[1], -k[0]))
    return total + len(",".join(str(k[0]) for k in ordered[:1000]))


def _time_reference() -> float:
    """One reading: the wall time in ms of eight runs of the reference, with
    the collector off so leftover garbage of the program is not collected
    inside it.  Eight runs (about 20 ms) average out the machine's
    sub-second fluctuations better than one short snapshot."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(8):
            _reference_work()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def _probe_loop() -> None:
    """A probe process: one reading per line on stdin, until ``stop``."""
    for line in sys.stdin:
        if line.strip() == "stop":
            return
        print(repr(_time_reference()), flush=True)


_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def _cpu_ticks(pid: int) -> Optional[int]:
    """User plus system CPU of process ``pid`` in clock ticks, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[11]) + int(fields[12])


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


class ProgramCpu:
    """CPU the program uses besides the calling thread: this process's other
    threads (the in-process daemon, its dispatcher, client threads) and every
    descendant process (pool workers), except the ``exclude``d probes."""

    def __init__(self, exclude: Sequence[int] = ()) -> None:
        self.exclude = set(exclude)

    def snapshot(self) -> Tuple[float, Dict[int, int]]:
        others_ms = (time.process_time() - time.thread_time()) * 1000.0
        ticks: Dict[int, int] = {}
        pending = _children(os.getpid())
        while pending:
            pid = pending.pop()
            if pid in self.exclude or pid in ticks:
                continue
            value = _cpu_ticks(pid)
            if value is not None:
                ticks[pid] = value
                pending.extend(_children(pid))
        return others_ms, ticks

    @staticmethod
    def used_ms(before, after) -> float:
        """Program CPU in ms between two snapshots (a process born between
        them counts in full; one that ended does not count)."""
        others = after[0] - before[0]
        ticks = sum(t - before[1].get(pid, 0) for pid, t in after[1].items())
        return others + ticks * _TICK_MS


class Speed:
    """The machine's current speed, read between operations.

    This is the benchmark's own choice, made because the shared 2-core
    machine it was built on drifts by tens of percent over seconds (see
    the README).  Before and after every operation, at a moment when the
    program is idle, the benchmark times a fixed reference workload; the
    operation's *speed factor* is the mean of those two readings over
    :attr:`NOMINAL_MS`.  Every reported time is the measured time divided
    by its factor (every rate multiplied by it): the time at nominal
    machine speed.  Each result also prints the measured figures.

    The reference imports nothing from the program.  So that the program
    cannot move it either, a reading counts only if the program used no
    CPU while it ran (:class:`ProgramCpu`: no thread of this process but
    the reader's, no pool worker); a busy reading is taken again, up to
    :attr:`TRIES` times.  A reading that never found the program idle is
    kept and counted in :attr:`busy`, and fails the run: a program that
    works while it should be idle cannot be measured this way.

    With ``cores > 1`` a reading runs the reference on that many probe
    processes at once and averages them: the speed of the machine as a
    workload spread over its cores sees it.
    """

    #: A reading's time on an unloaded core of the development machine.
    NOMINAL_MS = 20.0
    #: Readings taken before one is accepted as busy.
    TRIES = 5
    #: Program CPU, in ms, that a reading tolerates.
    IDLE_MS = 1.0

    def __init__(self, cores: int = 1) -> None:
        self.factors: List[float] = []
        self.retaken = 0
        self.busy = 0
        self._probes = []
        if cores > 1:
            # Plain child interpreters, not multiprocessing: its spawn start
            # method leaves a resource-tracker process behind the run.
            for _ in range(cores):
                self._probes.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--probe"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, bufsize=1,
                ))
        self._program = ProgramCpu([p.pid for p in self._probes])
        if self._probes:
            self._read()  # the first reading of a fresh process runs cold
        self._last = self.probe()

    def _read(self) -> float:
        if not self._probes:
            return _time_reference()
        for process in self._probes:
            process.stdin.write("\n")
        return sum(
            float(process.stdout.readline()) for process in self._probes
        ) / len(self._probes)

    def probe(self) -> float:
        """One reading taken while the program is idle."""
        for attempt in range(self.TRIES):
            before = self._program.snapshot()
            reading = self._read()
            used = ProgramCpu.used_ms(before, self._program.snapshot())
            if used <= self.IDLE_MS:
                return reading
            if attempt < self.TRIES - 1:
                self.retaken += 1
        self.busy += 1
        return reading

    def factor(self) -> float:
        """The speed factor of the operation since the previous call."""
        now = self.probe()
        factor = (self._last + now) / (2.0 * self.NOMINAL_MS)
        self._last = now
        self.factors.append(factor)
        return factor

    def check(self, result: "Result") -> None:
        """Fail ``result`` if a reading never found the program idle."""
        if self.busy:
            result.attempted += 1
            result.fail(
                f"the program used CPU during {self.busy} readings of the "
                f"machine's speed, {self.TRIES} tries each"
            )

    def summary(self) -> str:
        if not self.factors:
            return "speed factor: no readings"
        return (
            f"speed factor: median {median(self.factors):.3f}, "
            f"range {min(self.factors):.3f}-{max(self.factors):.3f} over "
            f"{len(self.factors)} operations (measured time = reported "
            f"time x factor); {self.retaken} readings retaken, "
            f"{self.busy} busy"
        )

    def close(self) -> None:
        # Processes forked meanwhile may hold the pipes open, so a closed
        # pipe is no signal to stop: say so.
        for process in self._probes:
            try:
                process.stdin.write("stop\n")
                process.stdin.close()
            except OSError:
                pass  # the probe has already ended
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        self._probes = []

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Result:
    """One run's outcome: metrics with units, counts, and readable details."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timing(self, name: str, samples: Sequence[float], q: float,
               raw: Sequence[float]) -> None:
        """Record a percentile in ms; note its sample count and the same
        percentile of the measured (``raw``) times."""
        value, count, beyond = percentile(samples, q)
        self.metric(name, value, "ms")
        self.details.append(
            f"{name}: {value:.3f} ms over {count} samples, {beyond} beyond; "
            f"measured {percentile(raw, q)[0]:.3f} ms"
        )

    def fail(self, problem: str) -> None:
        """Count one failed operation and keep the first reasons."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def to_json(self) -> Dict[str, Any]:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def time_fresh_processes(code: str, repeats: int,
                         speed: Speed) -> Tuple[List[float], List[float]]:
    """Seconds for ``repeats`` fresh interpreters each running ``code``:
    at nominal speed, and as measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    nominal, measured = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in 50 ms steps, which
        # would quantize the measurement.
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        measured.append(time.perf_counter() - start)
        nominal.append(measured[-1] / speed.factor())
    return nominal, measured


def setup_detail(nominal: Sequence[float], measured: Sequence[float]) -> str:
    return (
        "setup_s: median of " + ", ".join(f"{s:.3f}" for s in nominal)
        + f"; measured median {median(measured):.3f} s"
    )


class Workspace:
    """A per-run scratch directory inside the checkout, also used as TMPDIR."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK_DIR, f"run-{os.getpid()}")
        self._counter = 0
        self._old_tempdir: Optional[str] = None
        self._old_env: Optional[str] = None

    def fresh_dir(self, prefix: str) -> str:
        self._counter += 1
        path = os.path.join(self.path, f"{prefix}-{self._counter}")
        os.makedirs(path)
        return path

    def __enter__(self) -> "Workspace":
        tmp = os.path.join(self.path, "tmp")
        os.makedirs(tmp)
        self._old_tempdir = tempfile.tempdir
        self._old_env = os.environ.get("TMPDIR")
        tempfile.tempdir = tmp
        os.environ["TMPDIR"] = tmp
        return self

    def __exit__(self, *exc_info) -> None:
        tempfile.tempdir = self._old_tempdir
        if self._old_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = self._old_env
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it


def canonical_digest(doc: Any) -> str:
    """sha256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    _probe_loop()
