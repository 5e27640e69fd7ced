"""Pluggable serial / process-pool execution of pipeline tasks.

A *task* is any picklable object with a ``run(keep_result: bool)`` method
returning a picklable outcome; the executors schedule batches of them
while keeping one invariant: **results come back in task order with
byte-identical artifacts**, whichever executor ran them.  The original
client is per-CFSM synthesis (:class:`ModuleBuildTask`), which is
embarrassingly parallel — each module's pipeline reads only its own CFSM,
the shared options, and the (immutable) profile and cost parameters.  The
differential conformance fuzzer (:mod:`repro.difftest`) schedules its
cases through the same executors.

``keep_result`` distinguishes in-process from cross-process execution:
workers cannot return live :class:`~repro.sgraph.SynthesisResult` objects
(BDD managers hold weakrefs and are deliberately unpicklable), so a
process-pool build returns :class:`~repro.pipeline.artifacts.ModuleArtifacts`
with ``result=None`` — exactly what a cache hit returns.  The serial
executor additionally hands back the live result for API parity with the
historical in-process flow.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.context import TraceContext
from .artifacts import ModuleArtifacts, build_module_artifacts
from .trace import BuildTrace, TraceEvent

__all__ = [
    "ModuleBuildTask",
    "ModuleBuildOutcome",
    "Executor",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
]


@dataclass
class ModuleBuildTask:
    """One schedulable unit: build every artifact of one software CFSM.

    When the coordinator runs a causal trace it injects a
    :class:`~repro.obs.context.TraceContext`: the task then opens a child
    trace on its own span-id lane, wraps the build in a per-module span,
    and carries the events home in its outcome.
    """

    machine: Any  # Cfsm — picklable by construction
    options: Dict[str, Any]
    profile: Any  # ISAProfile
    params: Any  # CostParams
    context: Optional[TraceContext] = None
    #: A warm BDD-manager pool (``acquire()``/``release(mgr)``), injected
    #: only for in-process execution — never pickled across a pool
    #: boundary, so cross-process tasks leave it ``None``.
    manager_pool: Any = None

    def run(self, keep_result: bool) -> "ModuleBuildOutcome":
        trace = BuildTrace(context=self.context)
        manager = (
            self.manager_pool.acquire() if self.manager_pool is not None
            else None
        )
        try:
            if self.context is not None:
                with trace.span(self.machine.name, "module"):
                    artifacts, result = build_module_artifacts(
                        self.machine, self.options, self.profile, self.params,
                        trace=trace, manager=manager,
                    )
            else:
                artifacts, result = build_module_artifacts(
                    self.machine, self.options, self.profile, self.params,
                    trace=trace, manager=manager,
                )
        finally:
            if manager is not None:
                self.manager_pool.release(manager)
        return ModuleBuildOutcome(
            artifacts=artifacts,
            result=result if keep_result else None,
            events=trace.events,
            metrics=trace.metrics,
        )


@dataclass
class ModuleBuildOutcome:
    """What an executor hands back for one task, in task order."""

    artifacts: ModuleArtifacts
    result: Optional[Any] = None  # SynthesisResult when built in-process
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)


def _worker(task: Any) -> Any:
    """Top-level entry point for pool workers (must be picklable by name)."""
    return task.run(keep_result=False)


class Executor:
    """Runs a batch of tasks; subclasses pick the strategy.

    A task is any picklable object with ``run(keep_result) -> outcome``.
    """

    jobs: int = 1

    def run(self, tasks: List[Any]) -> List[Any]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution; keeps live (unpicklable) results."""

    jobs = 1

    def run(self, tasks: List[Any]) -> List[Any]:
        return [task.run(keep_result=True) for task in tasks]


@dataclass
class _PingTask:
    """A no-op task used to prewarm pool workers and learn their pids."""

    def run(self, keep_result: bool) -> int:
        del keep_result
        return os.getpid()


class PersistentProcessExecutor(Executor):
    """A long-lived ``concurrent.futures`` process pool with a ``submit`` API.

    The one process executor.  Workers stay alive across batches, so
    per-worker warm state (calibrated cost params, BDD manager pools)
    pays off and a build or a daemon request pays no interpreter
    start-up.  It accepts the task protocol (``run(keep_result) ->
    outcome``), keeps task order in :meth:`run` whatever the completion
    order, and exposes the worker pids so a caller can assert none
    leaked after shutdown.

    ``initializer`` runs once in each worker as it starts (import and
    calibration prewarming); :meth:`prewarm` forces all workers into
    existence up front, which a server should do *before* starting its
    event loop so no fork happens while other threads run.
    """

    def __init__(self, jobs: int, initializer=None, initargs=()):
        import concurrent.futures

        self.jobs = max(1, int(jobs))
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=initializer,
            initargs=initargs,
        )

    def submit(self, task: Any):
        """Schedule one task; returns its ``concurrent.futures.Future``."""
        return self._pool.submit(_worker, task)

    def run(self, tasks: List[Any]) -> List[Any]:
        """Run a batch in task order; one task skips the pool entirely."""
        if len(tasks) <= 1:
            return [task.run(keep_result=False) for task in tasks]
        futures = [self.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def prewarm(self) -> List[int]:
        """Spin up every worker now; returns the distinct pids seen."""
        futures = [self.submit(_PingTask()) for _ in range(self.jobs)]
        return sorted({future.result() for future in futures})

    def worker_pids(self) -> List[int]:
        """Pids of the workers currently alive in the pool."""
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(
            process.pid for process in processes.values()
            if process.pid is not None
        )

    @property
    def broken(self) -> bool:
        """True once a worker died: every later submit would fail."""
        return bool(getattr(self._pool, "_broken", False))

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


_shared_lock = threading.Lock()
_shared: Optional[PersistentProcessExecutor] = None
_shared_pid: Optional[int] = None


def make_executor(jobs: int = 1) -> Executor:
    """``jobs <= 1`` → serial in-process; otherwise the shared pool.

    The shared :class:`PersistentProcessExecutor` is created on first
    use and rebuilt when ``jobs`` changes or after a worker died (the
    batch that saw the death re-raises ``BrokenProcessPool``; the next
    call gets fresh workers).  A forked child never reuses the pool
    object it inherited from its parent.
    """
    global _shared, _shared_pid
    if jobs <= 1:
        return SerialExecutor()
    with _shared_lock:
        pool = _shared if _shared_pid == os.getpid() else None
        if pool is not None and (pool.jobs != jobs or pool.broken):
            pool.shutdown(wait=True)
            pool = None
        if pool is None:
            pool = PersistentProcessExecutor(jobs)
            _shared, _shared_pid = pool, os.getpid()
        return pool


@atexit.register
def _shutdown_shared() -> None:
    """Join the shared pool while the interpreter is still whole."""
    global _shared
    with _shared_lock:
        if _shared is not None and _shared_pid == os.getpid():
            _shared.shutdown(wait=True)
        _shared = None
