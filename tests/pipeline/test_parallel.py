"""Serial vs process-pool executors: same tasks, same bytes, task order,
and one shared pool that outlives its batches."""

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.pipeline import (
    ModuleBuildTask,
    PersistentProcessExecutor,
    SerialExecutor,
    make_executor,
    synthesis_options,
)
from repro.pipeline.parallel import _PingTask
from repro.target import K11


def _tasks(network, params):
    options = synthesis_options(
        scheme="sift", copy_elimination=True, params=params
    )
    return [
        ModuleBuildTask(
            machine=machine, options=options, profile=K11, params=params
        )
        for machine in network.machines
    ]


class TestMakeExecutor:
    def test_jobs_one_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)

    def test_jobs_many_is_process_pool(self):
        executor = make_executor(3)
        assert isinstance(executor, PersistentProcessExecutor)
        assert executor.jobs == 3

    def test_single_job_leaves_the_shared_pool_alone(self):
        pool = make_executor(2)
        assert isinstance(make_executor(1), SerialExecutor)
        assert make_executor(2) is pool


class TestExecutionEquivalence:
    def test_serial_keeps_live_results(self, dashboard_net, k11_params):
        tasks = _tasks(dashboard_net, k11_params)[:2]
        outcomes = SerialExecutor().run(tasks)
        assert all(o.result is not None for o in outcomes)
        assert all(o.events for o in outcomes)

    def test_single_task_skips_the_pool(self, dashboard_net, k11_params):
        tasks = _tasks(dashboard_net, k11_params)[:1]
        outcomes = make_executor(4).run(tasks)
        assert len(outcomes) == 1
        assert outcomes[0].artifacts.name == tasks[0].machine.name

    def test_pool_matches_serial_bytes_in_task_order(
        self, dashboard_net, k11_params
    ):
        tasks = _tasks(dashboard_net, k11_params)
        serial = SerialExecutor().run(tasks)
        pooled = make_executor(4).run(tasks)
        assert [o.artifacts.name for o in pooled] == [
            o.artifacts.name for o in serial
        ]
        for s, p in zip(serial, pooled):
            assert p.result is None  # live BDDs never cross processes
            assert p.artifacts.c_source == s.artifacts.c_source
            assert p.artifacts.estimate == s.artifacts.estimate
            assert p.artifacts.measured == s.artifacts.measured
            assert p.artifacts.program.listing() == s.artifacts.program.listing()
            assert p.artifacts.copied_state_vars == s.artifacts.copied_state_vars

    def test_worker_trace_events_come_back(self, dashboard_net, k11_params):
        tasks = _tasks(dashboard_net, k11_params)[:2]
        pooled = make_executor(2).run(tasks)
        for task, outcome in zip(tasks, pooled):
            names = [e.name for e in outcome.events if e.kind == "pass"]
            assert names[:3] == ["order", "build", "reduce"]
            assert all(e.module == task.machine.name for e in outcome.events)


def _pids(executor, count=4):
    """Pids of the workers that ran a batch of ``count`` ping tasks."""
    return set(executor.run([_PingTask() for _ in range(count)]))


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSharedPool:
    def test_consecutive_runs_reuse_the_workers(self):
        pool = make_executor(2)
        first = _pids(pool)
        workers = pool.worker_pids()
        second = _pids(make_executor(2))
        assert make_executor(2) is pool
        assert os.getpid() not in first | second
        assert first | second <= set(workers)
        assert pool.worker_pids() == workers

    def test_different_jobs_resizes_the_pool(self):
        small = make_executor(2)
        old = set(small.prewarm())
        large = make_executor(3)
        assert large is not small and large.jobs == 3
        large.prewarm()
        assert len(large.worker_pids()) == 3
        assert not old & set(large.worker_pids())
        assert not any(_alive(pid) for pid in old)

    def test_killed_worker_breaks_one_batch_then_fresh_workers(self):
        pool = make_executor(2)
        old = pool.prewarm()
        os.kill(old[0], signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not pool.broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            pool.run([_PingTask() for _ in range(4)])
        fresh = make_executor(2)
        assert fresh is not pool
        pids = _pids(fresh)
        assert pids and not pids & set(old)
        assert not any(_alive(pid) for pid in old)
