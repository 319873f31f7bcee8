"""Solver worker processes: streaming, shared-memory bounds, lifecycle, faults.

Pools are built explicitly here, so the size rule of ``inline_reason`` does
not apply and the tiny solver keeps every test well under a second.  Every
wait is bounded; a test that needs a side of the selection forces it by
patching ``os.sched_getaffinity``, never through an option.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from repro.melissa import workers as workers_module
from repro.melissa.workers import SolverWorkerError, SolverWorkers, inline_reason, start_workers
from repro.solvers.base import Solver
from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver

PARAMETERS = np.array(
    [[300.0, 150.0, 450.0, 200.0, 400.0], [120.0, 480.0, 310.0, 260.0, 105.0],
     [499.0, 101.0, 250.0, 333.0, 222.0]]
)


def _gone(pid: int) -> bool:
    """Whether ``pid`` no longer runs (reaped, or a zombie nobody has reaped yet)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_until(predicate, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def pool(tiny_solver) -> Iterator[SolverWorkers]:
    workers = SolverWorkers(tiny_solver, ring_slots=4, ring_rows=2, n_workers=2)
    try:
        yield workers
    finally:
        workers.close()


class _Scripted(Solver):
    """Yields ``n_timesteps + 1`` fields; the parameters script a fault at one step."""

    n_timesteps = 5

    def __init__(self, error: type = ValueError) -> None:
        self.error = error

    @property
    def field_size(self) -> int:
        return 3

    @property
    def parameter_dim(self) -> int:
        return 2

    def steps(self, parameters) -> Iterator[np.ndarray]:
        fail_at, nap = parameters
        for step in range(self.n_timesteps + 1):
            if step == fail_at:
                raise self.error(f"step {step} of {[float(p) for p in parameters]}")
            time.sleep(nap)
            yield np.full(3, float(step))


class _Unlisted(Exception):
    """Not a built-in: the parent cannot rebuild it by name."""


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


class TestStreaming:
    def test_concurrent_streams_give_the_solvers_own_fields(self, pool, tiny_solver):
        # Window of 2 rows, 6 rows per trajectory: back-pressure and wrap-around.
        streams = [pool.stream(params) for params in PARAMETERS]
        rows = [[] for _ in streams]
        for _ in range(tiny_solver.n_timesteps + 1):  # consumed in lockstep, like a session
            for collected, stream in zip(rows, streams):
                collected.append(next(stream))
        for collected, stream, params in zip(rows, streams, PARAMETERS):
            with pytest.raises(StopIteration):
                next(stream)
            expected = list(tiny_solver.steps(params))
            assert len(collected) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(collected, expected))
        # copies, not views of the ring: a later trajectory must not rewrite them
        assert not any(np.shares_memory(field, pool._ring) for field in rows[0])

    def test_skip_starts_mid_trajectory(self, pool, tiny_solver):
        expected = list(tiny_solver.steps(PARAMETERS[0]))
        assert all(
            np.array_equal(a, b) for a, b in zip(pool.stream(PARAMETERS[0], skip=4), expected[4:])
        )
        assert list(pool.stream(PARAMETERS[0], skip=len(expected))) == []

    def test_a_finished_stream_frees_its_ring_slot(self, pool):
        streams = [pool.stream(PARAMETERS[0]) for _ in range(4)]
        with pytest.raises(SolverWorkerError, match="all 4 ring slots"):
            pool.stream(PARAMETERS[1])
        assert len(list(streams[0])) == 6
        assert len(list(pool.stream(PARAMETERS[1]))) == 6  # the freed slot, reused

    def test_an_abandoned_stream_is_cancelled_and_its_slot_reused(self, tiny_solver):
        workers = SolverWorkers(tiny_solver, ring_slots=1, ring_rows=2, n_workers=1)
        try:
            for _ in range(3):  # the same slot, abandoned at a different row each time
                abandoned = workers.stream(PARAMETERS[0])
                next(abandoned)
                abandoned.close()
            fields = list(workers.stream(PARAMETERS[1]))
        finally:
            workers.close()
        assert all(np.array_equal(a, b) for a, b in zip(fields, tiny_solver.steps(PARAMETERS[1])))
        assert len(fields) == 6

    def test_waiting_for_a_row_is_accounted(self):
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            assert workers.wait_seconds == 0.0
            assert len(list(workers.stream(np.array([-1.0, 0.02])))) == 6
            assert 0.05 < workers.wait_seconds < 5.0
        finally:
            workers.close()


# ---------------------------------------------------------------------------
# Memory bounds
# ---------------------------------------------------------------------------


def test_worker_count_and_ring_bytes(monkeypatch, tiny_solver):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    workers = SolverWorkers(tiny_solver, array_floats=100, ring_slots=5, ring_rows=4)
    try:
        assert workers.n_workers == len(workers.pids) == len(set(workers.pids)) == 3
        # a window of rows per slot, whatever the trajectory length
        assert workers.ring_bytes == 5 * 4 * tiny_solver.field_size * 8
        handle, array = workers.allocate((10, 10))
        assert handle == (0, (10, 10)) and array.shape == (10, 10) and array.dtype == np.float64
        with pytest.raises(ValueError, match="cannot hold"):
            workers.allocate((1,))
    finally:
        workers.close()


def test_session_sizes_the_ring_by_window_not_trajectory(monkeypatch):
    from repro.api.session import MIN_RING_ROWS, RING_TICKS, TrainingSession
    from repro.api import OnlineTrainingConfig

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = OnlineTrainingConfig(
        heat=Heat2DConfig(grid_size=32, n_timesteps=40), n_simulations=4, job_limit=3,
        timesteps_per_tick=5, n_validation_trajectories=2, max_iterations=1,
    )
    session = TrainingSession(config)
    try:
        pool = session._workers
        assert pool is not None and len(pool.pids) == 2
        assert pool.ring_rows == RING_TICKS * 5 > MIN_RING_ROWS
        assert pool.ring_bytes == 3 * 10 * 32 * 32 * 8  # job_limit × window × field
        assert pool.ring_bytes < 3 * 41 * 32 * 32 * 8   # < whole trajectories
        # the validation set lives in the workers' arena, exactly filling it
        assert np.shares_memory(session.validation_set.targets, pool._arena)
        assert pool._allocated == pool._arena.size
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_kills_reaps_and_is_idempotent(self, tiny_solver):
        faults_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        workers = SolverWorkers(tiny_solver, ring_slots=2, ring_rows=2, n_workers=2)
        pids = workers.pids
        next(workers.stream(PARAMETERS[0]))
        workers.close()
        workers.close()
        assert workers.pids == []
        for pid in pids:  # reaped: not even a zombie is left to wait for
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
            assert not Path(f"/proc/{pid}").exists()
        # reaped by waitpid, so the children's usage is on this process's books
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt > faults_before
        with pytest.raises(SolverWorkerError, match="gone"):
            workers.stream(PARAMETERS[0])

    def test_a_forked_copy_does_not_close_the_owners_workers(self, pool):
        pid = os.fork()
        if pid == 0:
            pool.close()
            os._exit(0)
        os.waitpid(pid, 0)
        assert len(list(pool.stream(PARAMETERS[0]))) == 6

    def test_dropping_the_pool_reaps_its_workers(self, tiny_solver):
        workers = SolverWorkers(tiny_solver, n_workers=1)
        (pid,) = workers.pids
        del workers
        assert not Path(f"/proc/{pid}").exists()

    def test_workers_exit_when_the_parent_dies(self, tmp_path):
        script = (
            "import os, signal, sys\n"
            "from repro.melissa.workers import SolverWorkers\n"
            "from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver\n"
            "pool = SolverWorkers(Heat2DImplicitSolver(Heat2DConfig(grid_size=6, n_timesteps=5)),\n"
            "                     ring_slots=2, ring_rows=2, n_workers=2)\n"
            "next(pool.stream([300.0, 150.0, 450.0, 200.0, 400.0]))\n"
            "print(*pool.pids, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"  # no finally, no atexit, no __del__
        )
        src = str(Path(workers_module.__file__).parents[2])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert _wait_until(lambda: all(_gone(pid) for pid in pids))


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


class TestFaults:
    def test_a_streaming_exception_is_raised_by_name(self):
        workers = SolverWorkers(_Scripted(), ring_slots=2, ring_rows=2, n_workers=1)
        try:
            failing = workers.stream(np.array([3.0, 0.0]))
            healthy = workers.stream(np.array([-1.0, 0.0]))
            assert [float(field[0]) for field in (next(failing), next(failing), next(failing))] == [0, 1, 2]
            with pytest.raises(ValueError, match=r"step 3 of \[3\.0, 0\.0\]"):
                next(failing)
            assert len(list(healthy)) == 6  # the worker and its other trajectory live on
            assert len(list(workers.stream(np.array([-1.0, 0.0])))) == 6
        finally:
            workers.close()

    def test_an_exception_the_parent_cannot_rebuild_keeps_its_name(self):
        workers = SolverWorkers(_Scripted(_Unlisted), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            with pytest.raises(SolverWorkerError, match=r"_Unlisted: step 0 of"):
                next(workers.stream(np.array([0.0, 0.0])))
        finally:
            workers.close()

    def test_a_failing_share_is_raised_by_name_after_all_have_run(self, tiny_solver):
        workers = SolverWorkers(tiny_solver, array_floats=4, n_workers=2)
        try:
            handle, array = workers.allocate((4,))
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                workers.run(_divide_into, [(handle, 0, 0.0), (handle, 1, 4.0)])
            assert array[1] == 0.25  # the healthy share was not abandoned
            workers.run(_divide_into, [(handle, 2, 2.0)])  # the pool still serves
            assert array[2] == 0.5
            with pytest.raises(ValueError, match="3 shares for 2 workers"):
                workers.run(_divide_into, [(handle, 0, 1.0)] * 3)
        finally:
            workers.close()

    def test_a_killed_worker_is_a_named_error_not_a_spin(self):
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            stream = workers.stream(np.array([-1.0, 0.05]))
            next(stream)
            os.kill(workers.pids[0], signal.SIGKILL)  # mid-trajectory
            start = time.monotonic()
            with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
                for _ in stream:
                    pass
            assert time.monotonic() - start < 2.0
            with pytest.raises(SolverWorkerError, match="gone"):
                workers.stream(np.array([-1.0, 0.0]))
        finally:
            workers.close()
        assert workers.pids == []

    def test_a_worker_killed_during_a_share_is_a_named_error(self, tiny_solver):
        workers = SolverWorkers(tiny_solver, n_workers=2)
        try:
            with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
                workers.run(_kill_self, [(), ()])
        finally:
            workers.close()

    def test_a_stalled_worker_is_reported_after_the_stall_limit(self, monkeypatch):
        monkeypatch.setattr(workers_module, "STALL_LIMIT_SECONDS", 0.2)
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            stream = workers.stream(np.array([-1.0, 0.0]))
            next(stream)
            os.kill(workers.pids[0], signal.SIGSTOP)  # alive, silent
            with pytest.raises(SolverWorkerError, match="published nothing for 0 s"):
                for _ in stream:
                    pass
        finally:
            workers.close()  # SIGKILL ends a stopped process too


def _divide_into(solver, view, handle, index, divisor) -> None:
    view(handle)[index] = 1.0 / divisor


def _kill_self(solver, view) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# The selection
# ---------------------------------------------------------------------------


def _report_reason(queue) -> None:
    queue.put(inline_reason())


class TestSelection:
    @pytest.fixture
    def big_solver(self):
        solver = Heat2DImplicitSolver(Heat2DConfig(grid_size=32, n_timesteps=40))
        assert solver.field_size * 41 >= workers_module.MIN_TRAJECTORY_FLOATS
        return solver

    def test_two_cpus_and_a_trajectory_worth_a_process_use_workers(self, monkeypatch, big_solver):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert inline_reason(big_solver) is None and inline_reason() is None
        workers = start_workers(big_solver, ring_slots=1, ring_rows=2)
        try:
            assert workers is not None and workers.n_workers == 2
        finally:
            workers.close()

    def test_each_condition_is_named(self, monkeypatch, big_solver, tiny_solver):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert tiny_solver.field_size * 6 < workers_module.MIN_TRAJECTORY_FLOATS
        assert inline_reason(tiny_solver) == "small_trajectory"
        assert start_workers(tiny_solver) is None

        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert inline_reason(big_solver) == "threads_alive"
        finally:
            release.set()
            other.join()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert inline_reason(big_solver) == "single_cpu" and start_workers(big_solver) is None
        monkeypatch.delattr(os, "fork")
        assert inline_reason(big_solver) == "no_fork"

    def test_a_pool_worker_keeps_its_solvers_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_report_reason, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=30) == "pool_worker"
        finally:
            child.join(timeout=30)
        assert not child.is_alive()

    def test_the_size_rule_sits_between_small_and_the_study_grid(self):
        assert 16 * 16 * 31 < workers_module.MIN_TRAJECTORY_FLOATS <= 32 * 32 * 51
