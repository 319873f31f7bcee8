"""Solver worker processes: streaming, shared-memory bounds, lifecycle, faults.

Pools are built explicitly here, so the size rule of ``inline_reason`` does
not apply and the tiny solver keeps every test well under a second.  Every
wait is bounded; a test that needs a side of the selection forces it by
patching ``os.sched_getaffinity``, never through an option.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Iterator, Optional

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


def read_rows(stream, width: int, chunk: int = 1, limit: Optional[int] = None) -> np.ndarray:
    """Rows of ``stream`` read ``chunk`` at a time: all remaining ones, or the next ``limit``."""
    rows = []
    while limit is None or len(rows) < limit:
        out = np.empty((chunk if limit is None else min(chunk, limit - len(rows)), width))
        n = stream.read(out)
        rows.extend(out[:n])
        if n < len(out):
            break
    return np.array(rows).reshape(-1, width)


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
    """Yields ``n_timesteps + 1`` fields; the parameters script a fault at one step and the nap."""

    def __init__(self, error: type = ValueError, n_timesteps: int = 5) -> None:
        self.error = error
        self.n_timesteps = n_timesteps

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
        width = tiny_solver.field_size
        streams = [pool.stream(params) for params in PARAMETERS]
        rows = [[] for _ in streams]
        for _ in range(tiny_solver.n_timesteps + 1):  # consumed in lockstep, like a session
            for collected, stream in zip(rows, streams):
                collected.extend(read_rows(stream, width, limit=1))
        for collected, stream, params in zip(rows, streams, PARAMETERS):
            assert stream.read(np.empty((1, width))) == 0  # the end, and it stays the end
            assert stream.read(np.empty((1, width))) == 0
            assert np.array_equal(np.array(collected), np.array(list(tiny_solver.steps(params))))

    @pytest.mark.parametrize("chunk", [3, 4, 6, 7])
    def test_a_block_read_crosses_the_ring_wrap(self, pool, tiny_solver, chunk):
        # Blocks longer than the 2-row window: each read waits for the worker
        # to refill the slot and copies across its wrap into one array.
        expected = np.array(list(tiny_solver.steps(PARAMETERS[1])))
        out = np.full((chunk, tiny_solver.field_size), np.nan)
        stream = pool.stream(PARAMETERS[1])
        assert stream.read(out) == min(chunk, 6)
        assert np.array_equal(out[: min(chunk, 6)], expected[:chunk])
        assert not np.shares_memory(out, pool._ring)
        assert np.array_equal(read_rows(stream, tiny_solver.field_size, chunk=chunk), expected[chunk:])

    def test_skip_starts_mid_trajectory(self, pool, tiny_solver):
        width = tiny_solver.field_size
        expected = np.array(list(tiny_solver.steps(PARAMETERS[0])))
        assert np.array_equal(read_rows(pool.stream(PARAMETERS[0], skip=4), width), expected[4:])
        assert len(read_rows(pool.stream(PARAMETERS[0], skip=len(expected)), width)) == 0

    def test_a_finished_stream_frees_its_ring_slot(self, pool, tiny_solver):
        width = tiny_solver.field_size
        streams = [pool.stream(PARAMETERS[0]) for _ in range(4)]
        with pytest.raises(SolverWorkerError, match="all 4 ring slots"):
            pool.stream(PARAMETERS[1])
        assert len(read_rows(streams[0], width)) == 6
        assert len(read_rows(pool.stream(PARAMETERS[1]), width)) == 6  # the freed slot, reused

    def test_an_abandoned_stream_is_cancelled_and_its_slot_reused(self, tiny_solver):
        width = tiny_solver.field_size
        workers = SolverWorkers(tiny_solver, ring_slots=1, ring_rows=2, n_workers=1)
        try:
            for rows in (1, 2, 3):  # the same slot, abandoned at a different row each time
                abandoned = workers.stream(PARAMETERS[0])
                assert len(read_rows(abandoned, width, limit=rows)) == rows
                abandoned.close()
                abandoned.close()  # idempotent: the slot is handed back once
            fields = read_rows(workers.stream(PARAMETERS[1]), width)
        finally:
            workers.close()
        assert np.array_equal(fields, np.array(list(tiny_solver.steps(PARAMETERS[1]))))

    def test_run_returns_share_values_in_order_while_trajectories_stream(self, pool, tiny_solver):
        width = tiny_solver.field_size
        streams = [pool.stream(params) for params in PARAMETERS[:2]]
        first = [read_rows(stream, width, limit=2) for stream in streams]  # both mid-trajectory
        assert pool.run(_whoami, [("a",), ("b",)]) == [("a", pool.pids[0]), ("b", pool.pids[1])]
        assert pool.run(_whoami, [("c",)]) == [("c", pool.pids[0])]
        for head, stream, params in zip(first, streams, PARAMETERS):
            rows = np.concatenate([head, read_rows(stream, width, chunk=3)])
            assert np.array_equal(rows, np.array(list(tiny_solver.steps(params))))

    def test_waiting_for_a_row_is_accounted(self):
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            assert workers.wait_seconds == 0.0
            assert len(read_rows(workers.stream(np.array([-1.0, 0.02])), 3)) == 6
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


class TestHandles:
    """Workers read arena carve-outs and arrays inherited at fork time in place."""

    def test_arena_and_inherited_arrays_are_read_where_they_lie(self, tiny_solver):
        inherited = np.arange(12.0).reshape(4, 3)
        workers = SolverWorkers(tiny_solver, array_floats=6, n_workers=2, inherit=(inherited,))
        try:
            handle, carved = workers.allocate((2, 3))
            carved[:] = -1.0
            assert workers.handle(carved) == handle == (0, (2, 3))
            assert workers.handle(carved[1]) == (3, (3,))
            assert workers.handle(inherited) == (6, (4, 3))
            assert workers.handle(inherited[2:]) == (12, (2, 3))
            rows = workers.handle(inherited[1:3])
            assert workers.run(_copy_of, [(handle,), (rows,)]) == [carved.tolist(), [[3, 4, 5], [6, 7, 8]]]
        finally:
            workers.close()

    def test_what_workers_cannot_reach_has_no_handle(self, tiny_solver):
        inherited = np.arange(12.0).reshape(4, 3)
        workers = SolverWorkers(
            tiny_solver, array_floats=6, n_workers=1,
            inherit=(inherited, np.asfortranarray(inherited), inherited.astype(np.float32)),
        )
        try:
            assert workers.handle(inherited.copy()) is None        # made after the fork
            assert workers.handle(inherited[:, 1]) is None         # not C-ordered
            assert workers.handle(inherited.view(np.int64)) is None
            assert len(workers._bases) == 2                        # the arena and the first
            assert workers.handle(inherited) is not None
        finally:
            workers.close()
        assert workers.handle(inherited) is None  # closed: the caller does the work


def _whoami(solver, view, tag):
    return tag, os.getpid()


def _copy_of(solver, view, handle):
    return view(handle).tolist()


def _count_to(solver, view, n, nap):
    """An iterator-returning share: ``n`` items, ``nap`` seconds each."""
    for item in range(n):
        time.sleep(nap)
        yield item


def _span(solver, view, nap):
    """When this share ran, and where."""
    started = time.monotonic()
    time.sleep(nap)
    return os.getpid(), started, time.monotonic()


class TestShareRuns:
    """``start`` hands shares out and returns; ``done`` polls, ``result`` waits."""

    def test_an_iterator_share_runs_between_streaming_passes(self):
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            run = workers.start(_count_to, [(40, 0.02)])  # 0.8 s, one item per pass
            # the same worker streams a whole trajectory while the share is running
            assert len(read_rows(workers.stream(np.array([-1.0, 0.0])), 3)) == 6
            started = time.monotonic()
            assert not run.done()
            assert time.monotonic() - started < 0.05  # a poll, not a wait
            assert run.result() == [list(range(40))]
            assert run.done()
        finally:
            workers.close()

    def test_share_i_runs_on_worker_i_at_most_in_flight_at_once(self, pool):
        run = pool.start(_span, [(0.2,), (0.0,)], in_flight=1)
        while not run.done():
            time.sleep(0.01)
        (pid_a, _, end_a), (pid_b, start_b, _) = run.result()
        assert [pid_a, pid_b] == pool.pids
        assert start_b >= end_a  # while polled, the second share waited for the first's reply
        # a caller that waits leaves its CPU free: result() hands out the rest at once
        (_, start_a, end_a), (_, start_b, _) = pool.start(_span, [(0.2,), (0.0,)], in_flight=1).result()
        assert start_b < end_a

    def test_a_run_in_flight_is_awaited_before_the_next_starts(self, pool):
        first = pool.start(_span, [(0.2,)])
        second = pool.start(_whoami, [("b",)])
        assert first.done()  # collected, not lost: its reply is filed by worker
        assert first.result()[0][0] == pool.pids[0]
        assert second.result() == [("b", pool.pids[0])]

    def test_a_streaming_failure_while_a_share_is_in_flight_keeps_the_share(self):
        workers = SolverWorkers(_Scripted(), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            failing = workers.stream(np.array([3.0, 0.0]))
            run = workers.start(_whoami, [("a",)])
            # the share's reply is in the pipe ahead of the failure the read below provokes
            assert _wait_until(lambda: select.select([workers._replies[0]], [], [], 0)[0])
            assert read_rows(failing, 3, limit=3)[:, 0].tolist() == [0, 1, 2]
            with pytest.raises(ValueError, match=r"step 3 of \[3\.0, 0\.0\]"):
                failing.read(np.empty((1, 3)))
            assert run.done()
            assert run.result() == [("a", workers.pids[0])]
        finally:
            workers.close()

    def test_a_worker_killed_mid_share_is_raised_by_a_poll(self, pool):
        run = pool.start(_span, [(30.0,)])
        assert not run.done()
        os.kill(pool.pids[0], signal.SIGKILL)
        killed = time.monotonic()
        with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
            while not run.done():
                time.sleep(0.01)
        assert time.monotonic() - killed < 2.0


class TestRowsFirst:
    """A worker serves its trajectory rows before its share, unless the caller blocks on the share."""

    def test_a_stream_with_room_publishes_at_step_speed_not_at_share_item_speed(self):
        # 20 rows of 5 ms behind 0.1 s share items: 0.1 s of steps (plus the
        # item the stream arrived during), ≥ 2.1 s at one row per item
        workers = SolverWorkers(_Scripted(n_timesteps=19), ring_slots=1, ring_rows=32, n_workers=1)
        try:
            run = workers.start(_count_to, [(5, 0.1)])
            started = time.monotonic()
            assert len(read_rows(workers.stream(np.array([-1.0, 0.005])), 3)) == 20
            assert time.monotonic() - started < 0.6
            assert run.result() == [list(range(5))]
        finally:
            workers.close()

    def test_a_blocked_caller_gets_its_share_ahead_of_a_window_with_room(self):
        # The window holds the whole trajectory and is never drained, so only the
        # blocked caller's flag runs the 40 × 5 ms share: ≈ 0.2 s (plus the step
        # under way), against 4.2 s at one item per 0.1 s step and 10 s after it.
        workers = SolverWorkers(_Scripted(n_timesteps=99), ring_slots=1, ring_rows=128, n_workers=1)
        try:
            stream = workers.stream(np.array([-1.0, 0.1]))
            run = workers.start(_count_to, [(40, 0.005)])
            started = time.monotonic()
            assert run.result() == [list(range(40))]
            assert time.monotonic() - started < 0.9
            assert not workers._awaited.any()  # cleared once the caller has its shares
            stream.close()
        finally:
            workers.close()

    def test_a_share_completes_while_a_consumer_keeps_reading(self):
        # A consumer that trains 2 ms a row lets the 2-row window fill, and each
        # full pass runs a share item: the 10 × 20 ms share ends ≈ 0.2 s in,
        # though nobody blocks on it and the trajectory outlasts the test.
        workers = SolverWorkers(_Scripted(n_timesteps=999), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            run = workers.start(_count_to, [(10, 0.02)])
            started, rows = time.monotonic(), 0
            stream = workers.stream(np.array([-1.0, 0.0]))
            while not run.done():
                assert time.monotonic() - started < 0.6, "the share starved behind the stream"
                rows += stream.read(np.empty((1, 3)))
                time.sleep(0.002)
            assert rows >= 10
            assert run.result() == [list(range(10))]
            stream.close()
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
        assert len(read_rows(workers.stream(PARAMETERS[0]), tiny_solver.field_size, limit=1)) == 1
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

    def test_a_forked_copy_does_not_close_the_owners_workers(self, pool, tiny_solver):
        pid = os.fork()
        if pid == 0:
            pool.close()
            os._exit(0)
        os.waitpid(pid, 0)
        assert len(read_rows(pool.stream(PARAMETERS[0]), tiny_solver.field_size)) == 6

    def test_dropping_the_pool_reaps_its_workers(self, tiny_solver):
        workers = SolverWorkers(tiny_solver, n_workers=1)
        (pid,) = workers.pids
        del workers
        assert not Path(f"/proc/{pid}").exists()

    def test_a_closed_pool_dies_with_its_last_reference(self, tiny_solver):
        # the pool maps its shared arena: no reference cycle may keep it alive
        # until the cycle collector happens to run
        workers = SolverWorkers(tiny_solver, n_workers=2)
        assert len(workers.run(_whoami, [("a",), ("b",)])) == 2
        workers.close()
        alive = weakref.ref(workers)
        gc.disable()
        try:
            del workers
            assert alive() is None
        finally:
            gc.enable()

    def test_workers_exit_when_the_parent_dies(self, tmp_path):
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from repro.melissa.workers import SolverWorkers\n"
            "from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver\n"
            "pool = SolverWorkers(Heat2DImplicitSolver(Heat2DConfig(grid_size=6, n_timesteps=5)),\n"
            "                     ring_slots=2, ring_rows=2, n_workers=2)\n"
            "pool.stream([300.0, 150.0, 450.0, 200.0, 400.0]).read(np.empty((1, 36)))\n"
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
            assert read_rows(failing, 3, limit=3)[:, 0].tolist() == [0, 1, 2]
            with pytest.raises(ValueError, match=r"step 3 of \[3\.0, 0\.0\]"):
                failing.read(np.empty((1, 3)))
            another = workers.stream(np.array([-1.0, 0.0]))  # the failed stream's slot, handed back
            assert len(read_rows(healthy, 3)) == 6  # the worker and its other trajectory live on
            assert len(read_rows(another, 3, chunk=4)) == 6
        finally:
            workers.close()

    def test_an_exception_the_parent_cannot_rebuild_keeps_its_name(self):
        workers = SolverWorkers(_Scripted(_Unlisted), ring_slots=1, ring_rows=2, n_workers=1)
        try:
            with pytest.raises(SolverWorkerError, match=r"_Unlisted: step 0 of"):
                workers.stream(np.array([0.0, 0.0])).read(np.empty((1, 3)))
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
            read_rows(stream, 3, limit=1)
            os.kill(workers.pids[0], signal.SIGKILL)  # mid-trajectory
            start = time.monotonic()
            with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
                read_rows(stream, 3)
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
            read_rows(stream, 3, limit=1)
            os.kill(workers.pids[0], signal.SIGSTOP)  # alive, silent
            with pytest.raises(SolverWorkerError, match="published nothing for 0 s"):
                read_rows(stream, 3)
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
