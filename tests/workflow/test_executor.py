"""Tests for the study-execution engine: specs, backends, checkpoint/resume."""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import pickle
import queue
from pathlib import Path

import pytest

import repro.workflow.executor as executor_module
from repro.workflow import faults
from repro.workflow.executor import (
    BACKENDS,
    JsonlCheckpoint,
    MultiprocessExecutor,
    RunSpec,
    SerialExecutor,
    StudyInputCache,
    TIMING_METRICS,
    WorkerTraceback,
    effective_worker_count,
    execute_spec,
    get_executor,
)
from repro.workflow.results import RunResult, StudyResults
from repro.workflow.study import StudyRunner

#: a tiny one-factor-at-a-time grid (the fig3b shape) for backend comparisons
GRID = [
    {"_factor": "sigma", "_value": 1.0, "sigma": 1.0},
    {"_factor": "sigma", "_value": 25.0, "sigma": 25.0},
    {"_factor": "period", "_value": 5, "period": 5},
    {"_factor": "period", "_value": 20, "period": 20},
]


def _comparable_metrics(run: RunResult) -> dict:
    return {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS}


class TestRunSpec:
    def test_build_config_applies_overrides(self, tiny_run_config):
        spec = RunSpec(
            name="s", config=tiny_run_config.to_dict(), overrides={"sigma": 3.0, "hidden_size": 4}
        )
        config = spec.build_config()
        assert config.breed.sigma == 3.0
        assert config.hidden_size == 4
        assert config.n_simulations == tiny_run_config.n_simulations

    def test_spec_is_picklable(self, tiny_run_config):
        spec = RunSpec(name="s", config=tiny_run_config.to_dict(), overrides={"_factor": "sigma"})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build_config() == spec.build_config()


class TestStudyInputCache:
    def test_same_scenario_shares_inputs(self, tiny_run_config):
        cache = StudyInputCache()
        solver_a, validation_a = cache.inputs(tiny_run_config)
        solver_b, validation_b = cache.inputs(tiny_run_config)
        assert solver_a is solver_b
        assert validation_a is validation_b
        assert len(cache) == 1

    def test_different_validation_budget_is_a_different_entry(self, tiny_run_config):
        from dataclasses import replace

        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        cache.inputs(replace(tiny_run_config, n_validation_trajectories=5))
        assert len(cache) == 2

    def test_workload_change_is_a_different_entry(self, tiny_run_config):
        from dataclasses import replace

        from repro.sampling.bounds import HEAT1D_BOUNDS

        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        cache.inputs(replace(tiny_run_config, workload="heat1d", bounds=HEAT1D_BOUNDS))
        assert len(cache) == 2

    def test_validation_disabled(self, tiny_run_config):
        from dataclasses import replace

        cache = StudyInputCache()
        _, validation = cache.inputs(replace(tiny_run_config, n_validation_trajectories=0))
        assert validation is None


class TestExecutorBackends:
    def test_get_executor_names(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process", max_workers=2), MultiprocessExecutor)
        assert type(get_executor("shm", max_workers=2)) is MultiprocessExecutor
        with pytest.raises(ValueError):
            get_executor("slurm")

    def test_backend_names_keep_the_shm_alias(self):
        # Specs, campaign files and HTTP submissions still name "shm".
        assert BACKENDS == ("serial", "process", "shm")
        for backend in BACKENDS:
            get_executor(backend)

    def test_shm_alias_forwards_workers_and_cache(self):
        cache = StudyInputCache()
        for backend in ("process", "shm"):
            executor = get_executor(backend, max_workers=3, cache=cache)
            assert executor.max_workers == 3
            assert executor.cache is cache

    def test_process_executor_owns_a_cache_by_default(self):
        first, second = MultiprocessExecutor(), MultiprocessExecutor()
        assert first.max_workers is None
        assert isinstance(first.cache, StudyInputCache)
        assert first.cache is not second.cache

    def test_serial_records_carry_the_analysis_fields(self, tiny_run_config):
        executor = SerialExecutor()
        specs = [RunSpec(name="r0", config=tiny_run_config.to_dict(), overrides={})]
        (record,) = executor.execute(specs)
        assert len(record.executed_parameters) == tiny_run_config.n_simulations
        assert len(record.parameter_sources) == tiny_run_config.n_simulations
        # every run records the Fig. 6 statistics, so every record carries their matrix
        assert [len(row) for row in record.sample_correlations] == [7] * 7

    def test_a_run_that_never_trains_carries_no_matrix(self, tiny_run_config):
        from dataclasses import replace

        starved = replace(
            tiny_run_config, n_simulations=2, reservoir_watermark=tiny_run_config.reservoir_capacity
        )
        record, _ = execute_spec(RunSpec(name="starved", config=starved.to_dict()))
        assert record.metrics["iterations"] == 0.0
        assert record.sample_correlations == []

    def test_process_backend_bit_identical_to_serial(self, tiny_run_config):
        serial = StudyRunner(base_config=tiny_run_config, study_name="det").run_all(GRID)
        process = StudyRunner(
            base_config=tiny_run_config, study_name="det", backend="process", max_workers=2
        ).run_all(GRID)
        assert [r.name for r in serial] == [r.name for r in process]
        for serial_run, process_run in zip(serial, process):
            # Bit-identical series and metrics (timing metrics measure
            # wall-clock and are the only permitted difference).
            assert serial_run.series == process_run.series
            assert _comparable_metrics(serial_run) == _comparable_metrics(process_run)
            assert serial_run.workload == process_run.workload
            assert serial_run.seed == process_run.seed

    def test_analysis_fields_identical_across_backends(self, tiny_run_config):
        serial = StudyRunner(base_config=tiny_run_config, study_name="fields").run_all(GRID)
        process = StudyRunner(
            base_config=tiny_run_config, study_name="fields", backend="process", max_workers=2
        ).run_all(GRID)
        for serial_run, process_run in zip(serial, process):
            assert serial_run.executed_parameters
            assert len(serial_run.sample_correlations) == 7
            for key in ("executed_parameters", "parameter_sources", "sample_correlations"):
                assert getattr(serial_run, key) == getattr(process_run, key), key

    def test_completion_order_reordered_to_spec_order(self, tiny_run_config):
        seen = []
        executor = MultiprocessExecutor(max_workers=2)
        specs = StudyRunner(base_config=tiny_run_config, study_name="ord").build_specs(GRID)
        records = executor.execute(specs, on_record=lambda i, r: seen.append(r.name))
        # Whatever order runs completed in, the returned list is spec order.
        assert [r.name for r in records] == [s.name for s in specs]
        assert sorted(seen) == sorted(s.name for s in specs)

    def test_default_worker_count_is_cpu_count_clamped_to_specs(self, monkeypatch, caplog):
        import repro.workflow.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        with caplog.at_level(logging.INFO, logger="repro.workflow"):
            assert effective_worker_count(None, 3, backend="process") == 3
        logged = [r for r in caplog.records if "worker(s)" in r.getMessage()]
        assert len(logged) == 1
        assert "defaulted to CPU count" in logged[0].getMessage()

    def test_explicit_worker_count_clamped_to_at_least_one(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.workflow"):
            assert effective_worker_count(0, 5, backend="shm") == 1
            assert effective_worker_count(16, 5, backend="shm") == 5
        assert all("defaulted" not in r.getMessage() for r in caplog.records)

    def test_cpu_count_none_falls_back_to_one_worker(self, monkeypatch):
        import repro.workflow.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert effective_worker_count(None, 4, backend="process") == 1


def _count_calls(monkeypatch, log: Path, module, name: str) -> Path:
    """Log every call of ``module.name`` to ``log``, one line each.

    Forked study workers inherit the patch, so driver and worker calls land
    in the same file.
    """
    log.touch()
    original = getattr(module, name)

    def counted(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return log


def _count_validation_builds(monkeypatch, log: Path) -> Path:
    """Log every validation-set build, whether the cache or a session makes it."""
    import repro.api.session as session_module

    for module in (executor_module, session_module):
        _count_calls(monkeypatch, log, module, "validation_set_for_workload")
    return log


class _ResultQueue(queue.Queue):
    """In-process stand-in for the worker's ``multiprocessing`` result queue."""

    cancelled = False

    def cancel_join_thread(self) -> None:
        self.cancelled = True


class TestWorkerLoop:
    """``_worker_main`` driven in-process, with plain queues."""

    @staticmethod
    def _tasks(*items) -> queue.Queue:
        tasks = queue.Queue()
        for item in items:
            tasks.put(item)
        return tasks

    @staticmethod
    def _drain(results: queue.Queue) -> list:
        out = []
        while not results.empty():
            out.append(results.get_nowait())
        return out

    def test_runs_tasks_in_order_until_the_sentinel(self, tiny_run_config):
        specs = [
            RunSpec(name=f"w{i}", config=tiny_run_config.to_dict(), overrides={"seed": i})
            for i in range(3)
        ]
        tasks = self._tasks((0, specs[0]), (1, specs[1]), None, (2, specs[2]))
        results = _ResultQueue()
        executor_module._worker_main(tasks, results, StudyInputCache(), os.getppid())
        out = self._drain(results)
        assert [(index, record.name, error) for index, record, error in out] == [
            (0, "w0", None),
            (1, "w1", None),
        ]
        assert tasks.get_nowait() == (2, specs[2])  # nothing read past the sentinel
        assert not results.cancelled

    def test_run_error_keeps_its_type_and_traceback(self, tiny_run_config):
        spec = RunSpec(
            name="bad",
            config=tiny_run_config.to_dict(),
            overrides={"activation": "no-such-activation"},
        )
        results = _ResultQueue()
        executor_module._worker_main(self._tasks((0, spec), None), results, None, os.getppid())
        [(index, record, (error, trace))] = self._drain(results)
        assert (index, record) == (0, None)
        with pytest.raises(type(error)):
            execute_spec(spec)
        assert trace.startswith("Traceback (most recent call last)")
        assert type(error).__name__ in trace

    def test_exits_without_a_sentinel_once_the_driver_is_gone(self):
        # No pid is -1, so the worker sees its driver gone at the first idle poll.
        results = _ResultQueue()
        executor_module._worker_main(queue.Queue(), results, None, -1)
        assert results.cancelled
        assert results.empty()

    def test_a_terminated_worker_dies_by_sigterm_whatever_the_driver_handler(self, tiny_run_config):
        import signal

        def raising(signum, frame):  # what the CLI installs in the driver
            raise KeyboardInterrupt

        ctx = multiprocessing.get_context("fork")
        tasks, results = ctx.Queue(), ctx.Queue()
        previous = signal.signal(signal.SIGTERM, raising)
        try:
            worker = ctx.Process(
                target=executor_module._worker_main, args=(tasks, results, None, os.getpid())
            )
            worker.start()
        finally:
            signal.signal(signal.SIGTERM, previous)
        bad = RunSpec(name="bad", config=tiny_run_config.to_dict(), overrides={"activation": "nope"})
        tasks.put((0, bad))
        assert results.get(timeout=60)[0] == 0  # the worker is in its loop
        worker.terminate()
        worker.join(timeout=10)
        assert worker.exitcode == -signal.SIGTERM  # not 1 from a KeyboardInterrupt traceback

    def test_inherited_cache_is_used_without_rebuilding(self, tiny_run_config, tmp_path, monkeypatch):
        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        builds = _count_validation_builds(monkeypatch, tmp_path / "builds.calls")
        spec = RunSpec(name="inherit", config=tiny_run_config.to_dict())
        results = _ResultQueue()
        executor_module._worker_main(self._tasks((0, spec), None), results, cache, os.getppid())
        [(_, record, error)] = self._drain(results)
        assert error is None and record.name == "inherit"
        assert builds.read_text() == ""
        assert len(cache) == 1

    def test_without_an_inherited_cache_builds_once_per_scenario(
        self, tiny_run_config, tmp_path, monkeypatch
    ):
        builds = _count_validation_builds(monkeypatch, tmp_path / "builds.calls")
        specs = [
            RunSpec(name=f"own{i}", config=tiny_run_config.to_dict(), overrides={"seed": i})
            for i in range(2)
        ]
        results = _ResultQueue()
        executor_module._worker_main(
            self._tasks((0, specs[0]), (1, specs[1]), None), results, None, os.getppid()
        )
        assert [error for _, _, error in self._drain(results)] == [None, None]
        assert len(builds.read_text().splitlines()) == 1


@pytest.mark.slow  # spawns real worker pools
class TestProcessBackendWorkers:
    @pytest.fixture(autouse=True)
    def no_leaked_workers(self):
        yield
        assert multiprocessing.active_children() == []

    def test_all_backends_bit_identical_across_all_workloads(self, tiny_run_config):
        """serial ↔ process ↔ shm parity on every built-in workload.

        One study whose runs each select a different workload (the
        cross-workload shape) — which also exercises the driver-side input
        build, one validation set per workload inherited by every worker.
        ``shm`` stays in the list as the alias check.  The list is pinned to
        the built-ins rather than ``workload_names()`` because doctest runs
        register throwaway workloads whose factories do not survive outside
        their session.
        """
        from dataclasses import replace

        from repro.api.registry import workload_names

        builtins = (
            "advection1d",
            "advection2d",
            "analytic",
            "burgers",
            "fisher",
            "heat1d",
            "heat2d",
        )
        assert set(builtins) <= set(workload_names())
        config = replace(tiny_run_config, max_iterations=30)
        configurations = [
            {"_name": workload, "workload": workload} for workload in builtins
        ]
        per_backend = {
            backend: StudyRunner(
                base_config=config, study_name="par", backend=backend, max_workers=2
            ).run_all(configurations, name_key="_name")
            for backend in ("serial", "process", "shm")
        }
        assert len(per_backend["serial"]) == len(configurations)
        for backend in ("process", "shm"):
            for ref_run, run in zip(per_backend["serial"], per_backend[backend]):
                assert ref_run.name == run.name
                assert ref_run.series == run.series, (ref_run.name, backend)
                assert _comparable_metrics(ref_run) == _comparable_metrics(run), (
                    ref_run.name,
                    backend,
                )

    def test_shm_backend_bit_identical_to_serial(self, tiny_run_config):
        serial = StudyRunner(base_config=tiny_run_config, study_name="det").run_all(GRID)
        shm = StudyRunner(
            base_config=tiny_run_config, study_name="det", backend="shm", max_workers=2
        ).run_all(GRID)
        assert [r.name for r in serial] == [r.name for r in shm]
        for serial_run, shm_run in zip(serial, shm):
            assert serial_run.series == shm_run.series
            assert _comparable_metrics(serial_run) == _comparable_metrics(shm_run)
            assert serial_run.workload == shm_run.workload
            assert serial_run.seed == shm_run.seed

    def test_completion_stream_and_spec_order(self, tiny_run_config):
        seen = []
        executor = get_executor("shm", max_workers=2)
        specs = StudyRunner(base_config=tiny_run_config, study_name="ord").build_specs(GRID)
        records = executor.execute(specs, on_record=lambda i, r: seen.append((i, r.name)))
        assert [r.name for r in records] == [s.name for s in specs]
        # Each streamed record arrives once, under its own spec index.
        assert sorted(seen) == [(i, s.name) for i, s in enumerate(specs)]

    def test_empty_spec_list(self):
        assert MultiprocessExecutor(max_workers=2).execute([]) == []

    def test_more_workers_than_runs_are_clamped(self, tiny_run_config, caplog):
        specs = StudyRunner(base_config=tiny_run_config, study_name="few").build_specs(GRID[:2])
        with caplog.at_level(logging.INFO, logger="repro.workflow"):
            records = MultiprocessExecutor(max_workers=8).execute(specs)
        assert [r.name for r in records] == [s.name for s in specs]
        assert any("2 worker(s) for 2 run(s)" in r.getMessage() for r in caplog.records)

    def test_driver_builds_every_scenario_before_forking(self, tiny_run_config):
        configurations = [{"_name": w, "workload": w} for w in ("heat2d", "heat1d", "heat2d")]
        specs = StudyRunner(base_config=tiny_run_config, study_name="pre").build_specs(
            configurations, name_key="_name"
        )
        executor = MultiprocessExecutor(max_workers=2)
        executor.execute(specs)
        assert len(executor.cache) == 2

    def test_prebuilt_cache_is_inherited_not_rebuilt(self, tiny_run_config, tmp_path, monkeypatch):
        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        builds = _count_validation_builds(monkeypatch, tmp_path / "builds.calls")
        specs = StudyRunner(base_config=tiny_run_config, study_name="warm").build_specs(GRID)
        records = get_executor("process", max_workers=2, cache=cache).execute(specs)
        assert len(records) == len(GRID)
        assert builds.read_text() == ""

    def test_without_fork_workers_build_their_own_inputs(self, tiny_run_config, monkeypatch):
        # A platform without fork: spawned workers cannot inherit the cache,
        # so the driver builds nothing and the outputs still match serial.
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
        specs = StudyRunner(base_config=tiny_run_config, study_name="spawn").build_specs(GRID[:2])
        executor = MultiprocessExecutor(max_workers=1)
        records = executor.execute(specs)
        assert len(executor.cache) == 0
        serial = SerialExecutor().execute(specs)
        for serial_run, run in zip(serial, records):
            assert serial_run.series == run.series
            assert _comparable_metrics(serial_run) == _comparable_metrics(run)

    def test_inputs_built_once_per_scenario(self, tiny_run_config, tmp_path, monkeypatch):
        # Two workers, two scenarios, two runs each: the driver builds both
        # validation sets and the forked workers inherit them.
        builds = _count_validation_builds(monkeypatch, tmp_path / "builds.calls")
        configurations = [
            {"_name": f"{workload}-{seed}", "workload": workload, "seed": seed}
            for workload in ("heat2d", "heat1d")
            for seed in (0, 1)
        ]
        results = StudyRunner(
            base_config=tiny_run_config, study_name="once", backend="process", max_workers=2
        ).run_all(configurations, name_key="_name")
        assert len(results) == 4
        assert len(builds.read_text().splitlines()) == 2

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_stops_at_the_run_boundary(self, tiny_run_config, tmp_path, monkeypatch, backend):
        # A service stop raised from the first record must not drain the
        # queue: only the runs already dispatched may have started.
        from repro.service.worker import ServiceShutdown

        starts = _count_calls(monkeypatch, tmp_path / "starts.calls", executor_module, "execute_spec")

        def stop(record):
            raise ServiceShutdown("stopping")

        runner = StudyRunner(
            base_config=tiny_run_config, study_name="stop", backend=backend,
            max_workers=1, on_result=stop,
        )
        with pytest.raises(ServiceShutdown):
            runner.run_all([{"seed": seed} for seed in range(6)])
        assert len(starts.read_text().splitlines()) <= 1 + 1  # max_workers + 1

    def test_cancel_stops_at_the_run_boundary(self, tiny_run_config, tmp_path, monkeypatch):
        # A job cancel from the service, with two workers this time.
        from repro.service.worker import JobCancelled

        starts = _count_calls(monkeypatch, tmp_path / "starts.calls", executor_module, "execute_spec")
        recorded = []

        def cancel(index, record):
            recorded.append(index)
            raise JobCancelled("cancelled")

        specs = [
            RunSpec(name=f"c{i}", config=tiny_run_config.to_dict(), overrides={"seed": i})
            for i in range(8)
        ]
        with pytest.raises(JobCancelled):
            MultiprocessExecutor(max_workers=2).execute(specs, cancel)
        assert len(recorded) == 1
        assert len(starts.read_text().splitlines()) <= 2 + 1  # max_workers + 1

    def test_records_before_a_failing_run_reach_on_record(self, tiny_run_config):
        # One worker runs the specs in order: the first record is streamed
        # (and so checkpointed) before the second run's error stops the study.
        good = RunSpec(name="good", config=tiny_run_config.to_dict())
        bad = RunSpec(
            name="bad",
            config=tiny_run_config.to_dict(),
            overrides={"activation": "no-such-activation"},
        )
        seen = []
        with pytest.raises(Exception) as raised:
            MultiprocessExecutor(max_workers=1).execute(
                [good, bad, good], on_record=lambda i, r: seen.append((i, r.name))
            )
        assert seen == [(0, "good")]
        assert "run 'bad' failed" in str(raised.value.__cause__)

    def test_workers_exit_when_the_driver_dies(self, tiny_run_config, tmp_path):
        # The driver SIGKILLs itself at the first record, before it sends any
        # sentinel.  Its worker holds the driver's stdout, so communicate()
        # returns only once the orphaned worker has exited too.
        import signal
        import subprocess
        import sys
        import textwrap

        import repro

        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent("""
            import json, os, signal, sys
            from repro.workflow.executor import MultiprocessExecutor, RunSpec
            config = json.loads(sys.argv[1])
            specs = [RunSpec(name=f"r{i}", config=config, overrides={"seed": i}) for i in range(3)]
            kill = lambda index, record: os.kill(os.getpid(), signal.SIGKILL)
            MultiprocessExecutor(max_workers=1).execute(specs, kill)
        """))
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        driver = subprocess.Popen(
            [sys.executable, str(script), json.dumps(tiny_run_config.to_dict())],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            driver.communicate(timeout=60)
        finally:
            try:
                os.killpg(driver.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert driver.returncode == -signal.SIGKILL

    def test_worker_crash_raises_and_leaks_nothing(self, tiny_run_config, monkeypatch):
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="process", max_workers=2
        )
        monkeypatch.setenv(faults.TOKEN_ENV, f"run:{runner.run_names(GRID)[1]}")
        monkeypatch.setenv(faults.MODE_ENV, "sigkill")
        with pytest.raises(RuntimeError, match=r"died \(exit codes \[-9\]\)"):
            runner.run_all(GRID)

    def test_crashed_study_resumes_to_completion(self, tiny_run_config, monkeypatch, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="process", max_workers=2
        )
        monkeypatch.setenv(faults.TOKEN_ENV, f"run:{runner.run_names(GRID)[2]}")
        monkeypatch.setenv(faults.MODE_ENV, "sigkill")
        with pytest.raises(RuntimeError):
            runner.run_all(GRID, checkpoint=path)
        monkeypatch.delenv(faults.TOKEN_ENV)
        results = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="process", max_workers=2
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)
        reference = StudyRunner(base_config=tiny_run_config, study_name="crash").run_all(GRID)
        for resumed_run, reference_run in zip(results, reference):
            assert resumed_run.series == reference_run.series
            assert _comparable_metrics(resumed_run) == _comparable_metrics(reference_run)

    def test_failing_run_reports_worker_traceback(self, tiny_run_config):
        # An unknown activation passes config validation but fails inside the
        # worker when the surrogate is built — the error path proper.  The
        # driver re-raises the worker's exception type, chained to a
        # traceback that names the run.
        spec = RunSpec(
            name="bad",
            config=tiny_run_config.to_dict(),
            overrides={"activation": "no-such-activation"},
        )
        with pytest.raises(Exception) as raised:
            MultiprocessExecutor(max_workers=1).execute([spec])
        with pytest.raises(type(raised.value)):
            execute_spec(spec)
        cause = raised.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "run 'bad' failed in a study worker" in str(cause)
        assert "Traceback (most recent call last)" in str(cause)

    def test_injected_fault_crosses_back_with_its_type(self, tiny_run_config, monkeypatch):
        # The "raise" mode of the run fault: the worker survives, and the
        # driver re-raises the fault itself rather than a wrapper.
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="fault", backend="process", max_workers=2
        )
        name = runner.run_names(GRID)[1]
        monkeypatch.setenv(faults.TOKEN_ENV, f"run:{name}")
        monkeypatch.setenv(faults.MODE_ENV, "raise")
        with pytest.raises(faults.InjectedFault, match=f"run:{name}") as raised:
            runner.run_all(GRID)
        assert f"run {name!r} failed in a study worker" in str(raised.value.__cause__)

    def test_armed_fault_fires_once_and_the_retry_completes(
        self, tiny_run_config, monkeypatch, tmp_path
    ):
        arm = tmp_path / "arm"
        arm.touch()
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="arm", backend="process", max_workers=2
        )
        monkeypatch.setenv(faults.TOKEN_ENV, f"run:{runner.run_names(GRID)[0]}")
        monkeypatch.setenv(faults.MODE_ENV, "raise")
        monkeypatch.setenv(faults.ARM_ENV, str(arm))
        with pytest.raises(faults.InjectedFault):
            runner.run_all(GRID, checkpoint=path)
        assert not arm.exists()  # the worker consumed the arming
        results = runner.run_all(GRID, resume=path)
        assert [r.name for r in results] == runner.run_names(GRID)

    def test_unpicklable_error_keeps_its_type_name(self, tiny_run_config, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        def failing(spec, cache=None):
            raise Unpicklable(7, "no way back")

        monkeypatch.setattr(executor_module, "execute_spec", failing)
        spec = RunSpec(name="odd", config=tiny_run_config.to_dict())
        with pytest.raises(RuntimeError, match="Unpicklable: 7: no way back"):
            MultiprocessExecutor(max_workers=1).execute([spec])


class TestRunNames:
    def test_duplicate_names_suffixed_with_index(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="dup")
        names = runner.run_names(
            [{"_name": "x"}, {"_name": "x"}, {"_name": "y"}], name_key="_name"
        )
        assert names == ["dup:x", "dup:x#1", "dup:y"]
        assert len(set(names)) == 3

    def test_factor_and_index_names(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="s")
        names = runner.run_names([{"_factor": "sigma", "_value": 1.0, "sigma": 1.0}, {}])
        assert names == ["s:sigma=1.0", "s:1"]


class TestCheckpointResume:
    def test_checkpoint_streams_jsonl(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="ck")
        results = runner.run_all(GRID[:2], checkpoint=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == [r.name for r in results]
        assert all("metrics" in line and "series" in line for line in lines)

    def test_resume_skips_completed_runs(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        # A "killed" study: only the first two runs completed.
        interrupted = StudyRunner(base_config=tiny_run_config, study_name="res")
        interrupted.run_all(GRID[:2], checkpoint=path)

        executed = []
        resumed = StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        )
        results = resumed.run_all(GRID, resume=path)

        # Only the remaining configurations were executed...
        full_names = resumed.run_names(GRID)
        assert executed == full_names[2:]
        # ...and the final results cover the whole study, in order, identical
        # to an uninterrupted run.
        reference = StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID)
        assert [r.name for r in results] == [r.name for r in reference] == full_names
        for resumed_run, reference_run in zip(results, reference):
            assert resumed_run.series == reference_run.series
            assert _comparable_metrics(resumed_run) == _comparable_metrics(reference_run)
        # The checkpoint file now holds every run (resume appends to it).
        assert len(JsonlCheckpoint(path).load()) == len(GRID)

    def test_resume_with_process_backend(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:3], checkpoint=path)
        results = StudyRunner(
            base_config=tiny_run_config, study_name="res", backend="process", max_workers=2
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)

    def test_resume_with_shm_backend(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:3], checkpoint=path)
        executed = []
        results = StudyRunner(
            base_config=tiny_run_config, study_name="res", backend="shm", max_workers=2,
            on_result=lambda r: executed.append(r.name),
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)
        assert executed == [results.runs[-1].name]

    def test_truncated_checkpoint_line_tolerated(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="trunc")
        runner.run_all(GRID[:2], checkpoint=path)
        # Simulate a crash mid-write: chop the final line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        completed = JsonlCheckpoint(path).load()
        assert len(completed) == 1  # the intact line survives

    def test_resume_after_torn_line_executes_no_run_twice(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="torn").run_all(GRID[:2], checkpoint=path)
        # A kill mid-write: the second record is only half on disk, no newline.
        intact, second = path.read_text().splitlines()
        path.write_text(intact + "\n" + second[: len(second) // 2])

        executed = []
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="torn", on_result=lambda r: executed.append(r.name)
        )
        runner.run_all(GRID, resume=path)  # re-runs the torn run, then the two new ones
        runner.run_all(GRID, resume=path)  # everything is checkpointed by now
        names = runner.run_names(GRID)
        assert executed == names[1:]
        assert sorted(JsonlCheckpoint(path).load()) == sorted(names)

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert JsonlCheckpoint(tmp_path / "absent.jsonl").load() == {}

    def test_resume_with_changed_base_config_reexecutes(self, tiny_run_config, tmp_path):
        from dataclasses import replace

        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:1], checkpoint=path)
        # Same names, seed, workload, and overrides — but a different base
        # config (a key the overrides never mention). The fingerprint catches it.
        executed = []
        changed = StudyRunner(
            base_config=replace(tiny_run_config, max_iterations=tiny_run_config.max_iterations * 2),
            study_name="res",
            on_result=lambda r: executed.append(r.name),
        )
        changed.run_all(GRID[:1], resume=path)
        assert len(executed) == 1

    def test_legacy_record_without_digest_matches_on_fallback(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="res")
        runner.run_all(GRID[:1], checkpoint=path)
        # Strip the digest, simulating a checkpoint written before it existed.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            line["digest"] = ""
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        executed = []
        StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        ).run_all(GRID[:1], resume=path)
        assert executed == []

    def test_resume_with_changed_seed_reexecutes(self, tiny_run_config, tmp_path):
        from dataclasses import replace

        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:2], checkpoint=path)

        executed = []
        reseeded = StudyRunner(
            base_config=replace(tiny_run_config, seed=tiny_run_config.seed + 1),
            study_name="res",
            on_result=lambda r: executed.append(r.name),
        )
        results = reseeded.run_all(GRID[:2], resume=path)
        # Same names, but the checkpointed records carry the old seed — they
        # must not be relabeled as the new study's results.
        assert len(executed) == 2
        assert all(r.seed == tiny_run_config.seed + 1 for r in results)

    def test_resume_with_changed_overrides_reexecutes(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="res")
        runner.run_all([{"_name": "a", "sigma": 1.0}], name_key="_name", checkpoint=path)
        executed = []
        changed = StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        )
        changed.run_all([{"_name": "a", "sigma": 9.0}], name_key="_name", resume=path)
        assert executed == ["res:a"]

    def test_separate_checkpoint_seeded_with_resumed_records(self, tiny_run_config, tmp_path):
        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:2], checkpoint=old)
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(
            GRID, checkpoint=new, resume=old
        )
        # The new file stands alone: it holds the spliced-in old runs plus
        # the newly executed ones, so resuming from it skips everything.
        assert len(JsonlCheckpoint(new).load()) == len(GRID)
        executed = []
        StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        ).run_all(GRID, resume=new)
        assert executed == []


class TestExecuteSpec:
    def test_record_is_self_describing(self, tiny_run_config):
        spec = RunSpec(
            name="desc",
            config=tiny_run_config.to_dict(),
            overrides={"seed": 9},
        )
        record, result = execute_spec(spec)
        assert record.workload == "heat2d"
        assert record.seed == 9
        assert result.config.seed == 9

    def test_study_results_round_trip_preserves_engine_fields(self, tiny_run_config, tmp_path):
        results = StudyRunner(base_config=tiny_run_config, study_name="rt").run_all(GRID[:1])
        path = results.save_json(tmp_path / "rt.json")
        loaded = StudyResults.load_json(path)
        assert loaded.runs[0].workload == "heat2d"
        assert loaded.runs[0].seed == tiny_run_config.seed
