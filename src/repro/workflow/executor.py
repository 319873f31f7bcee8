"""Pluggable study-execution engine: run specs, executor backends, checkpoints.

The paper's studies are grids of *independent* Melissa runs driven by a
Snakemake workflow (Appendix B.2) — embarrassingly parallel work.  This module
is the in-Python equivalent of that workflow engine:

* :class:`RunSpec` — one run of a study as a picklable value object: a name,
  the serialized base configuration (``OnlineTrainingConfig.to_dict()``) and a
  flat override dict.  Workers rebuild the real configuration with
  :meth:`RunSpec.build_config`, so specs can cross process boundaries.
* :class:`StudyInputCache` — cache of the expensive study inputs (solver
  factorisation, fixed Halton validation set), keyed by scenario so
  multi-workload studies still share them across runs.
* :class:`SerialExecutor` / :class:`MultiprocessExecutor` — the two
  :class:`Executor` backends.  The serial backend runs in-process; the
  multiprocess backend forks workers that inherit the driver's study
  inputs.  Both hand back the same picklable
  :class:`~repro.workflow.results.RunResult` records, which carry
  everything the experiment analyses read.  The backend name ``"shm"`` is
  an alias of ``"process"``.
* :class:`JsonlCheckpoint` — an append-only JSONL record of completed runs,
  written as results finish (in completion order) and read back by
  ``StudyRunner.run_all(..., resume=...)`` to skip completed runs after a
  crash or interruption.

Runs are deterministic functions of their configuration (every RNG stream is
seeded from ``config.seed``), so the backends produce bit-identical
metrics and series for the same specs — except for the wall-clock
:data:`TIMING_METRICS`, which are excluded from any equality contract.
"""

from __future__ import annotations

import ctypes
import json
import os
import pickle
import queue
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro import telemetry
from repro.analysis.correlation import correlation_matrix
from repro.api.config import RETIRED_FIELD, OnlineTrainingConfig
from repro.api.session import OnlineTrainingResult, run_online_training
from repro.breed.samplers import BreedConfig
from repro.melissa.workers import start_workers, usable_cpus
from repro.solvers.base import Solver
from repro.surrogate.validation import (
    ValidationSet,
    validation_set_floats,
    validation_set_for_workload,
)
from repro.utils.durable import AppendLog
from repro.utils.logging import get_logger
from repro.workflow import faults
from repro.workflow.results import RunResult

__all__ = [
    "BACKENDS",
    "Executor",
    "JsonlCheckpoint",
    "MultiprocessExecutor",
    "RunSpec",
    "SerialExecutor",
    "StudyInputCache",
    "TIMING_METRICS",
    "WorkerTraceback",
    "apply_overrides",
    "effective_worker_count",
    "execute_spec",
    "get_executor",
]

_LOGGER = get_logger("workflow")

#: metric keys measuring wall-clock time — the only RunResult content that is
#: *not* bit-identical across executor backends / repeat runs
TIMING_METRICS = frozenset({"elapsed_seconds", "steering_seconds"})

#: configuration keys that live on the nested BreedConfig rather than the run
#: config (derived from the dataclass so newly added fields stay overridable)
_BREED_KEYS = frozenset(BreedConfig.__dataclass_fields__)


def apply_overrides(base: OnlineTrainingConfig, overrides: Dict[str, Any]) -> OnlineTrainingConfig:
    """Build a run configuration from a base config plus a flat override dict.

    Keys matching Breed hyper-parameters (any field of :class:`BreedConfig`,
    e.g. ``sigma``, ``period``, ``window``, ``r_start``) are applied to the
    nested breed configuration; keys starting with ``_`` are study metadata
    and are ignored, like the :data:`~repro.api.config.RETIRED_FIELD`;
    everything else must be a field of
    :class:`~repro.api.config.OnlineTrainingConfig` (including ``workload``).
    """
    run_kwargs: Dict[str, Any] = {}
    breed_kwargs: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key.startswith("_") or key == RETIRED_FIELD:
            continue
        if key in _BREED_KEYS:
            breed_kwargs[key] = value
        else:
            if key not in OnlineTrainingConfig.__dataclass_fields__:
                raise KeyError(f"unknown configuration key {key!r}")
            run_kwargs[key] = value
    breed = base.breed
    if breed_kwargs:
        # dataclasses.replace keeps every non-overridden field — including
        # ones added to BreedConfig after this function was written.
        breed = replace(breed, **breed_kwargs)
    return replace(base, breed=breed, **run_kwargs)


# ---------------------------------------------------------------------------
# Run specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One run of a study, in a form that can cross process boundaries.

    ``config`` is the serialized *base* configuration of the study
    (:meth:`OnlineTrainingConfig.to_dict` output); ``overrides`` is the flat
    per-run override dict understood by :func:`apply_overrides`.  Keeping the
    two separate (instead of serializing the merged configuration) preserves
    the study metadata keys (``_factor``/``_value``/``_name``) that result
    tables group by.

    ``checkpoint_dir``/``checkpoint_every`` enable *mid-run* session
    snapshots for this spec (see :mod:`repro.checkpoint`).  They live on the
    spec — not in the overrides — because they are workflow plumbing, not
    part of the run's identity: the configuration fingerprint ignores them,
    and the checkpointed ``RunResult.config`` stays free of host paths.
    """

    name: str
    config: Dict[str, Any] = field(default_factory=dict)
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: per-run session-snapshot directory (None → no mid-run checkpointing)
    checkpoint_dir: Optional[str] = None
    #: session-snapshot period in training batches
    checkpoint_every: int = 0

    def build_config(self) -> OnlineTrainingConfig:
        """Rebuild the effective run configuration (base ∘ overrides)."""
        config = apply_overrides(OnlineTrainingConfig.from_dict(self.config), self.overrides)
        if self.checkpoint_dir is not None and self.checkpoint_every > 0:
            config = replace(
                config,
                checkpoint_dir=str(self.checkpoint_dir),
                checkpoint_every=int(self.checkpoint_every),
            )
        return config


# ---------------------------------------------------------------------------
# Shared-input cache
# ---------------------------------------------------------------------------


class StudyInputCache:
    """Per-process cache of a study's expensive inputs.

    Solvers (the implicit schemes pre-factorise their linear system) and the
    fixed Halton validation set are deterministic functions of the scenario
    — workload key and options, grid geometry, parameter bounds, validation
    budget — so they are shared across every run of that scenario.  Both
    backends share one with the :class:`~repro.workflow.study.StudyRunner`
    driving them; forked process-backend workers inherit it.
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, Tuple[Solver, Optional[ValidationSet]]] = {}

    @staticmethod
    def key(config: OnlineTrainingConfig) -> Any:
        # repr-ed options keep the key hashable for arbitrary JSON-style
        # values (lists, nested dicts).
        return (
            config.workload,
            repr(sorted(config.workload_options.items())),
            config.heat,
            config.bounds,
            config.n_validation_trajectories,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def inputs(self, config: OnlineTrainingConfig) -> Tuple[Solver, Optional[ValidationSet]]:
        """Solver and validation set for ``config``, built once per scenario."""
        key = self.key(config)
        if key not in self._entries:
            workload = config.build_workload()
            solver = workload.build_solver()
            n_trajectories = config.n_validation_trajectories
            # The session's selection, and its parallel build: None (inline)
            # in a pool worker, beside another thread, or for small trajectories.
            workers = None
            if n_trajectories > 0:
                workers = start_workers(
                    solver, array_floats=validation_set_floats(solver, n_trajectories)
                )
            try:
                validation = validation_set_for_workload(
                    workload, n_trajectories, solver=solver, workers=workers
                )
            finally:
                if workers is not None:
                    workers.close()
            self._entries[key] = (solver, validation)
        return self._entries[key]


def execute_spec(
    spec: RunSpec, cache: Optional[StudyInputCache] = None
) -> Tuple[RunResult, OnlineTrainingResult]:
    """Execute one run spec and package its :class:`RunResult` record.

    This is the single run-execution path of the engine: the serial backend
    calls it in-process, the multiprocess backend inside each worker.  The
    full :class:`OnlineTrainingResult` (trained model included) is returned
    beside the record for in-process callers; the backends keep only the
    record.
    """
    # Deterministic crash point for the kill-and-resume matrix: fires in
    # whichever process executes the run (driver or worker).  One env lookup
    # when unarmed — see repro.workflow.faults.
    faults.maybe_inject("run", spec.name)
    config = spec.build_config()
    solver, validation = (cache if cache is not None else StudyInputCache()).inputs(config)
    # Per-run telemetry attribution: counter snapshots around the run turn the
    # process-wide registry into per-run increments (workers run specs
    # sequentially, so every increment between the snapshots belongs to this
    # run).  Purely observational — absent entirely when metrics are off.
    metrics_on = telemetry.metrics_enabled()
    counters_before = telemetry.metrics().counter_values() if metrics_on else {}
    tracer = telemetry.tracer()
    start = time.perf_counter()
    earlier_seconds = 0.0
    with tracer.span("study.run", cat="study", run=spec.name):
        if config.checkpoint_dir:
            # Fault-tolerant path: re-enter a partially completed run from its
            # latest session snapshot instead of restarting it, and keep
            # snapshotting while it runs (session.run attaches the policy).
            from repro.checkpoint import resume_or_start

            session = resume_or_start(config, solver=solver, validation_set=validation)
            # A resumed run's steering_seconds includes its snapshotted
            # segments (the controller carries the total), so its wall time does too.
            earlier_seconds = session.earlier_wall_seconds
            result = session.run()
        else:
            result = run_online_training(config, solver=solver, validation_set=validation)
    elapsed_seconds = earlier_seconds + time.perf_counter() - start
    run_telemetry: Dict[str, float] = {}
    if metrics_on:
        run_telemetry = telemetry.counter_delta(
            counters_before, telemetry.metrics().counter_values()
        )
        run_telemetry["_worker_pid"] = float(os.getpid())
    tracer.flush()
    statistics = result.history.sample_statistics
    record = RunResult(
        name=spec.name,
        config=dict(spec.overrides),
        metrics={
            "final_train_loss": result.final_train_loss,
            "final_validation_loss": result.final_validation_loss,
            "overfit_gap": result.overfit_gap,
            "iterations": float(result.history.train_iterations[-1]) if result.history.train_iterations else 0.0,
            "steering_events": float(len(result.steering_records)),
            "parameter_overwrites": float(result.launcher_summary.get("overwrites", 0)),
            "uniform_fraction": result.uniform_fraction(),
            "steering_seconds": result.steering_seconds,
            "elapsed_seconds": elapsed_seconds,
        },
        series={
            "train_iterations": [float(i) for i in result.history.train_iterations],
            "train_losses": list(result.history.train_losses),
            "validation_iterations": [float(i) for i in result.history.validation_iterations],
            "validation_losses": list(result.history.validation_losses),
        },
        workload=config.workload,
        seed=config.seed,
        digest=config.digest(),
        telemetry=run_telemetry,
        executed_parameters=result.executed_parameters.tolist(),
        parameter_sources=list(result.parameter_sources),
        # [] unless the statistics cover the whole run: a run resumed from a snapshot
        # written before every run recorded them holds only the later iterations
        sample_correlations=(
            correlation_matrix(statistics).matrix.tolist()
            if len(statistics) and statistics.iteration[0] == 1
            else []
        ),
    )
    return record, result


# ---------------------------------------------------------------------------
# Executor backends
# ---------------------------------------------------------------------------

#: callback invoked as each run finishes: ``(spec_index, record)``.
#: Called in *completion* order, which for the process backend need not be
#: spec order.
OnRecord = Callable[[int, RunResult], None]


class Executor(Protocol):
    """Study-execution backend: run every spec, return records in spec order."""

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        """Run ``specs`` and return their records, re-ordered to spec order."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """In-process backend: one run after another."""

    def __init__(self, cache: Optional[StudyInputCache] = None) -> None:
        self.cache = cache if cache is not None else StudyInputCache()

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        records: List[RunResult] = []
        for index, spec in enumerate(specs):
            # Drop the run's full result now, not when the next run rebinds it.
            record = execute_spec(spec, self.cache)[0]
            if on_record is not None:
                on_record(index, record)
            records.append(record)
        return records


def effective_worker_count(
    max_workers: Optional[int], n_specs: int, backend: str
) -> int:
    """Resolve a worker-pool size and log it once per study.

    ``None`` defaults to :func:`~repro.melissa.workers.usable_cpus` (the
    affinity mask, not the machine's CPU count); either way the count is
    clamped to ``[1, n_specs]`` — more workers than runs only cost startup
    time.  The single log line is what makes scaling numbers readable off
    study logs.
    """
    workers = max_workers if max_workers is not None else usable_cpus()
    workers = max(1, min(int(workers), n_specs))
    _LOGGER.info(
        "%s backend: %d worker(s) for %d run(s)%s",
        backend,
        workers,
        n_specs,
        "" if max_workers is not None else " (defaulted to usable CPUs)",
    )
    return workers


class WorkerTraceback(Exception):
    """The formatted traceback of a run that failed in a study worker.

    Chained as the ``__cause__`` of the run's own exception, which the driver
    re-raises with its original type.
    """


#: ``prctl`` option asking Linux for a signal when the parent dies
_PR_SET_PDEATHSIG = 1


def _die_with_driver() -> None:
    """On Linux, have the kernel SIGKILL this worker when its driver dies.

    The signal follows the *thread* that forked the worker, not the process:
    a worker forked by a service worker thread dies when that thread ends.
    :meth:`MultiprocessExecutor.execute` stops its workers before it returns,
    so the forking thread always outlives them.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None)
        libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    except (OSError, AttributeError):  # no usable libc: the between-task poll remains
        pass


def _worker_main(task_queue, result_queue, cache: Optional[StudyInputCache], driver: int) -> None:
    """Study worker: run ``(index, spec)`` tasks until the ``None`` sentinel.

    ``cache`` is the driver's, inherited copy-on-write through ``fork``;
    ``None`` (no ``fork`` here) makes the worker build its own inputs.  A
    worker whose driver (pid ``driver``) died is killed with it on Linux,
    mid-run, so it writes nothing more into the driver's directories; on
    other platforms it exits at the next task instead of waiting for a
    sentinel nobody will send.
    """
    # The driver stops workers with SIGTERM: die by it, whatever handler the
    # driver had installed before forking (the CLI's raises KeyboardInterrupt).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _die_with_driver()
    if os.getppid() != driver:  # the driver died before the request took hold
        result_queue.cancel_join_thread()
        return
    cache = cache if cache is not None else StudyInputCache()
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != driver:
                result_queue.cancel_join_thread()  # nobody reads: do not wait to flush
                return
            continue
        if task is None:
            return
        index, spec = task
        try:
            record = execute_spec(spec, cache)[0]
        except Exception as error:  # noqa: BLE001 - the driver re-raises it
            trace = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # noqa: BLE001 - keep the type's name when it cannot cross
                error = RuntimeError(f"{type(error).__name__}: {error}")
            result_queue.put((index, None, (error, trace)))
        else:
            result_queue.put((index, record, None))


class MultiprocessExecutor:
    """Parallel backend: worker processes over a task queue and a result queue.

    Before forking, the driver builds each distinct scenario's inputs once
    into ``cache`` (in parallel where :class:`StudyInputCache` can).  Workers
    are forked from the ``fork`` context, so they inherit those inputs
    copy-on-write and build nothing; on a platform without ``fork`` each
    worker builds its own.  Only the :class:`RunResult` record crosses back.
    Records are handed to ``on_record`` in completion order — the checkpoint
    stream — and returned re-ordered to spec order, so study results are
    deterministic regardless of scheduling.

    At most ``max_workers + 1`` runs are dispatched ahead of the records
    received, and every exit terminates the workers.  So an exception raised
    by ``on_record`` (a service stop or cancel at a run boundary) stops the
    study after the runs already started, instead of draining the queue.
    A dead worker (OOM kill, segfault, SIGKILL) raises a ``RuntimeError``
    naming its exit code; a run that raises re-raises its exception here,
    chained to a :class:`WorkerTraceback` that names the run.

    Workers resolve registry keys against their copy of ``repro``: workloads
    and samplers registered at runtime (``@register_workload`` in a script)
    are only visible to them under ``fork``.  Without it, custom
    registrations must live in an importable module, or use the serial
    backend.
    """

    def __init__(self, max_workers: Optional[int] = None, cache: Optional[StudyInputCache] = None) -> None:
        self.max_workers = max_workers
        self.cache = cache if cache is not None else StudyInputCache()

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        import multiprocessing as mp

        if not specs:
            return []
        max_workers = effective_worker_count(self.max_workers, len(specs), backend="process")
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
        cache = self.cache if ctx.get_start_method() == "fork" else None
        if cache is not None:
            for spec in specs:
                cache.inputs(spec.build_config())
        task_queue, result_queue = ctx.Queue(), ctx.Queue()
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(task_queue, result_queue, cache, os.getpid()),
                name=f"study-worker-{i}",
                daemon=True,
            )
            for i in range(max_workers)
        ]
        tasks = chain(enumerate(specs), [None] * max_workers)
        records: List[Optional[RunResult]] = [None] * len(specs)
        try:
            for worker in workers:
                worker.start()
            for task in islice(tasks, max_workers + 1):
                task_queue.put(task)
            n_done = 0
            while n_done < len(specs):
                try:
                    index, record, error = result_queue.get(timeout=0.1)
                except queue.Empty:
                    dead = [w for w in workers if w.exitcode not in (0, None)]
                    if dead:
                        raise RuntimeError(
                            f"study worker(s) {[w.name for w in dead]} died "
                            f"(exit codes {[w.exitcode for w in dead]}) with "
                            f"{len(specs) - n_done} run(s) outstanding"
                        )
                    continue
                if error is not None:
                    exception, trace = error
                    raise exception from WorkerTraceback(
                        f"run {specs[index].name!r} failed in a study worker:\n{trace}"
                    )
                records[index] = record
                n_done += 1
                if on_record is not None:
                    on_record(index, record)
                for task in islice(tasks, 1):  # after on_record: it may stop the study
                    task_queue.put(task)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                if worker.pid is not None:
                    worker.join(timeout=10.0)
            for q in (task_queue, result_queue):
                q.cancel_join_thread()
                q.close()
        return [record for record in records if record is not None]


#: registry of executor-backend names accepted by StudyRunner / the CLI
BACKENDS = ("serial", "process", "shm")


def get_executor(
    backend: str = "serial",
    max_workers: Optional[int] = None,
    cache: Optional[StudyInputCache] = None,
) -> Executor:
    """Construct the executor backend named ``backend``.

    ``"shm"`` names the process backend: its workers inherit the driver's
    study inputs, which is all the shared-memory backend once added.  The
    caller's cache seeds the driver-side input build, so a runner that
    already built its scenario inputs shares them instead of redoing them.
    """
    if backend == "serial":
        return SerialExecutor(cache=cache)
    if backend in ("process", "shm"):
        return MultiprocessExecutor(max_workers=max_workers, cache=cache)
    raise ValueError(f"unknown executor backend {backend!r}; options: {BACKENDS}")


# ---------------------------------------------------------------------------
# JSONL checkpointing
# ---------------------------------------------------------------------------


class JsonlCheckpoint:
    """Append-only JSONL record of completed runs.

    One line per completed :class:`RunResult`, durably appended (an
    :class:`~repro.utils.durable.AppendLog`) as each run finishes so a killed
    study loses at most the in-flight runs.  Loading skips a torn line and
    keeps the *last* record per name, so re-running a study into the same
    file is harmless.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Dict[str, RunResult]:
        """Completed runs keyed by name (empty when the file is absent)."""
        records = (RunResult.from_dict(payload) for payload in self._log.read())
        return {record.name: record for record in records}

    def append(self, record: RunResult) -> None:
        self._log.append(json.dumps(record.to_dict()))
