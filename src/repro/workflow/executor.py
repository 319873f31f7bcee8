"""Pluggable study-execution engine: run specs, executor backends, checkpoints.

The paper's studies are grids of *independent* Melissa runs driven by a
Snakemake workflow (Appendix B.2) — embarrassingly parallel work.  This module
is the in-Python equivalent of that workflow engine:

* :class:`RunSpec` — one run of a study as a picklable value object: a name,
  the serialized base configuration (``OnlineTrainingConfig.to_dict()``) and a
  flat override dict.  Workers rebuild the real configuration with
  :meth:`RunSpec.build_config`, so specs can cross process boundaries.
* :class:`StudyInputCache` — per-process cache of the expensive study inputs
  (solver factorisation, fixed Halton validation set), keyed by scenario so
  multi-workload studies still share them within one worker.
* :class:`SerialExecutor` / :class:`MultiprocessExecutor` /
  :class:`SharedMemoryExecutor` — the three :class:`Executor` backends.
  The serial backend keeps the full
  :class:`~repro.api.session.OnlineTrainingResult` (model included)
  in-process; the multiprocess backend ships only the picklable
  :class:`~repro.workflow.results.RunResult` back from the workers; the
  shared-memory backend additionally shares the study inputs and result
  series through ``multiprocessing.shared_memory`` blocks
  (:mod:`repro.workflow.shm`) so nothing large is pickled in either
  direction.
* :class:`JsonlCheckpoint` — an append-only JSONL record of completed runs,
  written as results finish (in completion order) and read back by
  ``StudyRunner.run_all(..., resume=...)`` to skip completed runs after a
  crash or interruption.

Runs are deterministic functions of their configuration (every RNG stream is
seeded from ``config.seed``), so the two backends produce bit-identical
metrics and series for the same specs — except for the wall-clock
:data:`TIMING_METRICS`, which are excluded from any equality contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.api.config import OnlineTrainingConfig
from repro.api.session import OnlineTrainingResult, run_online_training
from repro.breed.samplers import BreedConfig
from repro.melissa.workers import start_workers
from repro.solvers.base import Solver
from repro.surrogate.validation import (
    ValidationSet,
    validation_set_floats,
    validation_set_for_workload,
)
from repro.utils.durable import AppendLog
from repro.utils.logging import get_logger
from repro.utils.timer import Timer
from repro.workflow import faults
from repro.workflow.results import RunResult

__all__ = [
    "BACKENDS",
    "Executor",
    "JsonlCheckpoint",
    "MultiprocessExecutor",
    "RunSpec",
    "SerialExecutor",
    "SharedInputCache",
    "SharedMemoryExecutor",
    "StudyInputCache",
    "TIMING_METRICS",
    "apply_overrides",
    "config_digest",
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
    and are ignored; everything else must be a field of
    :class:`~repro.api.config.OnlineTrainingConfig` (including ``workload``).
    """
    run_kwargs: Dict[str, Any] = {}
    breed_kwargs: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key.startswith("_"):
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


def config_digest(config: OnlineTrainingConfig) -> str:
    """Short stable fingerprint of an effective run configuration.

    Stamped onto each :class:`RunResult` so checkpoint/resume can detect that
    a record was produced by a different configuration — run names omit the
    base config entirely, and the override dict only covers the varied keys.
    Delegates to :meth:`OnlineTrainingConfig.digest`, which excludes the
    checkpoint-plumbing fields, so a run fingerprints identically whether or
    not it snapshots itself.
    """
    return config.digest()


# ---------------------------------------------------------------------------
# Shared-input cache
# ---------------------------------------------------------------------------


class StudyInputCache:
    """Per-process cache of a study's expensive inputs.

    Solvers (the implicit schemes pre-factorise their linear system) and the
    fixed Halton validation set are deterministic functions of the scenario
    — workload key and options, grid geometry, parameter bounds, validation
    budget — so they are shared across every run of that scenario.  Each
    worker process owns one instance; the serial backend shares one with the
    :class:`~repro.workflow.study.StudyRunner` driving it.
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
    calls it in-process, the multiprocess backend calls it inside each worker
    (through :func:`_execute_spec_in_worker`).
    """
    # Deterministic crash point for the kill-and-resume matrix: fires in
    # whichever process executes the run (driver or worker).  One env lookup
    # when unarmed — see repro.workflow.faults.
    faults.maybe_inject("run", spec.name)
    config = spec.build_config()
    solver, validation = (cache if cache is not None else StudyInputCache()).inputs(config)
    timer = Timer(name=spec.name)
    # Per-run telemetry attribution: counter snapshots around the run turn the
    # process-wide registry into per-run increments (workers run specs
    # sequentially, so every increment between the snapshots belongs to this
    # run).  Purely observational — absent entirely when metrics are off.
    metrics_on = telemetry.metrics_enabled()
    counters_before = telemetry.metrics().counter_values() if metrics_on else {}
    tracer = telemetry.tracer()
    with timer.span(), tracer.span("study.run", cat="study", run=spec.name):
        if config.checkpoint_dir:
            # Fault-tolerant path: re-enter a partially completed run from its
            # latest session snapshot instead of restarting it, and keep
            # snapshotting while it runs (session.run attaches the policy).
            from repro.checkpoint import resume_or_start

            session = resume_or_start(config, solver=solver, validation_set=validation)
            result = session.run()
        else:
            result = run_online_training(config, solver=solver, validation_set=validation)
    run_telemetry: Dict[str, float] = {}
    if metrics_on:
        run_telemetry = telemetry.counter_delta(
            counters_before, telemetry.metrics().counter_values()
        )
        run_telemetry["_worker_pid"] = float(os.getpid())
    tracer.flush()
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
            "elapsed_seconds": timer.total,
        },
        series={
            "train_iterations": [float(i) for i in result.history.train_iterations],
            "train_losses": list(result.history.train_losses),
            "validation_iterations": [float(i) for i in result.history.validation_iterations],
            "validation_losses": list(result.history.validation_losses),
        },
        workload=config.workload,
        seed=config.seed,
        digest=config_digest(config),
        telemetry=run_telemetry,
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
    """In-process backend: one run after another, full results retained.

    ``full_results`` maps run name → :class:`OnlineTrainingResult` for every
    spec executed by this instance — experiments that need the trained model
    or the executed parameter vectors (fig4, fig6, overhead) read it after
    the study completes.  Nothing needs to be picklable on this path.
    """

    def __init__(self, cache: Optional[StudyInputCache] = None, keep_full_results: bool = True) -> None:
        self.cache = cache if cache is not None else StudyInputCache()
        self.keep_full_results = keep_full_results
        self.full_results: Dict[str, OnlineTrainingResult] = {}

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        records: List[RunResult] = []
        for index, spec in enumerate(specs):
            record, full = execute_spec(spec, self.cache)
            if self.keep_full_results:
                self.full_results[spec.name] = full
            if on_record is not None:
                on_record(index, record)
            records.append(record)
        return records


# Worker-process state: one StudyInputCache per worker, living for the
# lifetime of the pool so solver factorisations and validation sets are
# shared across every run the worker executes (not re-done per run).
_WORKER_CACHE: Optional[StudyInputCache] = None


def _execute_spec_in_worker(spec: RunSpec) -> RunResult:
    """Process-pool entry point: run one spec against the worker-local cache."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = StudyInputCache()
    record, _ = execute_spec(spec, _WORKER_CACHE)
    return record


class MultiprocessExecutor:
    """``concurrent.futures.ProcessPoolExecutor``-backed parallel backend.

    Each worker rebuilds configurations from the picklable :class:`RunSpec`
    and keeps a worker-local :class:`StudyInputCache`; only the
    :class:`RunResult` record crosses back (the trained model stays in the
    worker).  Records are handed to ``on_record`` in completion order — the
    checkpoint stream — and returned re-ordered to spec order, so study
    results are deterministic regardless of scheduling.

    Workers resolve registry keys against a freshly imported ``repro``:
    workloads/samplers registered at runtime (``@register_workload`` in a
    script) are only visible to them under the ``fork`` start method.
    Under ``spawn``/``forkserver`` — macOS, Windows, and Linux from
    Python 3.14 where ``forkserver`` becomes the default — custom
    registrations must live in an importable module, or use the serial
    backend.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        if not specs:
            return []
        records: List[Optional[RunResult]] = [None] * len(specs)
        max_workers = effective_worker_count(self.max_workers, len(specs), backend="process")
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(_execute_spec_in_worker, spec): index
                for index, spec in enumerate(specs)
            }
            for future in as_completed(futures):
                index = futures[future]
                record = future.result()
                records[index] = record
                if on_record is not None:
                    on_record(index, record)
        return [record for record in records if record is not None]


# ---------------------------------------------------------------------------
# Shared-memory backend
# ---------------------------------------------------------------------------

#: test-only hook: a worker whose spec name equals this env var SIGKILLs
#: itself instead of running, so the worker-crash path is deterministic
_SHM_CRASH_ENV = "REPRO_SHM_TEST_CRASH_RUN"


def effective_worker_count(
    max_workers: Optional[int], n_specs: int, backend: str
) -> int:
    """Resolve a worker-pool size and log it once per study.

    ``None`` defaults to ``os.cpu_count()``; either way the count is clamped
    to ``[1, n_specs]`` — more workers than runs only cost startup time.  The
    single log line is what makes scaling numbers readable off study logs.
    """
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(int(workers), n_specs))
    _LOGGER.info(
        "%s backend: %d worker(s) for %d run(s)%s",
        backend,
        workers,
        n_specs,
        "" if max_workers is not None else " (defaulted to CPU count)",
    )
    return workers


class SharedInputCache(StudyInputCache):
    """Worker-side input cache backed by :class:`SharedStudyInputs`.

    Solvers are rebuilt locally (their factorisations are not shareable
    objects), but validation sets — the expensive input, requiring full
    solver trajectories over the Halton set — come zero-copy from the
    parent's shared blocks whenever the scenario is known there.
    """

    def __init__(self, shared: "SharedStudyInputs") -> None:  # noqa: F821
        super().__init__()
        self._shared = shared

    def inputs(self, config: OnlineTrainingConfig) -> Tuple[Solver, Optional[ValidationSet]]:
        key = self.key(config)
        if key not in self._entries:
            workload = config.build_workload()
            solver = workload.build_solver()
            if key in self._shared:
                validation = self._shared.validation_set(key)
            else:  # scenario unknown to the parent (defensive fallback)
                validation = validation_set_for_workload(
                    workload, config.n_validation_trajectories, solver=solver
                )
            self._entries[key] = (solver, validation)
        return self._entries[key]


def _estimated_series_floats(config: OnlineTrainingConfig) -> int:
    """Upper bound on one run's result-series floats (ring slot sizing).

    Train series record at most one point per iteration; validation series
    one point per ``validation_period`` plus the watermark/final points.
    Underestimates are safe — oversized series fall back to pickling.
    """
    max_iterations = int(config.max_iterations)
    validation_points = max_iterations // max(1, int(config.validation_period)) + 2
    return 2 * max_iterations + 2 * validation_points + 16


def _shm_worker_main(task_queue, result_queue, free_slots, inputs_manifest, ring_manifest):
    """Shared-memory pool worker: attach once, stream runs through the ring."""
    from repro.workflow.shm import SharedResultRing, SharedStudyInputs

    shared = SharedStudyInputs.attach(inputs_manifest)
    ring = SharedResultRing.attach(ring_manifest)
    cache = SharedInputCache(shared)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            index, spec = task
            try:
                if os.environ.get(_SHM_CRASH_ENV) == spec.name:  # pragma: no cover
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                record, _ = execute_spec(spec, cache)
                series = {
                    key: np.asarray(values, dtype=np.float64)
                    for key, values in record.series.items()
                }
                slot = free_slots.get()
                layout = ring.try_write(slot, series)
                if layout is None:
                    # Series exceed the preallocated slot: recycle it and
                    # fall back to pickling the full record.
                    free_slots.put(slot)
                    result_queue.put(("inline", index, record, None, None))
                else:
                    record = replace(record, series={})
                    result_queue.put(("slot", index, record, slot, layout))
            except Exception:  # noqa: BLE001 - report, keep the worker alive
                import traceback

                result_queue.put(("error", index, spec.name, traceback.format_exc(), None))
    finally:
        ring.close()
        shared.close()


class SharedMemoryExecutor:
    """Zero-copy parallel backend over ``multiprocessing.shared_memory``.

    Differences from :class:`MultiprocessExecutor`, all invisible to callers
    (records are bit-identical and arrive through the same ``on_record``
    completion stream):

    * the parent builds each distinct scenario's validation set **once** and
      publishes it through :class:`~repro.workflow.shm.SharedStudyInputs`;
      workers attach zero-copy instead of re-running the solver over the
      validation trajectories per worker process,
    * result series return through a preallocated
      :class:`~repro.workflow.shm.SharedResultRing` — workers write float
      arrays in place and send only run metadata; series too large for a
      ring slot transparently fall back to pickling,
    * worker processes are plain ``multiprocessing.Process`` loops over a
      task queue, so a crashed worker (OOM kill, segfault) is detected and
      reported as a ``RuntimeError`` instead of hanging the study, with all
      shared segments cleaned up in every path.

    The registry-visibility caveat of the process backend applies unchanged
    (workloads registered at runtime need ``fork`` or an importable module).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[StudyInputCache] = None,
        slot_floats: Optional[int] = None,
    ) -> None:
        self.max_workers = max_workers
        self.cache = cache if cache is not None else StudyInputCache()
        #: override of the per-slot ring capacity (None → estimated bound)
        self.slot_floats = slot_floats

    def execute(
        self, specs: Sequence[RunSpec], on_record: Optional[OnRecord] = None
    ) -> List[RunResult]:
        import multiprocessing as mp
        import queue as queue_module

        from repro.workflow.shm import SharedResultRing, SharedStudyInputs

        if not specs:
            return []
        max_workers = effective_worker_count(self.max_workers, len(specs), backend="shm")

        # Build every distinct scenario's inputs once, in the parent, and
        # publish the validation arrays as shared blocks.
        configs = [spec.build_config() for spec in specs]
        entries: Dict[Any, Optional[ValidationSet]] = {}
        for config in configs:
            key = StudyInputCache.key(config)
            if key not in entries:
                entries[key] = self.cache.inputs(config)[1]
        shared = SharedStudyInputs.build(entries.items())

        slot_floats = self.slot_floats
        if slot_floats is None:
            slot_floats = max(_estimated_series_floats(config) for config in configs)
        ring = SharedResultRing(
            n_slots=min(len(specs), 2 * max_workers), slot_floats=slot_floats
        )

        ctx = mp.get_context()
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        free_slots = ctx.Queue()
        for slot in range(ring.n_slots):
            free_slots.put(slot)
        workers = [
            ctx.Process(
                target=_shm_worker_main,
                args=(task_queue, result_queue, free_slots,
                      shared.manifest(), ring.manifest()),
                name=f"shm-worker-{i}",
                daemon=True,
            )
            for i in range(max_workers)
        ]
        records: List[Optional[RunResult]] = [None] * len(specs)
        try:
            for worker in workers:
                worker.start()
            for index, spec in enumerate(specs):
                task_queue.put((index, spec))
            for _ in workers:
                task_queue.put(None)

            n_done = 0
            while n_done < len(specs):
                try:
                    message = result_queue.get(timeout=0.1)
                except queue_module.Empty:
                    dead = [w for w in workers if not w.is_alive() and w.exitcode not in (0, None)]
                    if dead:
                        raise RuntimeError(
                            f"shm worker(s) {[w.name for w in dead]} died "
                            f"(exit codes {[w.exitcode for w in dead]}) with "
                            f"{len(specs) - n_done} run(s) outstanding"
                        )
                    continue
                kind, index = message[0], message[1]
                if kind == "error":
                    _, _, name, trace, _ = message
                    raise RuntimeError(f"run {name!r} failed in shm worker:\n{trace}")
                _, _, record, slot, layout = message
                if kind == "slot":
                    record = replace(record, series=ring.read(slot, layout))
                    free_slots.put(slot)
                records[index] = record
                n_done += 1
                if on_record is not None:
                    on_record(index, record)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                if worker.pid is not None:
                    worker.join(timeout=10.0)
            # Draining the queues lets their feeder threads exit cleanly.
            for q in (task_queue, result_queue, free_slots):
                q.cancel_join_thread()
                q.close()
            try:
                ring.unlink()
            finally:
                shared.unlink()
        return [record for record in records if record is not None]


#: registry of executor-backend names accepted by StudyRunner / the CLI
BACKENDS = ("serial", "process", "shm")


def get_executor(
    backend: str = "serial",
    max_workers: Optional[int] = None,
    cache: Optional[StudyInputCache] = None,
) -> Executor:
    """Construct the executor backend named ``backend``."""
    if backend == "serial":
        return SerialExecutor(cache=cache)
    if backend == "process":
        return MultiprocessExecutor(max_workers=max_workers)
    if backend == "shm":
        # The caller's cache seeds the parent-side input build, so a runner
        # that already built its scenario inputs shares instead of redoing.
        return SharedMemoryExecutor(max_workers=max_workers, cache=cache)
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
