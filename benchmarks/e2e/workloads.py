"""The four cold-start workloads and their output checks.

Each workload function runs inside a fresh child process (see ``child.py``)
and talks to the benchmark only through the :class:`Harness` it is given:
``ready()`` marks the end of set-up, ``check()`` records an output check,
``span()`` opens a trace span when the run is traced.  The seed reaches
``repro`` only as ``config.seed`` / the grid's seeds.

Shapes (grid, time steps, simulations, batch, validation trajectories) are
fixed; ``--seconds`` scales only the *counts* in :data:`COUNTS`.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api.config import OnlineTrainingConfig
from repro.api.session import OnlineTrainingResult, TrainingSession
from repro.experiments.base import base_config
from repro.solvers.heat2d import Heat2DConfig

__all__ = ["COUNTS", "RUN_SECONDS", "SHRUNK_COUNTS", "SHRUNK_SHAPE", "WORKLOADS", "Harness",
           "SetupDone", "scaled_counts"]

#: nominal length of a workload's measured phase on the reference 2-core box;
#: ``BENCHMARK.json`` ``run_seconds`` carries the same number
RUN_SECONDS = 15

#: work per run at ``--seconds RUN_SECONDS`` (ISSUE 11's sizes cut to fit the
#: driver's time cap: iterations / runs / jobs scaled, shapes untouched)
COUNTS: Dict[str, Dict[str, int]] = {
    "paper_heat2d": {"max_iterations": 600},
    "stream_heat2d": {"max_iterations": 240},
    "study_grid": {"n_seeds": 2},
    "service_jobs": {"n_jobs": 50},
}

#: seconds-long shapes and counts of the harness self-test (``--shrunk``); its
#: numbers exercise the code paths and are never reported
SHRUNK_SHAPE: Dict[str, Any] = {
    "grid_size": 8,
    "n_timesteps": 10,
    "n_simulations": 40,
    "batch_size": 16,
    "reservoir_capacity": 200,
    "reservoir_watermark": 30,
    "n_validation_trajectories": 3,
    "validation_period": 10,
    "breed_period": 10,
    "max_iterations": 30,
}
SHRUNK_COUNTS: Dict[str, Dict[str, int]] = {
    "paper_heat2d": {"max_iterations": 40},
    "stream_heat2d": {"max_iterations": 40},
    "study_grid": {"n_seeds": 1},
    "service_jobs": {"n_jobs": 2},
}

#: ``--seed 0`` final validation loss of ``paper_heat2d`` by ``max_iterations``:
#: the default size, and ISSUE 11's 1000 iterations (``--seconds 25``)
PAPER_SEED0_VALIDATION_LOSS: Dict[int, float] = {
    600: 0.00596725653526016,
    1000: 0.0032421620227291443,
}


def scaled_counts(workload: str, seconds: float) -> Dict[str, int]:
    """The workload's counts scaled by ``seconds / RUN_SECONDS`` (at least 1)."""
    factor = seconds / RUN_SECONDS
    return {key: max(1, round(value * factor)) for key, value in COUNTS[workload].items()}


class SetupDone(Exception):
    """Raised by :meth:`Harness.ready` in a set-up-only child."""


class Harness:
    """What a workload may tell the benchmark about its run."""

    def __init__(
        self,
        seed: int,
        counts: Dict[str, int],
        out: Path,
        shape: Optional[Dict[str, Any]] = None,
        tracer: Any = None,
        layer_patches: Any = None,
        setup_only: bool = False,
    ) -> None:
        self.seed = seed
        self.counts = counts
        self.out = out
        #: shape overrides of the shrunken harness self-test (None → real shapes)
        self.shape = shape
        self.tracer = tracer
        #: the traced run's layer wrappers (a ``trace.Patches``), else None
        self.layer_patches = layer_patches
        self.setup_only = setup_only
        self.stamps: Dict[str, float] = {}
        #: units of work done (iterations, runs, jobs); with the checks: ``attempted``
        self.work_units = 0
        self.attempted = 0
        self.failures: List[str] = []

    def stamp(self, name: str) -> float:
        now = self.stamps[name] = time.monotonic()
        return now

    def ready(self) -> None:
        """Set-up is over; a set-up-only child stops here."""
        self.stamp("ready")
        if self.setup_only:
            raise SetupDone

    def span(self, name: str, leaf: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, leaf)

    def work(self, n: int) -> None:
        """Count ``n`` attempted units of work (iterations, runs, jobs)."""
        self.work_units += n
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def _shaped(config: OnlineTrainingConfig, shape: Optional[Dict[str, Any]]) -> OnlineTrainingConfig:
    """Apply the self-test's shrunken shapes last (no-op for benchmark runs).

    ``shape`` holds ``grid_size``, ``n_timesteps``, ``breed_period`` and any
    :class:`OnlineTrainingConfig` field.
    """
    if not shape:
        return config
    fields = dict(shape)
    heat = Heat2DConfig(grid_size=fields.pop("grid_size"), n_timesteps=fields.pop("n_timesteps"))
    breed = replace(config.breed, period=fields.pop("breed_period"))
    return replace(config, heat=heat, breed=breed, **fields)


def paper_config(seed: int, max_iterations: int, shape: Optional[Dict[str, Any]] = None) -> OnlineTrainingConfig:
    """The paper preset (64×64, T=100, S=800, B=128, 200 validation trajectories)."""
    config = _shaped(base_config("paper", method="breed", seed=seed), shape)
    return replace(config, max_iterations=max_iterations)


def stream_config(
    seed: int, max_iterations: int, snapshots: Path, shape: Optional[Dict[str, Any]] = None
) -> OnlineTrainingConfig:
    """Same PDE and solver, production/training ratio inverted, checkpoints on."""
    config = base_config("paper", method="breed", seed=seed)
    config = replace(
        config,
        timesteps_per_tick=10,
        train_iterations_per_tick=1,
        n_validation_trajectories=8,
        validation_period=200,
        breed=replace(config.breed, period=50),
        checkpoint_every=max(1, max_iterations // 2),
        checkpoint_dir=str(snapshots),
        checkpoint_keep=2,
    )
    return replace(_shaped(config, shape), max_iterations=max_iterations)


def session_outputs(result: OnlineTrainingResult) -> Dict[str, Any]:
    """Everything a run computed, timing excluded, as JSON-exact values."""
    history = result.history
    return {
        "iterations": int(history.train_iterations[-1]) if history.train_iterations else 0,
        "n_ticks": result.n_ticks,
        "final_train_loss": result.final_train_loss,
        "final_validation_loss": result.final_validation_loss,
        "train_losses": list(history.train_losses),
        "validation_iterations": list(history.validation_iterations),
        "validation_losses": list(history.validation_losses),
        "executed_parameters": result.executed_parameters.tolist(),
        "parameter_sources": list(result.parameter_sources),
        "steerings": [[r.iteration, r.n_applied] for r in result.steering_records],
        "launcher": result.launcher_summary,
        "reservoir": result.reservoir_summary,
        "samples_received": int(result.server_summary["samples_received"]),
        "transport_bytes": result.transport_bytes,
    }


def _run_session(h: Harness, config: OnlineTrainingConfig) -> Dict[str, Any]:
    """Cold-construct a session, run it, write its result JSON, check it."""
    with h.span("session.init_other"):
        session = TrainingSession(config)
    h.ready()
    tick_ends = [time.perf_counter()]
    session.add_hook("tick", lambda _: tick_ends.append(time.perf_counter()))
    with h.span("session.orchestration"):
        result = session.run()
    h.stamp("measured_end")
    outputs = session_outputs(result)
    with h.span("session.result_write"):
        (h.out / "result.json").write_text(json.dumps(outputs))

    h.work(config.max_iterations)
    h.check(
        "iterations_reached",
        outputs["iterations"] == config.max_iterations,
        f"{outputs['iterations']} != {config.max_iterations}",
    )
    losses = outputs["train_losses"] + outputs["validation_losses"]
    h.check("losses_finite", bool(losses) and all(math.isfinite(v) for v in losses))
    validation = session.validation_set
    return {
        "outputs": outputs,
        "latencies_s": np.diff(tick_ends).tolist(),
        "measured_s": h.stamps["measured_end"] - h.stamps["ready"],
        "counts": {
            "session.ticks": result.n_ticks,
            "nn.iterations": outputs["iterations"],
            "melissa.samples_received": outputs["samples_received"],
            "melissa.samples_evicted": int(result.reservoir_summary["evicted"]),
            "melissa.samples_rejected": int(result.reservoir_summary["rejected"]),
            "melissa.batches": int(result.reservoir_summary["batches"]),
            "melissa.transport_bytes": result.transport_bytes,
            "melissa.reuse_mean": result.reservoir_summary["mean_reuse"],
            "breed.steerings": len(result.steering_records),
            "breed.resampled": sum(r.n_applied for r in result.steering_records),
            "surrogate.validation_evals": len(outputs["validation_losses"]),
            "surrogate.valset_bytes": int(validation.inputs.nbytes + validation.targets.nbytes),
        },
    }


def paper_heat2d(h: Harness) -> Dict[str, Any]:
    config = paper_config(h.seed, h.counts["max_iterations"], h.shape)
    run = _run_session(h, config)
    recorded = PAPER_SEED0_VALIDATION_LOSS.get(config.max_iterations)
    if h.seed == 0 and h.shape is None and recorded is not None:
        loss = run["outputs"]["final_validation_loss"]
        h.check(
            "seed0_validation_loss",
            math.isclose(loss, recorded, rel_tol=1e-6),
            f"{loss!r} != {recorded!r}",
        )
    return run


def stream_heat2d(h: Harness) -> Dict[str, Any]:
    from repro.checkpoint import latest_snapshot, restore_session

    snapshots = h.out / "snapshots"
    config = stream_config(h.seed, h.counts["max_iterations"], snapshots, h.shape)
    run = _run_session(h, config)

    snapshot = latest_snapshot(snapshots)
    h.check("snapshot_written", snapshot is not None)
    if snapshot is not None:
        start = time.perf_counter()
        with h.span("checkpoint.restore", leaf=True):
            restored = restore_session(snapshot, config=config)
        run["restore_s"] = time.perf_counter() - start
        # The last snapshot was taken on the final tick, so the restored
        # session only has its closing validation point left to compute.
        restored_outputs = session_outputs(restored.run())
        different = [k for k, v in run["outputs"].items() if restored_outputs[k] != v]
        h.check("restore_equals_live", not different, f"differs in {different}")
        # not among the exact counts: the manifest's timer values vary in length
        run["snapshot_bytes"] = sum(
            path.stat().st_size for path in snapshot.rglob("*") if path.is_file()
        )
    return run


# ---------------------------------------------------------------------------
# Study grid
# ---------------------------------------------------------------------------

STUDY_BACKENDS = ("serial", "process", "shm")
STUDY_WORKERS = 2


def study_grid(h: Harness) -> Dict[str, Any]:
    from repro.workflow.executor import TIMING_METRICS
    from repro.workflow.study import StudyRunner

    base = base_config("small", method="breed", seed=h.seed)
    base = replace(
        base,
        heat=Heat2DConfig(grid_size=32, n_timesteps=50),
        n_validation_trajectories=200,
        max_iterations=400,
    )
    base = _shaped(base, h.shape)
    configurations = [
        {"method": method, "seed": h.seed + index, "_name": f"{method}-{index}"}
        for method in ("breed", "random")
        for index in range(h.counts["n_seeds"])
    ]
    h.ready()

    walls: Dict[str, float] = {}
    run_seconds: Dict[str, List[float]] = {}
    comparable: Dict[str, Any] = {}
    for backend in STUDY_BACKENDS:
        if backend != "serial" and h.layer_patches is not None:
            # Worker processes cannot hand spans back: the layer wrappers
            # cover the in-process serial pass only.
            h.layer_patches.remove()
        runner = StudyRunner(
            base_config=base,
            study_name="grid",
            backend=backend,
            max_workers=None if backend == "serial" else STUDY_WORKERS,
        )
        out = h.out / backend
        start = time.perf_counter()
        with h.span(f"workflow.{backend}"):
            results = runner.run_all(configurations, name_key="_name", checkpoint=out / "runs.jsonl")
        walls[backend] = time.perf_counter() - start
        with h.span("session.result_write"):
            results.save_json(out / "results.json")

        h.work(len(results))
        run_seconds[backend] = [run.metric("elapsed_seconds") for run in results]
        for run in results:
            h.check(
                f"{backend}:{run.name}:iterations",
                run.metric("iterations") == base.max_iterations,
                f"{run.metric('iterations')} != {base.max_iterations}",
            )
            h.check(
                f"{backend}:{run.name}:finite",
                all(math.isfinite(v) for series in run.series.values() for v in series),
            )
        comparable[backend] = [
            (run.name, {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS}, run.series)
            for run in results
        ]
    h.stamp("measured_end")
    for backend in STUDY_BACKENDS[1:]:
        h.check(f"serial_equals_{backend}", comparable[backend] == comparable["serial"])

    n_runs = len(configurations)
    return {
        "outputs": {"runs": comparable["serial"]},
        "latencies_s": [s for backend in STUDY_BACKENDS for s in run_seconds[backend]],
        "measured_s": sum(walls.values()),
        "counts": {"workflow.runs": n_runs * len(STUDY_BACKENDS)},
        "study": {
            backend: {
                "wall_s": walls[backend],
                "run_s_sum": sum(run_seconds[backend]),
                "workers": 1 if backend == "serial" else min(STUDY_WORKERS, n_runs),
                "runs": n_runs,
            }
            for backend in STUDY_BACKENDS
        },
    }


# ---------------------------------------------------------------------------
# Service jobs
# ---------------------------------------------------------------------------


def service_jobs(h: Harness) -> Dict[str, Any]:
    from repro.service import ServiceClient, StudyService

    root = h.out / "service"
    start = time.perf_counter()
    with h.span("service.start"):
        # Mid-run snapshots off, as in the repo's own service bench scenario:
        # stream_heat2d is where the checkpoint layer is measured.
        service = StudyService(root, port=0, n_workers=1, checkpoint_every=0).start()
        client = ServiceClient(service.url, timeout=60.0)
        health = client.health()
    start_s = time.perf_counter() - start
    try:
        h.ready()
        h.check("service_healthy", health["status"] == "ok", str(health.get("status")))
        config = _shaped(base_config("smoke", method="breed"), h.shape).to_dict()
        configurations = [{"method": "breed"}, {"method": "random"}]
        n_jobs = h.counts["n_jobs"]

        def submit(job_seed: int) -> Dict[str, Any]:
            return client.submit("bench", dict(config, seed=job_seed), configurations=configurations)

        submit_s: List[float] = []
        latencies: List[float] = []
        job_ids: List[str] = []
        first_submit = time.perf_counter()
        for index in range(n_jobs):
            t0 = time.perf_counter()
            with h.span("service.submit"):
                job = submit(h.seed + index)
            t1 = time.perf_counter()
            with h.span("service.wait"):
                record = client.wait(job["id"], timeout=120.0, poll_seconds=0.02)
            latencies.append(time.perf_counter() - t0)
            submit_s.append(t1 - t0)
            job_ids.append(job["id"])
            h.work(1)
            h.check(f"job{index}:done", record["state"] == "done", f"{record['state']}: {record.get('error')}")
        measured_s = time.perf_counter() - first_submit
        h.stamp("measured_end")
        h.check("jobs_distinct", len(set(job_ids)) == n_jobs)

        # The same job again is answered from the store, not executed.
        t0 = time.perf_counter()
        with h.span("service.dedupe_submit"):
            again = submit(h.seed + n_jobs - 1)
        dedupe_submit_s = time.perf_counter() - t0
        h.check(
            "dedupe_returns_original",
            bool(again.get("deduplicated")) and again["id"] == job_ids[-1],
            f"deduplicated={again.get('deduplicated')} id={again['id']} original={job_ids[-1]}",
        )
        t0 = time.perf_counter()
        with h.span("service.events_read"):
            events = client.events(job_ids[-1])
        events_read_s = time.perf_counter() - t0
        h.check("events_end_done", bool(events) and events[-1]["event"] == "done")
        result = client.result(job_ids[-1])
        runs = [
            {"name": run["name"], "series": run["series"], "final_validation_loss": run["metrics"]["final_validation_loss"]}
            for run in result["runs"]
        ]
        h.check(
            "result_finite",
            all(math.isfinite(v) for run in runs for series in run["series"].values() for v in series),
        )
        with h.span("session.result_write"):
            (h.out / "result.json").write_text(json.dumps({"jobs": job_ids, "last": runs}))
    finally:
        t0 = time.perf_counter()
        with h.span("service.stop"):
            service.stop()
        stop_s = time.perf_counter() - t0
    return {
        "outputs": {"jobs": job_ids, "last": runs},
        "latencies_s": latencies,
        "measured_s": measured_s,
        "counts": {"service.events_per_job": len(events)},
        "service": {
            "start_s": start_s,
            "submit_s": submit_s,
            "dedupe_submit_s": dedupe_submit_s,
            "events_read_s": events_read_s,
            "stop_s": stop_s,
            "store_bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file()),
        },
    }


WORKLOADS: Dict[str, Callable[[Harness], Dict[str, Any]]] = {
    "paper_heat2d": paper_heat2d,
    "stream_heat2d": stream_heat2d,
    "study_grid": study_grid,
    "service_jobs": service_jobs,
}
