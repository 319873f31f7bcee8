"""Built-in benchmark scenarios covering every measured hot path.

Importing this module registers the scenarios (see
:mod:`repro.bench.registry`); nothing here runs at import time.  The groups:

* ``solver/*`` — per-workload trajectory stepping for all registered
  workloads (plus the explicit heat2d stencil, whose fused step is a
  measured optimisation target),
* ``nn/*`` — surrogate forward, forward+backward+Adam training step, the
  loss node alone at paper shape (``nn/loss_step``), the composed
  ``mse_loss``/``l1_loss`` primitives at the same shape
  (``nn/composed_loss_step``), the bare optimizer update, the
  conv-surrogate forward, and the tape-overhead A/B probe (``nn/tape_overhead`` re-runs the training step under an
  explicit ``Tape`` recording when ``REPRO_TAPE_EXPLICIT=1``, so
  ``--compare`` between a dark and an enabled report bounds the cost of
  graph recording),
* ``validation/*`` — the fixed validation set at paper shape (64×64 grid,
  T=100): building 20 trajectories and one evaluation pass over them,
* ``reservoir/*`` — buffer ingest (with eviction) and batch draws,
* ``checkpoint/*`` — full-session snapshot save and restore,
* ``session/*`` — a small end-to-end on-line training run,
* ``telemetry/*`` — the same session body with metrics + tracing fully
  enabled, so ``--compare`` against ``session/online_smoke`` bounds the
  observability overhead,
* ``study/*`` — tiny study throughput through the serial and process
  executor backends, plus validation-heavy throughput and worker scaling of
  the process backend,
* ``service/*`` — HTTP round-trips against a live study service (submit,
  poll progress, wait for completion),
* ``campaign/*`` — DAG-of-studies orchestration overhead over a pre-warmed
  artifact cache (scheduling + manifest + cache splice, zero runs executed).

Scenario workloads are deterministic (fixed seeds, fixed work per call) so
two reports from the same machine measure the same computation.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.bench.registry import ScenarioRun, register_scenario

# --------------------------------------------------------------------- helpers


def _bench_workloads():
    from repro.api.registry import workload_names

    return workload_names()


def _build_workload(name: str):
    from repro.experiments.base import base_config

    return base_config("smoke", workload=name).build_workload()


def _trajectory_parameters(bounds, n: int) -> np.ndarray:
    """``n`` deterministic parameter vectors spread inside the bounds box."""
    low, high = bounds.low_array, bounds.high_array
    fractions = np.linspace(0.25, 0.75, n)[:, None]
    return low[None, :] + fractions * (high - low)[None, :]


def _tiny_session_config(seed: int = 0, **overrides):
    from repro.experiments.base import base_config

    config = base_config("smoke", method="breed", seed=seed)
    fields = dict(
        n_simulations=16,
        max_iterations=60,
        n_validation_trajectories=2,
        hidden_size=16,
        n_hidden_layers=1,
    )
    fields.update(overrides)
    return dataclasses.replace(config, **fields)


def _solver_scenario(workload_name: str, n_trajectories: int = 24) -> ScenarioRun:
    workload = _build_workload(workload_name)
    solver = workload.build_solver()
    vectors = _trajectory_parameters(workload.bounds, n_trajectories)

    def fn() -> int:
        steps = 0
        for params in vectors:
            for _ in solver.steps(params):
                steps += 1
        return steps

    return ScenarioRun(fn=fn)


def _register_solver_scenarios() -> None:
    for name in _bench_workloads():
        register_scenario(
            f"solver/{name}",
            units="steps",
            description=f"full-trajectory stepping of the {name!r} workload solver (smoke scale)",
        )(lambda name=name: _solver_scenario(name))


_register_solver_scenarios()


@register_scenario(
    "solver/heat2d_explicit",
    units="steps",
    description="explicit (sub-cycled) 2-D heat stencil — the fused-step optimisation target",
)
def _heat2d_explicit() -> ScenarioRun:
    from repro.solvers.heat2d import Heat2DConfig, Heat2DExplicitSolver

    solver = Heat2DExplicitSolver(Heat2DConfig(grid_size=48, n_timesteps=20))
    params = np.array([250.0, 100.0, 200.0, 300.0, 400.0])

    def fn() -> int:
        steps = 0
        for _ in solver.steps(params):
            steps += 1
        return steps * solver.substeps

    return ScenarioRun(fn=fn)


# ------------------------------------------------------------------------- nn


def _surrogate(hidden: int = 64, layers: int = 3):
    from repro.api.workloads import Heat2DWorkload
    from repro.solvers.heat2d import Heat2DConfig
    from repro.surrogate.model import DirectSurrogate

    rng = np.random.default_rng(0)
    workload = Heat2DWorkload(heat=Heat2DConfig(grid_size=64, n_timesteps=100))
    model = DirectSurrogate(
        workload.surrogate_config(hidden_size=hidden, n_hidden_layers=layers, activation="relu"),
        workload.build_scalers(),
        rng=rng,
    )
    inputs = rng.random((128, 6))
    targets = rng.random((128, 64 * 64))
    return model, inputs, targets


@register_scenario(
    "nn/forward",
    units="samples",
    description="surrogate MLP forward pass (H=64, L=3, batch 128, output 4096)",
)
def _nn_forward() -> ScenarioRun:
    from repro import nn
    from repro.nn.tensor import Tensor

    model, inputs, _ = _surrogate()
    x = Tensor(inputs)
    inner = 20

    def fn() -> int:
        with nn.no_grad():
            for _ in range(inner):
                model(x)
        return inner * 128

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/train_step",
    units="batches",
    description="full training step: forward + backward + Adam (H=64, L=3, batch 128)",
)
def _nn_train_step() -> ScenarioRun:
    from repro import nn
    from repro.nn.tensor import Tensor

    model, inputs, targets = _surrogate()
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    x, y = Tensor(inputs), Tensor(targets)
    inner = 10

    def fn() -> int:
        for _ in range(inner):
            model.zero_grad()
            loss = nn.functional.per_sample_mse(model(x), y).mean()
            loss.backward()
            optimizer.step()
        return inner

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/loss_step",
    units="batches",
    description="per-sample MSE forward + backward into the prediction (batch 128, output 4096)",
)
def _nn_loss_step() -> ScenarioRun:
    from repro import nn
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(4)
    prediction = Tensor(rng.random((128, 64 * 64)), requires_grad=True)
    target = Tensor(rng.random((128, 64 * 64)))
    inner = 20

    def fn() -> int:
        for _ in range(inner):
            prediction.zero_grad()
            nn.functional.per_sample_mse(prediction, target).mean().backward()
        return inner

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/composed_loss_step",
    units="batches",
    description="composed mse_loss + l1_loss forward + backward, constant target (batch 128, output 4096)",
)
def _nn_composed_loss_step() -> ScenarioRun:
    from repro import nn
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(4)
    prediction = Tensor(rng.random((128, 64 * 64)), requires_grad=True)
    target = Tensor(rng.random((128, 64 * 64)))
    inner = 10

    def fn() -> int:
        for _ in range(inner):
            prediction.zero_grad()
            nn.functional.mse_loss(prediction, target).backward()
            nn.functional.l1_loss(prediction, target).backward()
        return 2 * inner

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/optimizer_step",
    units="steps",
    description="bare Adam update over the surrogate parameter set (grads pre-filled)",
)
def _nn_optimizer_step() -> ScenarioRun:
    from repro import nn

    model, _, _ = _surrogate()
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(1)
    for param in model.parameters():
        param.grad = rng.standard_normal(param.shape)
    inner = 50

    def fn() -> int:
        for _ in range(inner):
            optimizer.step()
        return inner

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/tape_overhead",
    units="batches",
    description="nn/train_step body; REPRO_TAPE_EXPLICIT=1 wraps each step in an explicit Tape "
                "(A/B probe bounding the graph-recording overhead)",
)
def _nn_tape_overhead() -> ScenarioRun:
    import os

    from repro import nn
    from repro.nn.tensor import Tape, Tensor

    explicit = os.environ.get("REPRO_TAPE_EXPLICIT", "") not in ("", "0")
    model, inputs, targets = _surrogate()
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    x, y = Tensor(inputs), Tensor(targets)
    inner = 10

    def step() -> None:
        model.zero_grad()
        loss = nn.functional.per_sample_mse(model(x), y).mean()
        loss.backward()
        optimizer.step()

    def fn() -> int:
        if explicit:
            for _ in range(inner):
                with Tape():
                    step()
        else:
            for _ in range(inner):
                step()
        return inner

    return ScenarioRun(fn=fn)


@register_scenario(
    "nn/conv_forward",
    units="samples",
    description="conv2d surrogate forward pass (8 channels, L=2, batch 64, 32x32 grid)",
)
def _nn_conv_forward() -> ScenarioRun:
    from repro import nn
    from repro.nn.tensor import Tensor
    from repro.surrogate.model import SurrogateConfig, build_surrogate

    rng = np.random.default_rng(0)
    config = SurrogateConfig(
        input_dim=6,
        output_dim=32 * 32,
        hidden_size=8,
        n_hidden_layers=2,
        architecture="conv2d",
    )
    model = build_surrogate(config, rng=rng)
    x = Tensor(rng.random((64, 6)))
    inner = 5

    def fn() -> int:
        with nn.no_grad():
            for _ in range(inner):
                model(x)
        return inner * 64

    return ScenarioRun(fn=fn)


# ----------------------------------------------------------------- validation


def _paper_workload():
    from repro.experiments.base import base_config

    return base_config("paper").build_workload()


@register_scenario(
    "validation/build",
    units="samples",
    description="validation-set build at paper shape (20 Halton trajectories, 64x64 grid, T=100)",
)
def _validation_build() -> ScenarioRun:
    from repro.surrogate.validation import validation_set_for_workload

    workload = _paper_workload()
    solver = workload.build_solver()

    def fn() -> int:
        return len(validation_set_for_workload(workload, 20, solver=solver))

    return ScenarioRun(fn=fn)


@register_scenario(
    "validation/eval",
    units="samples",
    description="one validation_loss pass over a 2020-row paper-shape set (MLP 6-16-4096)",
)
def _validation_eval() -> ScenarioRun:
    from repro.surrogate.validation import validation_loss, validation_set_for_workload

    validation_set = validation_set_for_workload(_paper_workload(), 20)
    model, _, _ = _surrogate(hidden=16, layers=1)

    def fn() -> int:
        validation_loss(model, validation_set)
        return len(validation_set)

    return ScenarioRun(fn=fn)


# ------------------------------------------------------------------ reservoir


def _reservoir(capacity: int = 512, watermark: int = 32, y_dim: int = 64):
    from repro.melissa.reservoir import Reservoir

    rng = np.random.default_rng(2)
    reservoir = Reservoir(capacity=capacity, watermark=watermark, rng=rng)
    payload_rng = np.random.default_rng(3)
    xs = payload_rng.random((capacity, 6))
    ys = payload_rng.random((capacity, y_dim))
    return reservoir, xs, ys


@register_scenario(
    "reservoir/ingest",
    units="samples",
    description="reservoir put() of 8-step trajectory chunks incl. eviction "
    "(capacity 512, interleaved draws)",
)
def _reservoir_ingest() -> ScenarioRun:
    reservoir, xs, ys = _reservoir()
    n_chunks, chunk = 250, 8  # a session's block per client and tick

    def fn() -> int:
        stored = 0
        for i in range(n_chunks):
            rows = slice(i * chunk % 512, i * chunk % 512 + chunk)
            stored += reservoir.put(i, i * chunk % 101, xs[rows], ys[rows])
            if i % 2 == 1:
                reservoir.sample_batch(32)
        return stored

    return ScenarioRun(fn=fn)


@register_scenario(
    "reservoir/draw",
    units="batches",
    description="reservoir batch draws from a full buffer (capacity 512, batch 64)",
)
def _reservoir_draw() -> ScenarioRun:
    reservoir, xs, ys = _reservoir()
    reservoir.put(0, 0, xs, ys)
    inner = 200

    def fn() -> int:
        for _ in range(inner):
            reservoir.sample_batch(64)
        return inner

    return ScenarioRun(fn=fn)


# ----------------------------------------------------------------- checkpoint


@register_scenario(
    "checkpoint/save",
    units="snapshots",
    description="full-session snapshot save (tiny mid-run session, uncompressed)",
)
def _checkpoint_save() -> ScenarioRun:
    from repro.api.session import TrainingSession
    from repro.checkpoint import save_session

    session = TrainingSession(_tiny_session_config())
    while session.server.iteration < 20 and session.tick():
        pass
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-save-"))
    counter = [0]
    inner = 5

    def fn() -> int:
        for _ in range(inner):
            counter[0] += 1
            save_session(session, tmp / f"snap-{counter[0]}")
        return inner

    return ScenarioRun(fn=fn, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


@register_scenario(
    "checkpoint/restore",
    units="restores",
    description="full-session snapshot restore incl. session rebuild (tiny session)",
)
def _checkpoint_restore() -> ScenarioRun:
    from repro.api.session import TrainingSession
    from repro.checkpoint import restore_session, save_session

    config = _tiny_session_config()
    session = TrainingSession(config)
    while session.server.iteration < 20 and session.tick():
        pass
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-restore-"))
    snapshot = save_session(session, tmp)
    inner = 3

    def fn() -> int:
        for _ in range(inner):
            restore_session(snapshot, config)
        return inner

    return ScenarioRun(fn=fn, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


# -------------------------------------------------------------------- session


@register_scenario(
    "session/online_smoke",
    units="iterations",
    description="end-to-end on-line training session (16 sims, 60 iterations, breed)",
)
def _session_online() -> ScenarioRun:
    from repro.api.session import TrainingSession

    config = _tiny_session_config()

    def fn() -> int:
        result = TrainingSession(config).run()
        return int(result.server_summary["iterations"])

    return ScenarioRun(fn=fn)


# ---------------------------------------------------------------- telemetry


@register_scenario(
    "telemetry/overhead",
    units="iterations",
    description="session/online_smoke body with metrics + tracing fully enabled (overhead probe)",
)
def _telemetry_overhead() -> ScenarioRun:
    from repro import telemetry
    from repro.api.session import TrainingSession

    config = _tiny_session_config()
    trace_dir = Path(tempfile.mkdtemp(prefix="repro-bench-trace-"))
    already_on = telemetry.metrics_enabled() or telemetry.tracing_enabled()
    telemetry.configure(metrics=True, trace_dir=str(trace_dir), process_name="bench telemetry/overhead")

    def fn() -> int:
        result = TrainingSession(config).run()
        return int(result.server_summary["iterations"])

    def cleanup() -> None:
        if not already_on:
            telemetry.disable()
        shutil.rmtree(trace_dir, ignore_errors=True)

    return ScenarioRun(fn=fn, cleanup=cleanup)


# ---------------------------------------------------------------------- study


def _study_scenario(backend: str) -> ScenarioRun:
    from repro.workflow.study import StudyRunner

    config = _tiny_session_config(max_iterations=40)
    configurations = [{"method": "breed"}, {"method": "random"}]

    def fn() -> int:
        runner = StudyRunner(
            base_config=config,
            study_name=f"bench-{backend}",
            backend=backend,
            max_workers=2,
        )
        results = runner.run_all(configurations, name_key="method")
        return int(results.timing_summary()["runs"])

    return ScenarioRun(fn=fn)


@register_scenario(
    "study/serial",
    units="runs",
    description="tiny 2-run study through the serial executor backend",
)
def _study_serial() -> ScenarioRun:
    return _study_scenario("serial")


@register_scenario(
    "study/process",
    units="runs",
    description="tiny 2-run study through the process-pool executor backend",
)
def _study_process() -> ScenarioRun:
    return _study_scenario("process")


def _study_throughput_scenario(backend: str, max_workers: int, n_runs: int = 8) -> ScenarioRun:
    """Validation-heavy study throughput of one parallel backend.

    The scenario is built so the dominant study input — the fixed validation
    set, 256 full solver trajectories — dwarfs any single run: the driver
    builds it once and the forked workers inherit it, so the worker-count
    scenarios measure how the runs themselves scale.
    """
    from repro.workflow.study import StudyRunner

    config = _tiny_session_config(
        n_simulations=8,
        max_iterations=30,
        n_validation_trajectories=256,
    )
    configurations = [{"seed": seed} for seed in range(n_runs)]

    def fn() -> int:
        runner = StudyRunner(
            base_config=config,
            study_name=f"bench-{backend}-tp{max_workers}",
            backend=backend,
            max_workers=max_workers,
        )
        return len(runner.run_all(configurations))

    return ScenarioRun(fn=fn)


@register_scenario(
    "study/process_throughput",
    units="runs",
    description="validation-heavy 8-run study, process backend, 4 workers",
)
def _study_process_throughput() -> ScenarioRun:
    return _study_throughput_scenario("process", max_workers=4)


@register_scenario(
    "study/process_workers1",
    units="runs",
    description="validation-heavy 8-run study, process backend, 1 worker (scaling base)",
)
def _study_process_workers1() -> ScenarioRun:
    return _study_throughput_scenario("process", max_workers=1)


@register_scenario(
    "study/process_workers2",
    units="runs",
    description="validation-heavy 8-run study, process backend, 2 workers",
)
def _study_process_workers2() -> ScenarioRun:
    return _study_throughput_scenario("process", max_workers=2)


# -------------------------------------------------------------------- service


@register_scenario(
    "service/submit_roundtrip",
    units="requests",
    description="HTTP submit -> first progress event -> completed job against a live service",
)
def _service_submit_roundtrip() -> ScenarioRun:
    from repro.service import ServiceClient, StudyService

    root = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
    service = StudyService(root, port=0, n_workers=1, checkpoint_every=0).start()
    client = ServiceClient(service.url, timeout=60.0)
    config = _tiny_session_config(max_iterations=40).to_dict()
    # each call submits a distinct single-run study (the seed changes), so
    # dedupe never short-circuits the measured path
    seed_counter = iter(range(10_000))

    def fn() -> int:
        seed = next(seed_counter)
        job = client.submit(
            "bench-service",
            dict(config, seed=seed),
            configurations=[{}],
        )
        requests = 1
        events = client.events(job["id"])
        requests += 1
        record = client.wait(job["id"], timeout=120.0, poll_seconds=0.05)
        requests += 1  # wait()'s final poll observed the terminal state
        if record["state"] != "done":
            raise RuntimeError(f"bench job ended {record['state']!r}: {record['error']}")
        assert events is not None
        return requests

    def cleanup() -> None:
        service.stop()
        shutil.rmtree(root, ignore_errors=True)

    return ScenarioRun(fn=fn, cleanup=cleanup)


# ------------------------------------------------------------------ campaign


@register_scenario(
    "campaign/cache_hit",
    units="runs",
    description="DAG orchestration over a pre-warmed artifact cache (zero runs executed)",
)
def _campaign_cache_hit() -> ScenarioRun:
    """Pure campaign overhead: scheduling, manifest, cache splice — no training.

    Setup executes a tiny two-node campaign once to warm its artifact cache;
    each timed call replays the identical campaign over a fresh root seeded
    with a *copy* of that cache, so every run resolves through the
    cache-splice path (``runs_executed`` must stay 0).  The measured quantity
    is therefore the fixed per-run cost the campaign layer adds on top of
    the study engine — the number that should stay flat as campaigns grow.
    """
    from repro.campaign import CampaignRunner, CampaignSpec

    base = _tiny_session_config(max_iterations=20, n_simulations=4).to_dict()
    payload = {
        "name": "bench",
        "config": base,
        "nodes": [
            {"name": "a", "configurations": [{"sigma": 0.1}, {"sigma": 0.3}]},
            {"name": "b", "depends_on": ["a"], "configurations": [{"sigma": 0.1}]},
        ],
    }
    spec = CampaignSpec.from_dict(payload)
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-campaign-"))
    warm = CampaignRunner(spec, tmp / "warm").run()
    if not warm.ok:  # pragma: no cover - setup failure is a bench bug
        raise RuntimeError(f"cache warm-up failed: {warm.states}")
    counter = [0]

    def fn() -> int:
        counter[0] += 1
        root = tmp / f"replay-{counter[0]}"
        shutil.copytree(tmp / "warm" / "cache", root / "cache")
        outcome = CampaignRunner(spec, root).run()
        if outcome.runs_executed or outcome.cache_hits != 3:
            raise RuntimeError(
                f"expected a pure cache replay, executed={outcome.runs_executed} "
                f"hits={outcome.cache_hits}"
            )
        shutil.rmtree(root, ignore_errors=True)
        return outcome.cache_hits

    return ScenarioRun(fn=fn, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))
