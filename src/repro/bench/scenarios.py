"""Built-in benchmark scenarios: the hot paths no ``benchmarks/e2e`` layer times.

Importing this module registers the scenarios (see
:mod:`repro.bench.registry`); nothing here runs at import time.  The groups:

* ``solver/*`` — per-workload trajectory stepping for all registered
  workloads (plus the explicit heat2d stencil, which no session runs),
* ``nn/*`` — the composed ``mse_loss``/``l1_loss`` primitives at paper
  shape (``nn/composed_loss_step``), the conv-surrogate forward, and the
  tape-overhead A/B probe (``nn/tape_overhead`` times a forward + backward +
  Adam step, under an explicit ``Tape`` recording when
  ``REPRO_TAPE_EXPLICIT=1``, so ``--compare`` between a dark and an enabled
  report bounds the cost of graph recording),
* ``session/*`` — a small end-to-end on-line training run; run again with
  ``REPRO_METRICS``/``REPRO_TRACE_DIR`` set, ``--compare`` against the dark
  report bounds the observability overhead,
* ``campaign/*`` — DAG-of-studies orchestration overhead over a pre-warmed
  artifact cache (scheduling + manifest + cache splice, zero runs executed).

The forward, loss, backward and optimizer steps, the validation set, the
reservoir, checkpoints, studies and the service have no scenario: the repo
benchmark, ``benchmarks/e2e``, times each as a traced layer (see
docs/PERFORMANCE.md).

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


def _tiny_session_config(**overrides):
    from repro.experiments.base import base_config

    config = base_config("smoke", method="breed", seed=0)
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
    "nn/tape_overhead",
    units="batches",
    description="training step: forward + backward + Adam (H=64, L=3, batch 128); "
                "REPRO_TAPE_EXPLICIT=1 wraps each step in an explicit Tape "
                "(A/B probe bounding the graph-recording overhead)",
)
def _nn_tape_overhead() -> ScenarioRun:
    import os

    from repro import nn
    from repro.api import OnlineTrainingConfig
    from repro.nn.tensor import Tape, Tensor
    from repro.solvers.heat2d import Heat2DConfig
    from repro.surrogate.model import DirectSurrogate

    explicit = os.environ.get("REPRO_TAPE_EXPLICIT", "") not in ("", "0")
    rng = np.random.default_rng(0)
    workload = OnlineTrainingConfig(heat=Heat2DConfig(grid_size=64, n_timesteps=100)).build_workload()
    model = DirectSurrogate(
        workload.surrogate_config(hidden_size=64, n_hidden_layers=3, activation="relu"),
        workload.build_scalers(),
        rng=rng,
    )
    inputs, targets = rng.random((128, 6)), rng.random((128, 64 * 64))
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
