"""Micro-benchmarks of the training-path components.

These are ablation/throughput benches for the design choices documented in
docs/ARCHITECTURE.md and docs/AUTOGRAD.md: the NumPy autograd training step
(the PyTorch substitute), the per-sample-loss acquisition bookkeeping, and the
AMIS resampling step whose complexity the paper states is O(K).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import nn
from repro.analysis.report import format_table
from repro.api.workloads import Heat2DWorkload
from repro.breed.acquisition import LossDeviationTracker
from repro.breed.amis import AMISConfig, AdaptiveImportanceSampler
from repro.nn.tensor import Tensor
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.model import DirectSurrogate


@pytest.mark.benchmark(group="training")
@pytest.mark.parametrize("hidden,layers", [(16, 1), (64, 3)])
def test_training_step(benchmark, hidden, layers):
    """One Adam step on the paper's surrogate (batch 128, output 64x64)."""
    rng = np.random.default_rng(0)
    workload = Heat2DWorkload(heat=Heat2DConfig(grid_size=64, n_timesteps=100))
    model = DirectSurrogate(
        workload.surrogate_config(hidden_size=hidden, n_hidden_layers=layers, activation="relu"),
        workload.build_scalers(),
        rng=rng,
    )
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    inputs = Tensor(rng.random((128, 6)))
    targets = Tensor(rng.random((128, 64 * 64)))

    def step():
        model.zero_grad()
        loss = nn.functional.per_sample_mse(model(inputs), targets).mean()
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    emit(
        f"Training step bench — H={hidden}, L={layers}, batch=128, output=4096",
        f"parameters: {model.num_parameters()}, loss after step: {loss:.5f}",
    )
    assert np.isfinite(loss)


@pytest.mark.benchmark(group="breed")
def test_acquisition_ingest(benchmark):
    """Ingest one batch of per-sample losses into the loss-deviation tracker."""
    rng = np.random.default_rng(0)
    tracker = LossDeviationTracker()
    for sim_id in range(800):
        tracker.register_parameters(sim_id, rng.uniform(100, 500, 5))
    sim_ids = rng.integers(0, 800, size=128)
    timesteps = rng.integers(0, 101, size=128)
    losses = rng.random(128)

    def ingest():
        tracker.observe_batch(1, sim_ids, timesteps, losses)
        return tracker.n_observations

    benchmark(ingest)
    emit("Breed bench — acquisition ingest", f"observations ingested: {tracker.n_observations}")


@pytest.mark.benchmark(group="breed")
@pytest.mark.parametrize("n_samples", [10, 100, 400])
def test_amis_step_scales_with_k(benchmark, n_samples):
    """One AMIS resampling step; the paper states O(K) complexity."""
    rng = np.random.default_rng(0)
    sampler = AdaptiveImportanceSampler(HEAT2D_BOUNDS, AMISConfig(sigma=10.0))
    locations = rng.uniform(100, 500, size=(200, 5))
    q_values = rng.random(200)

    result = benchmark(
        lambda: sampler.propose(locations, q_values, n_samples, concentrate_probability=0.7, rng=rng)
    )
    emit(
        f"Breed bench — AMIS step, K={n_samples}",
        format_table(
            ["metric", "value"],
            [
                ("samples produced", f"{result.n_samples}"),
                ("from proposal", f"{result.n_proposal}"),
                ("from uniform mixing", f"{result.n_uniform}"),
                ("weight ESS", f"{result.ess:.1f}"),
            ],
        ),
    )
    assert result.n_samples == n_samples
