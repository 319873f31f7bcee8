#!/usr/bin/env python
"""Off-line vs on-line training of the same surrogate.

The paper's motivation (Section 1): the standard *off-line* pipeline
materialises the full solver dataset on disk before training, which couples
dataset size to storage and I/O budgets; Melissa's *on-line* pipeline streams
solver output straight into training.  This example runs both pipelines with
the same simulation budget and reports

* the storage footprint the off-line dataset would require,
* the bytes that crossed the (simulated) transport in the on-line run,
* final validation losses of both surrogates.

Run with::

    python examples/offline_vs_online.py
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.api import OnlineTrainingConfig, run_online_training
from repro.breed.samplers import BreedConfig
from repro.nn.tensor import Tensor
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds
from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver
from repro.surrogate.dataset import BatchIterator, generate_offline_dataset
from repro.surrogate.model import DirectSurrogate, SurrogateConfig
from repro.surrogate.normalization import SurrogateScalers
from repro.surrogate.validation import build_validation_set, validation_loss


def train_offline(
    solver: Heat2DImplicitSolver,
    scalers: SurrogateScalers,
    n_simulations: int,
    n_epochs: int,
    batch_size: int,
    validation,
    seed: int,
) -> tuple[DirectSurrogate, float, int]:
    """Classic epoch-based training on a pre-generated dataset."""
    rng = np.random.default_rng(seed)
    parameters = uniform_in_bounds(n_simulations, HEAT2D_BOUNDS, rng)
    dataset = generate_offline_dataset(solver, parameters, scalers)

    model = DirectSurrogate(
        SurrogateConfig(
            input_dim=6,
            output_dim=solver.field_size,
            hidden_size=32,
            n_hidden_layers=2,
        ),
        scalers,
        rng=rng,
    )
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    loss_fn = nn.MSELoss()
    iterator = BatchIterator(dataset, batch_size=batch_size, rng=rng)
    for _ in range(n_epochs):
        for inputs, targets, _ in iterator:
            model.zero_grad()
            loss = loss_fn(model(Tensor(inputs)), Tensor(targets))
            loss.backward()
            optimizer.step()
    return model, validation_loss(model, validation), dataset.nbytes


def main() -> None:
    heat = Heat2DConfig(grid_size=10, n_timesteps=15)
    n_simulations = 48
    workload = OnlineTrainingConfig(heat=heat).build_workload()
    solver = workload.build_solver()
    scalers = workload.build_scalers()
    validation = build_validation_set(solver, workload.bounds, scalers, n_trajectories=8)

    # --- off-line pipeline -------------------------------------------------
    print("Off-line pipeline: generate dataset -> store -> epoch-based training")
    offline_model, offline_val, dataset_bytes = train_offline(
        solver,
        scalers,
        n_simulations=n_simulations,
        n_epochs=4,
        batch_size=32,
        validation=validation,
        seed=0,
    )
    print(f"  dataset storage footprint : {dataset_bytes / 1e6:.2f} MB")
    print(f"  final validation MSE      : {offline_val:.5f}")

    # --- on-line pipeline ---------------------------------------------------
    print("\nOn-line pipeline: stream solver output straight into training (Melissa)")
    config = OnlineTrainingConfig(
        method="breed",
        heat=heat,
        breed=BreedConfig(sigma=25.0, period=20, window=60),
        n_simulations=n_simulations,
        hidden_size=32,
        n_hidden_layers=2,
        batch_size=32,
        job_limit=6,
        timesteps_per_tick=1,
        train_iterations_per_tick=2,
        reservoir_capacity=400,
        reservoir_watermark=50,
        max_iterations=250,
        validation_period=50,
        n_validation_trajectories=8,
        seed=0,
    )
    online = run_online_training(config, solver=solver, validation_set=validation)
    print(f"  streamed data volume      : {online.transport_bytes / 1e6:.2f} MB (never stored)")
    print(f"  reservoir peak size       : {int(online.reservoir_summary['size'])} samples "
          f"(capacity {int(online.reservoir_summary['capacity'])})")
    print(f"  mean sample reuse         : {online.reservoir_summary['mean_reuse']:.1f}x")
    print(f"  final validation MSE      : {online.final_validation_loss:.5f}")

    print("\nComparison")
    print(f"  off-line needs the full dataset on disk ({dataset_bytes / 1e6:.2f} MB); "
          f"on-line bounds memory to the reservoir "
          f"({int(online.reservoir_summary['capacity'])} samples).")
    print(f"  validation MSE — offline: {offline_val:.5f}   online: {online.final_validation_loss:.5f}")


if __name__ == "__main__":
    main()
