"""Fixtures for the checkpoint-subsystem tests: tiny parametrizable runs."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.breed.samplers import BreedConfig
from repro.api import OnlineTrainingConfig
from repro.solvers.heat2d import Heat2DConfig


@pytest.fixture
def make_config() -> Callable[..., OnlineTrainingConfig]:
    """Factory of sub-second training configurations, workload/method selectable."""

    def factory(
        workload: str = "heat2d",
        method: str = "breed",
        seed: int = 5,
        **overrides,
    ) -> OnlineTrainingConfig:
        kwargs = dict(
            method=method,
            workload=workload,
            heat=Heat2DConfig(grid_size=6, n_timesteps=5),
            breed=BreedConfig(
                sigma=25.0, period=10, window=30, r_start=0.5, r_end=0.7, r_breakpoint=2
            ),
            n_simulations=24,
            hidden_size=8,
            n_hidden_layers=1,
            batch_size=16,
            job_limit=4,
            timesteps_per_tick=1,
            train_iterations_per_tick=2,
            reservoir_capacity=120,
            reservoir_watermark=24,
            max_iterations=60,
            validation_period=20,
            n_validation_trajectories=3,
            seed=seed,
        )
        kwargs.update(overrides)
        return OnlineTrainingConfig(**kwargs)

    return factory
