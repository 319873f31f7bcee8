"""Shared fixtures for the test suite.

Fixtures provide small, fast instances of the expensive objects (solvers,
validation sets, training configurations) so individual tests stay well under
a second while still exercising the real code paths.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# tests/campaign/faults.py is the shared deterministic fault-injection helper
# (campaign kill-and-resume matrix, service interruption tests).  The test
# tree is importable per-directory (no packages), so make the helper reachable
# from every test module regardless of which directory pytest collected first.
_FAULTS_DIR = str(Path(__file__).parent / "campaign")
if _FAULTS_DIR not in sys.path:
    sys.path.insert(0, _FAULTS_DIR)

from repro.breed.samplers import BreedConfig
from repro.api import OnlineTrainingConfig
from repro.sampling.bounds import HEAT2D_BOUNDS, ParameterBounds
from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver
from repro.surrogate.normalization import SurrogateScalers


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def bounds() -> ParameterBounds:
    """The paper's heat-PDE parameter box [100, 500]^5."""
    return HEAT2D_BOUNDS


@pytest.fixture(scope="session")
def tiny_heat_config() -> Heat2DConfig:
    """A very small heat problem: 6x6 grid, 5 time steps."""
    return Heat2DConfig(grid_size=6, n_timesteps=5)


@pytest.fixture(scope="session")
def tiny_solver(tiny_heat_config: Heat2DConfig) -> Heat2DImplicitSolver:
    return Heat2DImplicitSolver(tiny_heat_config)


@pytest.fixture(scope="session")
def tiny_scalers(tiny_heat_config: Heat2DConfig) -> SurrogateScalers:
    return SurrogateScalers.for_heat2d(HEAT2D_BOUNDS, tiny_heat_config.n_timesteps)


@pytest.fixture
def tiny_run_config(tiny_heat_config: Heat2DConfig) -> OnlineTrainingConfig:
    """A complete on-line training configuration that runs in well under a second."""
    return OnlineTrainingConfig(
        method="breed",
        heat=tiny_heat_config,
        breed=BreedConfig(sigma=25.0, period=10, window=30, r_start=0.5, r_end=0.7, r_breakpoint=2),
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
        seed=5,
    )
