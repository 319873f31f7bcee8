"""Shared experiment scaffolding: scale presets and run helpers.

The paper's runs (grid 64×64, 100 time steps, 800 simulations, thousands of
NN iterations) take node-hours; the benchmarks must regenerate every figure on
a single CPU core in seconds-to-minutes.  Each experiment therefore accepts a
*scale*:

* ``"smoke"`` — a few seconds for the full figure; used by the pytest
  benchmarks and the CI-style test suite,
* ``"small"`` — minutes; closer dynamics, still laptop-friendly,
* ``"paper"`` — the configuration of Section 4 / Table 1 (expensive; provided
  for completeness and documented in EXPERIMENTS.md).

The per-tick production/training rates of each preset are chosen so the
scaled-down runs preserve the *overlap* between data creation and training
that Breed relies on: most of the simulation budget must still be pending when
the first resampling triggers fire, exactly as in the full-size experiments.

Every experiment but Table 1 is a study grid run by :func:`run_study`, the one
driver of the study engine, plus an analysis of the grid's
:class:`~repro.workflow.results.RunResult` records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.config import OnlineTrainingConfig
from repro.api.workloads import Workload
from repro.breed.samplers import BreedConfig
from repro.solvers.base import Solver
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.validation import ValidationSet
from repro.workflow.executor import StudyInputCache
from repro.workflow.results import StudyResults
from repro.workflow.study import StudyRunner

__all__ = [
    "ExperimentScale",
    "SCALES",
    "base_config",
    "run_study",
    "scaled_breed_config",
    "shared_study_inputs",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Resolution/budget preset for the experiment harness."""

    name: str
    grid_size: int
    n_timesteps: int
    n_simulations: int
    max_iterations: int
    batch_size: int
    reservoir_capacity: int
    reservoir_watermark: int
    validation_period: int
    n_validation_trajectories: int
    breed_period: int
    breed_window: int
    breed_sigma: float
    job_limit: int
    timesteps_per_tick: int
    train_iterations_per_tick: int


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        grid_size=8,
        n_timesteps=12,
        n_simulations=48,
        max_iterations=200,
        batch_size=32,
        reservoir_capacity=400,
        reservoir_watermark=40,
        validation_period=40,
        n_validation_trajectories=6,
        breed_period=15,
        breed_window=60,
        breed_sigma=25.0,
        job_limit=6,
        timesteps_per_tick=1,
        train_iterations_per_tick=2,
    ),
    "small": ExperimentScale(
        name="small",
        grid_size=16,
        n_timesteps=30,
        n_simulations=160,
        max_iterations=1000,
        batch_size=64,
        reservoir_capacity=1500,
        reservoir_watermark=200,
        validation_period=50,
        n_validation_trajectories=24,
        breed_period=60,
        breed_window=120,
        breed_sigma=15.0,
        job_limit=10,
        timesteps_per_tick=1,
        train_iterations_per_tick=2,
    ),
    "paper": ExperimentScale(
        name="paper",
        grid_size=64,
        n_timesteps=100,
        n_simulations=800,
        max_iterations=5000,
        batch_size=128,
        reservoir_capacity=4000,
        reservoir_watermark=300,
        validation_period=100,
        n_validation_trajectories=200,
        breed_period=300,
        breed_window=200,
        breed_sigma=10.0,
        job_limit=10,
        timesteps_per_tick=2,
        train_iterations_per_tick=4,
    ),
}


def scaled_breed_config(scale: ExperimentScale, **overrides: float) -> BreedConfig:
    """Breed configuration matching the scale, with optional overrides."""
    kwargs = dict(
        sigma=scale.breed_sigma,
        period=scale.breed_period,
        window=scale.breed_window,
        r_start=0.5,
        r_end=0.7,
        r_breakpoint=3,
    )
    kwargs.update(overrides)
    return BreedConfig(**kwargs)  # type: ignore[arg-type]


def base_config(
    scale_name: str = "smoke",
    method: str = "breed",
    seed: int = 0,
    workload: str = "heat2d",
    architecture: str = "mlp",
    **breed_overrides: float,
) -> OnlineTrainingConfig:
    """Build an :class:`OnlineTrainingConfig` for a named scale.

    ``workload`` selects the scenario (any :func:`repro.api.register_workload`
    key); the 1-D workloads reuse the scale's resolution knobs
    (``grid_size`` → ``n_points``).  ``architecture`` selects the surrogate
    body (any :func:`repro.api.register_architecture` key).
    """
    if scale_name not in SCALES:
        raise KeyError(f"unknown scale {scale_name!r}; options: {sorted(SCALES)}")
    scale = SCALES[scale_name]
    return OnlineTrainingConfig(
        method=method,
        breed=scaled_breed_config(scale, **breed_overrides),
        workload=workload,
        architecture=architecture,
        heat=Heat2DConfig(grid_size=scale.grid_size, n_timesteps=scale.n_timesteps),
        n_simulations=scale.n_simulations,
        batch_size=scale.batch_size,
        job_limit=scale.job_limit,
        reservoir_capacity=scale.reservoir_capacity,
        reservoir_watermark=scale.reservoir_watermark,
        timesteps_per_tick=scale.timesteps_per_tick,
        train_iterations_per_tick=scale.train_iterations_per_tick,
        max_iterations=scale.max_iterations,
        validation_period=scale.validation_period,
        n_validation_trajectories=scale.n_validation_trajectories,
        seed=seed,
    )


def shared_study_inputs(
    config: OnlineTrainingConfig,
) -> Tuple[Workload, Solver, Optional[ValidationSet]]:
    """Workload, solver and fixed validation set shared by a study's runs.

    Every experiment module reuses one solver (the implicit schemes
    pre-factorise their linear system) and one Halton validation set across
    all runs, exactly like the paper's studies.  Built by the study engine's
    :class:`~repro.workflow.executor.StudyInputCache`, in parallel where it
    can.
    """
    return (config.build_workload(), *StudyInputCache().inputs(config))


def run_study(
    template: OnlineTrainingConfig,
    study_name: str,
    configurations: List[Dict[str, Any]],
    seeds: Optional[Sequence[int]] = None,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    **run_all: Any,
) -> StudyResults:
    """Run an experiment's grid through the study engine, naming runs by ``_name``.

    ``run_all`` takes :meth:`StudyRunner.run_all`'s ``checkpoint``,
    ``resume`` and ``checkpoint_every``.  ``seeds`` is the seed axis: one
    seed runs the grid as it is with that seed (names and records as without
    the axis); several run configurations × seeds (see
    :meth:`StudyRunner.build_specs`).
    """
    seeds = list(dict.fromkeys(int(seed) for seed in seeds)) if seeds else None
    if seeds is not None and len(seeds) == 1:
        template = replace(template, seed=seeds[0])
        configurations = [dict(c, seed=seeds[0]) if "seed" in c else c for c in configurations]
        seeds = None
    runner = StudyRunner(template, study_name, backend=backend, max_workers=max_workers)
    return runner.run_all(configurations, name_key="_name", seeds=seeds, **run_all)
