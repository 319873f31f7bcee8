#!/usr/bin/env python
"""Multi-scenario studies with the pluggable Workload API.

The steering contribution of the paper is workload-agnostic: Breed only sees
per-sample losses and a parameter box, never the PDE.  This example exercises
that decoupling end to end:

1. run the *same* on-line training configuration against every registered
   workload (the heat family plus the multi-physics family — advection,
   Burgers, Fisher–KPP) just by switching the ``workload`` registry key,
2. watch progress through ``TrainingSession`` hooks instead of patching the
   training loop,
3. drive a small Breed-vs-Random study on the cheap ``heat1d`` workload with
   the :class:`~repro.workflow.study.StudyRunner` orchestrator,
4. register a custom workload from user code — no framework changes needed.

Run with::

    python examples/multi_workload.py [--scale smoke]
"""

from __future__ import annotations

import argparse

from repro.api import (
    OnlineTrainingConfig,
    TrainingSession,
    Workload,
    register_workload,
    workload_names,
)
from repro.breed.samplers import BreedConfig
from repro.sampling.bounds import ParameterBounds
from repro.solvers.heat1d import Heat1DConfig, Heat1DImplicitSolver
from repro.workflow.study import StudyRunner


def run_every_workload(seed: int) -> None:
    """One identical budget, three different physics backends."""
    print(f"registered workloads: {workload_names()}")
    for name in workload_names():
        config = OnlineTrainingConfig(
            workload=name,
            breed=BreedConfig(sigma=25.0, period=25, window=60),
            n_simulations=24,
            hidden_size=16,
            batch_size=32,
            job_limit=6,
            timesteps_per_tick=2,
            train_iterations_per_tick=2,
            reservoir_capacity=400,
            reservoir_watermark=40,
            max_iterations=120,
            validation_period=40,
            n_validation_trajectories=6,
            seed=seed,
            # shared resolution knobs: 12x12 grid for heat2d, 12 points for 1-D
            workload_options={},
        )
        session = TrainingSession(config)
        session.add_hook(
            "steering",
            lambda s, record: print(
                f"    steering @ iter {record.iteration}: {record.n_applied} simulations rewritten"
            ),
        )
        result = session.run()
        print(
            f"  {name:8s} | output_dim={session.workload.output_dim:4d} "
            f"| params_dim={session.workload.bounds.dim} "
            f"| final validation MSE {result.final_validation_loss:.5f} "
            f"| ticks {result.n_ticks}"
        )


def heat1d_study(seed: int) -> None:
    """Breed vs Random on the 1-D workload through the study orchestrator."""
    base = OnlineTrainingConfig(
        workload="heat1d",
        breed=BreedConfig(sigma=25.0, period=30, window=60),
        workload_options={"n_points": 32},
        n_simulations=32,
        hidden_size=16,
        batch_size=32,
        job_limit=6,
        timesteps_per_tick=2,
        train_iterations_per_tick=2,
        reservoir_capacity=400,
        reservoir_watermark=40,
        max_iterations=150,
        validation_period=50,
        n_validation_trajectories=8,
        seed=seed,
    )
    runner = StudyRunner(base_config=base, study_name="heat1d")
    results = runner.run_all(
        [
            {"_name": "breed", "method": "breed"},
            {"_name": "random", "method": "random"},
        ],
        name_key="_name",
    )
    print("\nBreed vs Random on heat1d (shared solver + validation set):")
    for run in results.runs:
        print(
            f"  {run.name:15s} validation MSE {run.metric('final_validation_loss'):.5f} "
            f"(overfit gap {run.metric('overfit_gap'):+.5f})"
        )


def custom_workload_demo(seed: int) -> None:
    """Plug in a user-defined scenario without touching the framework."""

    @register_workload("heat1d-hires", overwrite=True)
    def _hires(config: OnlineTrainingConfig) -> Workload:
        return Workload(
            bounds=ParameterBounds(
                low=(200.0,) * 3, high=(400.0,) * 3, names=("T0", "T_left", "T_right")
            ),
            solver_class=Heat1DImplicitSolver,
            solver_config=Heat1DConfig(n_points=96, n_timesteps=config.heat.n_timesteps),
            output_dim=96,
        )

    config = OnlineTrainingConfig(
        workload="heat1d-hires",
        n_simulations=16,
        batch_size=32,
        job_limit=4,
        reservoir_capacity=300,
        reservoir_watermark=40,
        max_iterations=80,
        validation_period=40,
        n_validation_trajectories=4,
        seed=seed,
    )
    result = TrainingSession(config).run()
    print(
        f"\ncustom workload 'heat1d-hires': output_dim={result.model.config.output_dim}, "
        f"final validation MSE {result.final_validation_loss:.5f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    run_every_workload(args.seed)
    heat1d_study(args.seed)
    custom_workload_demo(args.seed)


if __name__ == "__main__":
    main()
