#!/usr/bin/env python
"""Breed vs Random steering: the paper's headline comparison (Figures 3a & 4b).

Runs two on-line training experiments with an identical budget — one steered
uniformly at random (the baseline), one steered by Breed — and reports:

* final train/validation losses and the overfit gap of each run,
* the distribution shift of the chosen input parameters (Breed concentrates
  on parameter vectors with dissimilar temperatures, which produce more
  dynamic, harder-to-learn trajectories).

Run with::

    python examples/breed_vs_random.py [--scale smoke|small]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.analysis.curves import curve_from_history
from repro.analysis.deviation import compare_runs
from repro.analysis.report import render_histograms, render_loss_curves
from repro.api import run_online_training
from repro.experiments.base import base_config, shared_study_inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "small"], help="experiment scale")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--hidden-size", type=int, default=16, help="hidden width H of the surrogate MLP"
    )
    parser.add_argument("--layers", type=int, default=3, help="number of hidden layers L")
    args = parser.parse_args()

    breed_config = replace(
        base_config(args.scale, method="breed", seed=args.seed),
        hidden_size=args.hidden_size,
        n_hidden_layers=args.layers,
    )
    random_config = replace(breed_config, method="random")

    # Shared solver + fixed validation set, exactly like the paper's studies.
    _, solver, validation = shared_study_inputs(breed_config)

    print(f"Running Random baseline (H={args.hidden_size}, L={args.layers})...")
    random_run = run_online_training(random_config, solver=solver, validation_set=validation)
    print(f"Running Breed           (H={args.hidden_size}, L={args.layers})...")
    breed_run = run_online_training(breed_config, solver=solver, validation_set=validation)

    curves = {
        "Random": curve_from_history(random_run.history, "Random"),
        "Breed": curve_from_history(breed_run.history, "Breed"),
    }
    print("\n--- Loss curves (Figure 3a cell) " + "-" * 30)
    print(render_loss_curves(curves))

    print("--- Input-parameter deviation histograms (Figure 4b) " + "-" * 12)
    histograms = compare_runs(
        {"Random": random_run.executed_parameters, "Breed": breed_run.executed_parameters}
    )
    print(render_histograms(histograms))

    gap_random = curves["Random"].overfit_gap
    gap_breed = curves["Breed"].overfit_gap
    print("Summary")
    print(f"  Random overfit gap (val - train): {gap_random:+.5f}")
    print(f"  Breed  overfit gap (val - train): {gap_breed:+.5f}")
    print(f"  Breed deviation-mean shift vs Random: "
          f"{histograms['Breed'].mean - histograms['Random'].mean:+.2f} K")
    print(f"  Breed steering events: {len(breed_run.steering_records)}, "
          f"overwritten simulations: {breed_run.launcher_summary['overwrites']}")


if __name__ == "__main__":
    main()
