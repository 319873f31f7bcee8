"""Figure 4: distribution of the chosen input parameters.

Two comparisons built from the executed parameter vectors of run records:

* **4a** — within the Breed runs, the deviation histogram of uniform-sourced
  vectors vs proposal-sourced vectors,
* **4b** — the deviation histogram of the Random runs vs the Breed runs.

The expected shape (the paper's "central insight"): the proposal/Breed
distributions have their mean shifted towards *higher* parameter-vector
deviation — Breed concentrates sampling where the five temperatures are most
dissimilar, i.e. where trajectories are most dynamic and hardest to learn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.analysis.deviation import DeviationHistogram, compare_runs, histogram_by_source
from repro.experiments.base import base_config, run_study
from repro.workflow.results import StudyResults

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    """Histograms of both panels plus the run records behind them."""

    by_source: Dict[str, DeviationHistogram]
    by_method: Dict[str, DeviationHistogram]
    scale: str
    study: StudyResults

    @classmethod
    def from_study(cls, study: StudyResults, scale: str = "", n_bins: int = 16) -> "Fig4Result":
        """Both panels from the pooled Breed and Random runs of any study with ``method`` overrides."""
        breed, random = study.filter(method="breed"), study.filter(method="random")
        if not breed or not random:
            raise ValueError(f"study {study.study!r} needs both breed and random runs")
        random_parameters, breed_parameters = (
            np.concatenate([run.analysis("executed_parameters") for run in runs]) for runs in (random, breed)
        )
        sources = [s for run in breed for s in run.analysis("parameter_sources")]
        by_method = compare_runs({"Random": random_parameters, "Breed": breed_parameters}, n_bins=n_bins)
        by_source = histogram_by_source(breed_parameters, sources, n_bins=n_bins)
        return cls(by_source=by_source, by_method=by_method, scale=scale, study=study)

    @property
    def proposal_mean_shift(self) -> float:
        """Mean deviation of proposal-sourced minus uniform-sourced vectors (4a)."""
        return self.by_source["Proposal"].mean - self.by_source["Uniform"].mean

    @property
    def breed_mean_shift(self) -> float:
        """Mean deviation of the Breed runs minus the Random runs (4b)."""
        return self.by_method["Breed"].mean - self.by_method["Random"].mean

    def summary(self) -> Dict[str, float]:
        return {
            "uniform_mean": self.by_source["Uniform"].mean,
            "proposal_mean": self.by_source["Proposal"].mean,
            "proposal_mean_shift": self.proposal_mean_shift,
            "random_run_mean": self.by_method["Random"].mean,
            "breed_run_mean": self.by_method["Breed"].mean,
            "breed_mean_shift": self.breed_mean_shift,
            "n_proposal_vectors": float(self.by_source["Proposal"].n),
            "n_uniform_vectors": float(self.by_source["Uniform"].n),
        }


def run_fig4(
    scale: str = "smoke",
    seed: int = 0,
    n_bins: int = 16,
    workload: str = "heat2d",
    architecture: str = "mlp",
    **engine: Any,
) -> Fig4Result:
    """Run one Random and one Breed experiment (``engine``: :func:`run_study`'s knobs)."""
    template = base_config(scale, method="breed", seed=seed, workload=workload, architecture=architecture)
    configurations = [{"_name": "breed", "method": "breed"}, {"_name": "random", "method": "random"}]
    study = run_study(template, "fig4", configurations, **engine)
    return Fig4Result.from_study(study, scale=scale, n_bins=n_bins)
