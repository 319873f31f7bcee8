"""Figure 4: distribution of the chosen input parameters.

Two comparisons built from the executed parameter vectors of complete runs:

* **4a** — within one Breed run, the deviation histogram of uniform-sourced
  vectors vs proposal-sourced vectors,
* **4b** — the deviation histogram of a whole Random run vs a whole Breed run.

The expected shape (the paper's "central insight"): the proposal/Breed
distributions have their mean shifted towards *higher* parameter-vector
deviation — Breed concentrates sampling where the five temperatures are most
dissimilar, i.e. where trajectories are most dynamic and hardest to learn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.deviation import DeviationHistogram, compare_runs, histogram_by_source
from repro.experiments.base import base_config
from repro.api.session import OnlineTrainingResult
from repro.workflow.study import StudyRunner

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    """Histograms of both panels plus the underlying runs."""

    by_source: Dict[str, DeviationHistogram]
    by_method: Dict[str, DeviationHistogram]
    breed_run: OnlineTrainingResult
    random_run: OnlineTrainingResult
    scale: str

    @property
    def proposal_mean_shift(self) -> float:
        """Mean deviation of proposal-sourced minus uniform-sourced vectors (4a)."""
        return self.by_source["Proposal"].mean - self.by_source["Uniform"].mean

    @property
    def breed_mean_shift(self) -> float:
        """Mean deviation of the Breed run minus the Random run (4b)."""
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


def run_fig4(scale: str = "smoke", seed: int = 0, n_bins: int = 16, workload: str = "heat2d") -> Fig4Result:
    """Run one Random and one Breed experiment and build the Figure-4 histograms.

    The histograms need the executed parameter vectors of the full
    :class:`OnlineTrainingResult`, so both runs go through the study engine's
    serial backend, which keeps them in-process.
    """
    breed_config = base_config(scale, method="breed", seed=seed, workload=workload)
    runner = StudyRunner(base_config=breed_config, study_name="fig4")
    runner.run_all(
        [{"_name": "breed", "method": "breed"}, {"_name": "random", "method": "random"}],
        name_key="_name",
    )
    breed_run = runner.full_results["fig4:breed"]
    random_run = runner.full_results["fig4:random"]

    by_source = histogram_by_source(
        breed_run.executed_parameters, breed_run.parameter_sources, n_bins=n_bins
    )
    by_method = compare_runs(
        {
            "Random": random_run.executed_parameters,
            "Breed": breed_run.executed_parameters,
        },
        n_bins=n_bins,
    )
    return Fig4Result(
        by_source=by_source,
        by_method=by_method,
        breed_run=breed_run,
        random_run=random_run,
        scale=scale,
    )
