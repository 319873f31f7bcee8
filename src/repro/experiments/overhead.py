"""Framework-overhead experiment (the paper's "no computational overhead" claim).

Section 6 concludes that Breed improves generalisation "without computational
overhead": the steering work (loss-statistics bookkeeping plus the AMIS step,
complexity ``O(K)`` per trigger) is negligible compared to solver execution
and NN training.  This experiment quantifies that claim in the simulation by
comparing the steering time of a Random run and a Breed run with identical
budgets against each run's wall time, all read from the runs' records.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict

from repro.experiments.base import base_config, run_study
from repro.workflow.results import RunResult, StudyResults

__all__ = ["OverheadResult", "run_overhead"]

#: share of a run's wall time below which steering counts as negligible
NEGLIGIBLE_SHARE = 0.05


@dataclass
class OverheadResult:
    study: StudyResults
    scale: str = ""

    @classmethod
    def from_study(cls, study: StudyResults, scale: str = "") -> "OverheadResult":
        if not study.filter(method="breed") or not study.filter(method="random"):
            raise ValueError(f"study {study.study!r} needs both breed and random runs")
        return cls(study, scale)

    def _median(self, method: str, metric: str) -> float:
        return statistics.median(run.metric(metric) for run in self.study.filter(method=method))

    def summary(self) -> Dict[str, float]:
        """Medians over the runs of each method (one run each: its values)."""
        breed_steering = self._median("breed", "steering_seconds")
        breed_events = self._median("breed", "steering_events")
        return {
            "random_steering_seconds": self._median("random", "steering_seconds"),
            "breed_steering_seconds": breed_steering,
            "breed_steering_events": breed_events,
            "breed_iterations": self._median("breed", "iterations"),
            # one training batch per iteration
            "breed_batches": self._median("breed", "iterations"),
            "steering_seconds_per_event": breed_steering / max(breed_events, 1),
            "random_final_validation": self._median("random", "final_validation_loss"),
            "breed_final_validation": self._median("breed", "final_validation_loss"),
            # Always 0: the in-process transport queues nothing, so it drops nothing.
            "random_dropped_messages": 0.0,
            "breed_dropped_messages": 0.0,
        }

    @staticmethod
    def steering_share(run: RunResult) -> float:
        """Steering time as a share of the run's wall time."""
        return run.metric("steering_seconds") / run.metric("elapsed_seconds")

    @property
    def overhead_is_negligible(self) -> bool:
        """Every Breed run steers for under 5 % of its own wall time."""
        return all(
            self.steering_share(run) < NEGLIGIBLE_SHARE for run in self.study.filter(method="breed")
        )


def run_overhead(
    scale: str = "smoke", seed: int = 0, workload: str = "heat2d", architecture: str = "mlp", **engine: Any
) -> OverheadResult:
    """Run matched Random/Breed experiments (``engine``: :func:`run_study`'s knobs)."""
    template = base_config(scale, method="breed", seed=seed, workload=workload, architecture=architecture)
    configurations = [{"_name": "breed", "method": "breed"}, {"_name": "random", "method": "random"}]
    return OverheadResult.from_study(run_study(template, "overhead", configurations, **engine), scale)
