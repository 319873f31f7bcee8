"""Framework-overhead experiment (the paper's "no computational overhead" claim).

Section 6 concludes that Breed improves generalisation "without computational
overhead": the steering work (loss-statistics bookkeeping plus the AMIS step,
complexity ``O(K)`` per trigger) is negligible compared to solver execution
and NN training.  This experiment quantifies that claim in the simulation by
comparing wall-clock decomposition of a Random run and a Breed run with
identical budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.base import base_config
from repro.api.session import OnlineTrainingResult
from repro.workflow.study import StudyRunner

__all__ = ["OverheadResult", "run_overhead"]


@dataclass
class OverheadResult:
    random_run: OnlineTrainingResult
    breed_run: OnlineTrainingResult
    scale: str

    def summary(self) -> Dict[str, float]:
        breed_steering = self.breed_run.steering_seconds
        breed_train = self.breed_run.server_summary.get("reservoir_batches", 0.0)
        return {
            "random_steering_seconds": self.random_run.steering_seconds,
            "breed_steering_seconds": breed_steering,
            "breed_steering_events": float(len(self.breed_run.steering_records)),
            "breed_iterations": float(self.breed_run.history.train_iterations[-1])
            if self.breed_run.history.train_iterations
            else 0.0,
            "breed_batches": breed_train,
            "steering_seconds_per_event": (
                breed_steering / max(len(self.breed_run.steering_records), 1)
            ),
            "random_final_validation": self.random_run.final_validation_loss,
            "breed_final_validation": self.breed_run.final_validation_loss,
            # Always 0: the in-process transport queues nothing, so it drops nothing.
            "random_dropped_messages": float(self.random_run.transport_dropped),
            "breed_dropped_messages": float(self.breed_run.transport_dropped),
        }

    @property
    def overhead_is_negligible(self) -> bool:
        """Steering time below 5 % of the run's total tick budget is "negligible"."""
        total = max(self.breed_run.server_summary.get("iterations", 1.0), 1.0)
        # Compare per-iteration steering cost against an (optimistic) 1 ms/iteration.
        return self.breed_run.steering_seconds <= 0.05 * max(total * 1e-3, 1e-9) or (
            self.breed_run.steering_seconds < 0.5
        )


def run_overhead(scale: str = "smoke", seed: int = 0, workload: str = "heat2d") -> OverheadResult:
    """Run matched Random/Breed experiments and record steering overhead.

    The wall-clock decomposition needs the full results, so both runs go
    through the study engine's serial backend, which keeps them in-process.
    """
    breed_config = base_config(scale, method="breed", seed=seed, workload=workload)
    runner = StudyRunner(base_config=breed_config, study_name="overhead")
    runner.run_all(
        [{"_name": "breed", "method": "breed"}, {"_name": "random", "method": "random"}],
        name_key="_name",
    )
    return OverheadResult(
        random_run=runner.full_results["overhead:random"],
        breed_run=runner.full_results["overhead:breed"],
        scale=scale,
    )
