"""Glue between the training server and the launcher steering (Section 3.3).

The :class:`BreedController` is what the Melissa server owns.  Its job is to

* forward each batch's per-sample loss deviations into the steering sampler,
* decide, after every NN iteration, whether a resampling should be triggered,
* when triggered, ask the launcher for a consistent view of which simulations
  can still be re-parameterised (everything from ``S_{k+m}`` onwards, where
  ``k`` is the highest simulation id the launcher has seen and ``m`` the job
  limit), and
* push the new parameter vectors back through the launcher's
  ``update_parameters`` interface.

The launcher is the one store of every simulation's parameters: the sampler
reads them from :meth:`SteeringTarget.executed_parameters` at each
resampling and keeps no copy, so an applied update needs no bookkeeping on
the sampler's side.

The controller is sampler-agnostic: with a :class:`~repro.breed.samplers.RandomSampler`
it simply never triggers, reproducing the paper's baseline behaviour with the
identical code path (so overhead comparisons are fair).

Every triggered decision is timed with a :func:`time.perf_counter` pair:
``steering_seconds`` and ``steering_count`` grow whether the decision is
applied, finds no steerable simulation, comes back empty or raises.  Each
:class:`SteeringRecord` carries the running total when it was applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.breed.samplers import ResampleDecision, SteeringSampler

__all__ = ["SteeringTarget", "SteeringRecord", "BreedController"]


class SteeringTarget(Protocol):
    """The launcher-side interface the controller steers (see §3.3)."""

    def steerable_simulation_ids(self) -> List[int]:
        """Ids of simulations whose parameters may still be replaced safely."""
        ...

    def update_parameters(self, simulation_id: int, parameters: np.ndarray, source: str) -> None:
        """Replace the input parameters of a pending simulation."""
        ...

    def executed_parameters(self) -> Tuple[np.ndarray, List[str]]:
        """Every simulation's current parameters (row ``j`` for id ``j``) and provenance."""
        ...


@dataclass
class SteeringRecord:
    """Bookkeeping of one applied steering action (for analysis and tests)."""

    iteration: int
    resampling_index: int
    simulation_ids: List[int]
    sources: List[str]
    n_requested: int
    n_applied: int
    elapsed_seconds: float


@dataclass
class BreedController:
    """Owns the sampler and applies its decisions to the launcher."""

    sampler: SteeringSampler
    rng: np.random.Generator
    records: List[SteeringRecord] = field(default_factory=list)
    #: accumulated wall-clock seconds spent inside triggered steerings (overhead metric)
    steering_seconds: float = field(default=0.0, init=False)
    #: triggered steerings timed, applied or not
    steering_count: int = field(default=0, init=False)

    # ---------------------------------------------------------------- losses
    def observe_batch(
        self, simulation_ids: Sequence[int], timesteps: Sequence[int], deviations: Sequence[float]
    ) -> None:
        """Forward one training batch's loss deviations ``δ`` (Eq. 4) to the sampler."""
        self.sampler.observe_batch(simulation_ids, timesteps, deviations)

    # -------------------------------------------------------------- steering
    def maybe_steer(self, iteration: int, target: SteeringTarget) -> Optional[SteeringRecord]:
        """Trigger-and-apply: called by the server after every NN iteration."""
        if not self.sampler.should_resample(iteration):
            return None
        start = time.perf_counter()
        try:
            steerable = target.steerable_simulation_ids()
            if not steerable:
                return None
            parameters, _ = target.executed_parameters()
            decision = self.sampler.resample(len(steerable), iteration, self.rng, parameters)
            if decision is None or len(decision) == 0:
                return None
            n_applied = self._apply(decision, steerable, target)
        finally:
            self.steering_seconds += time.perf_counter() - start
            self.steering_count += 1
        record = SteeringRecord(
            iteration=iteration,
            resampling_index=decision.resampling_index,
            simulation_ids=list(steerable[:n_applied]),
            sources=list(decision.sources[:n_applied]),
            n_requested=len(steerable),
            n_applied=n_applied,
            elapsed_seconds=self.steering_seconds,
        )
        self.records.append(record)
        return record

    def _apply(self, decision: ResampleDecision, steerable: List[int], target: SteeringTarget) -> int:
        n = min(len(decision), len(steerable))
        for sim_id, params, source in zip(steerable[:n], decision.parameters, decision.sources):
            target.update_parameters(sim_id, params, source)
        return n

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Sampler state plus applied-steering bookkeeping.

        The accumulated steering wall-clock total is carried over so
        overhead reports cover the whole (interrupted) run; it is measurement,
        not behaviour, and stays excluded from bit-identity contracts.
        """
        return {
            "sampler": self.sampler.state_dict(),
            "steering_total_seconds": self.steering_seconds,
            "steering_count": self.steering_count,
            "records": [
                {
                    "iteration": record.iteration,
                    "resampling_index": record.resampling_index,
                    "simulation_ids": list(record.simulation_ids),
                    "sources": list(record.sources),
                    "n_requested": record.n_requested,
                    "n_applied": record.n_applied,
                    "elapsed_seconds": record.elapsed_seconds,
                }
                for record in self.records
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.sampler.load_state_dict(state["sampler"])
        self.steering_seconds = float(state["steering_total_seconds"])
        self.steering_count = int(state["steering_count"])
        self.records = [
            SteeringRecord(
                iteration=int(payload["iteration"]),
                resampling_index=int(payload["resampling_index"]),
                simulation_ids=[int(i) for i in payload["simulation_ids"]],
                sources=[str(s) for s in payload["sources"]],
                n_requested=int(payload["n_requested"]),
                n_applied=int(payload["n_applied"]),
                elapsed_seconds=float(payload["elapsed_seconds"]),
            )
            for payload in state["records"]
        ]

    # ------------------------------------------------------------- overhead
    @property
    def n_steering_events(self) -> int:
        return len(self.records)
