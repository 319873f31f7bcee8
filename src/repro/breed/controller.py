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
reads them from its ``executed_parameters()`` at each resampling and keeps
no copy, so an applied update needs no bookkeeping on the sampler's side.

The controller is sampler-agnostic: with a :class:`~repro.breed.samplers.RandomSampler`
it simply never triggers, reproducing the paper's baseline behaviour with the
identical code path (so overhead comparisons are fair).

Every triggered decision is timed with a :func:`time.perf_counter` pair:
``steering_seconds`` and ``steering_count`` grow whether the decision is
applied, finds no steerable simulation, comes back empty or raises.  An
applied one builds one :class:`SteeringRecord`, which carries the running
total and the diagnostics of the sampler's step.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.breed.samplers import SteeringSampler

__all__ = ["SteeringRecord", "BreedController"]


@dataclass
class SteeringRecord:
    """One applied steering: what was replaced, and how the step went.

    The fields from ``concentrate_probability`` on are the step's
    diagnostics, for analysis only: no digest reads them, a sampler that
    reports none leaves them ``None``, and so do records restored from a
    snapshot older than schema 5.
    """

    iteration: int
    #: resampling iteration ``s``
    resampling_index: int
    simulation_ids: List[int]
    sources: List[str]
    n_requested: int
    n_applied: int
    #: running total of :attr:`BreedController.steering_seconds` (wall clock)
    elapsed_seconds: float
    #: ``r(s)``, the probability a point is kept from the proposal
    concentrate_probability: Optional[float] = None
    #: ``N``, the number of observed simulations the weights cover
    window_size: Optional[int] = None
    #: Kish effective sample size of the weights
    ess: Optional[float] = None
    #: the largest normalised weight
    max_weight_share: Optional[float] = None
    #: Shannon entropy (nats) of the normalised weights
    weight_entropy: Optional[float] = None
    #: smallest and median ``σ`` of the members' last draws
    sigma_min: Optional[float] = None
    sigma_median: Optional[float] = None
    #: members whose retries ran out and that kept their location
    n_fallbacks: Optional[int] = None


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
    def maybe_steer(self, iteration: int, target: Any) -> Optional[SteeringRecord]:
        """Trigger-and-apply: called by the server after every NN iteration.

        ``target`` is the launcher side of §3.3: ``steerable_simulation_ids()``
        lists the simulations whose parameters may still be replaced,
        ``executed_parameters()`` gives every simulation's current parameters
        (row ``j`` for id ``j``) and their sources, and
        ``update_parameters(id, parameters, source)`` replaces a pending one's.
        """
        if not self.sampler.should_resample(iteration):
            return None
        start = time.perf_counter()
        try:
            steerable = target.steerable_simulation_ids()
            if not steerable:
                return None
            parameters, _ = target.executed_parameters()
            resampled = self.sampler.resample(len(steerable), iteration, self.rng, parameters)
            if not resampled:
                return None
            applied = list(zip(steerable, resampled.parameters, resampled.sources))
            for sim_id, params, source in applied:
                target.update_parameters(sim_id, params, source)
        finally:
            self.steering_seconds += time.perf_counter() - start
            self.steering_count += 1
        record = SteeringRecord(
            iteration=iteration,
            simulation_ids=list(steerable[: len(applied)]),
            sources=list(resampled.sources[: len(applied)]),
            n_requested=len(steerable),
            n_applied=len(applied),
            elapsed_seconds=self.steering_seconds,
            **resampled.diagnostics,
        )
        self.records.append(record)
        return record

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
            "records": [asdict(record) for record in self.records],
        }

    def load_state_dict(self, state: dict) -> None:
        self.sampler.load_state_dict(state["sampler"])
        self.steering_seconds = float(state["steering_total_seconds"])
        self.steering_count = int(state["steering_count"])
        # records written before schema 5 carry no diagnostics: theirs stay None
        self.records = [SteeringRecord(**payload) for payload in state["records"]]
