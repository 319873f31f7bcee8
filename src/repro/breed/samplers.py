"""Steering samplers: the uniform *Random* baseline and *Breed*.

Both implement :class:`SteeringSampler`, the contract the Melissa server's
steering mechanism talks to:

* :meth:`SteeringSampler.initial_parameters` draws the initial budget
  ``Λ_J`` (the paper samples it uniformly for both methods),
* :meth:`SteeringSampler.observe_batch` ingests the per-sample losses of each
  training batch (a no-op for Random),
* :meth:`SteeringSampler.should_resample` implements the periodic trigger
  (every ``P`` NN iterations for Breed, never for Random),
* :meth:`SteeringSampler.resample` produces replacement parameter vectors for
  the not-yet-submitted simulations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.breed.acquisition import LossDeviationTracker
from repro.breed.amis import AMISConfig, AMISResult, AdaptiveImportanceSampler
from repro.breed.mixing import MixingSchedule
from repro.sampling.bounds import ParameterBounds
from repro.sampling.uniform import uniform_in_bounds

__all__ = [
    "ParameterSource",
    "ResampleDecision",
    "SteeringSampler",
    "RandomSampler",
    "BreedConfig",
    "BreedSampler",
]


class ParameterSource:
    """Provenance tags of executed parameter vectors (used by the Fig. 4 analysis)."""

    INITIAL_UNIFORM = "initial_uniform"
    MIX_UNIFORM = "mix_uniform"
    PROPOSAL = "proposal"


@dataclass
class ResampleDecision:
    """Replacement parameters produced by one steering/resampling trigger."""

    #: new parameter vectors, shape (K, d)
    parameters: np.ndarray
    #: provenance tag per vector (``ParameterSource`` values)
    sources: List[str]
    #: NN iteration at which the resampling was triggered
    iteration: int
    #: resampling iteration index ``s``
    resampling_index: int
    #: diagnostics of the underlying AMIS step (None for uniform-only decisions)
    amis: Optional[AMISResult] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.parameters = np.atleast_2d(np.asarray(self.parameters, dtype=np.float64))
        if self.parameters.shape[0] != len(self.sources):
            raise ValueError("parameters and sources must have the same length")

    def __len__(self) -> int:
        return self.parameters.shape[0]


class SteeringSampler(abc.ABC):
    """Contract between the steering mechanism and a sampling strategy."""

    def __init__(self, bounds: ParameterBounds) -> None:
        self.bounds = bounds

    @abc.abstractmethod
    def initial_parameters(self, n_simulations: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the initial budget of parameter vectors ``Λ_J``."""

    def observe_batch(
        self,
        iteration: int,
        simulation_ids: Sequence[int],
        timesteps: Sequence[int],
        sample_losses: Sequence[float],
        parameters: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        """Ingest per-sample training losses (default: ignore them)."""

    def should_resample(self, iteration: int) -> bool:
        """Whether a resampling should be triggered at this NN iteration."""
        return False

    def resample(
        self, n_pending: int, iteration: int, rng: np.random.Generator
    ) -> Optional[ResampleDecision]:
        """Produce replacement parameters for ``n_pending`` simulations."""
        return None

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Mutable sampler state for session snapshots (stateless by default)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (no-op for stateless samplers)."""

    @property
    def name(self) -> str:
        return self.__class__.__name__


class RandomSampler(SteeringSampler):
    """The paper's *Random* baseline: uniform steering, no adaptation."""

    def initial_parameters(self, n_simulations: int, rng: np.random.Generator) -> np.ndarray:
        return uniform_in_bounds(n_simulations, self.bounds, rng)

    @property
    def name(self) -> str:
        return "Random"


@dataclass(frozen=True)
class BreedConfig:
    """All Breed hyper-parameters (Table 1 of the paper).

    Attributes
    ----------
    sigma:
        Proposal width ``σ``.
    period:
        ``P`` — number of NN iterations between resampling triggers.
    window:
        ``N`` — size of the proposal population (last observed simulations).
    r_start, r_end, r_breakpoint:
        The ``(r_s, r_e, r_c)`` concentrate–explore schedule.
    sigma_decrement, max_retries:
        Out-of-bounds handling of the Gaussian draws.
    """

    sigma: float = 10.0
    period: int = 300
    window: int = 200
    r_start: float = 0.5
    r_end: float = 0.7
    r_breakpoint: int = 3
    sigma_decrement: float = 0.3
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        # sigma / r validation is delegated to AMISConfig / MixingSchedule.
        AMISConfig(
            sigma=self.sigma,
            sigma_decrement=self.sigma_decrement,
            max_retries=self.max_retries,
        )
        MixingSchedule(self.r_start, self.r_end, self.r_breakpoint)

    def amis_config(self) -> AMISConfig:
        return AMISConfig(
            sigma=self.sigma,
            sigma_decrement=self.sigma_decrement,
            max_retries=self.max_retries,
        )

    def mixing_schedule(self) -> MixingSchedule:
        return MixingSchedule(self.r_start, self.r_end, self.r_breakpoint)


class BreedSampler(SteeringSampler):
    """Breed: loss-deviation tracking + one-step AMIS steering.

    Parameters
    ----------
    bounds:
        Parameter box ``Λ``.
    config:
        Breed hyper-parameters (defaults to the paper's study-1 values).
    """

    def __init__(self, bounds: ParameterBounds, config: BreedConfig | None = None) -> None:
        super().__init__(bounds)
        self.config = config if config is not None else BreedConfig()
        self.tracker = LossDeviationTracker()
        self.amis = AdaptiveImportanceSampler(bounds, self.config.amis_config())
        self.mixing = self.config.mixing_schedule()
        #: resampling iteration counter ``s``
        self.resampling_count = 0
        #: iteration of the last triggered resampling (-inf semantics via None)
        self._last_trigger_iteration: Optional[int] = None
        #: history of resampling decisions (analysis / Fig. 4)
        self.decisions: List[ResampleDecision] = []

    # ------------------------------------------------------------ interface
    def initial_parameters(self, n_simulations: int, rng: np.random.Generator) -> np.ndarray:
        params = uniform_in_bounds(n_simulations, self.bounds, rng)
        for sim_id, vector in enumerate(params):
            self.tracker.register_parameters(sim_id, vector)
        return params

    def register_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Keep the tracker's parameter mapping in sync after a steering update."""
        self.tracker.reassign_parameters(simulation_id, parameters)

    def observe_batch(
        self,
        iteration: int,
        simulation_ids: Sequence[int],
        timesteps: Sequence[int],
        sample_losses: Sequence[float],
        parameters: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        self.tracker.observe_batch(iteration, simulation_ids, timesteps, sample_losses, parameters)

    def should_resample(self, iteration: int) -> bool:
        if iteration <= 0 or iteration % self.config.period != 0:
            return False
        # Guard against multiple triggers within the same iteration.
        if self._last_trigger_iteration == iteration:
            return False
        # Need at least one observed simulation to build a proposal; tested
        # last, because it walks every record.
        return len(self.tracker.observed_ids()) > 0

    def resample(
        self, n_pending: int, iteration: int, rng: np.random.Generator
    ) -> Optional[ResampleDecision]:
        if n_pending <= 0:
            return None
        self._last_trigger_iteration = iteration
        locations, q_values, _ids = self.tracker.window(self.config.window)
        concentrate = self.mixing.concentrate_probability(self.resampling_count)
        result = self.amis.propose(
            locations=locations,
            q_values=q_values,
            n_samples=n_pending,
            concentrate_probability=concentrate,
            rng=rng,
        )
        sources = [
            ParameterSource.MIX_UNIFORM if uniform else ParameterSource.PROPOSAL
            for uniform in result.from_uniform
        ]
        decision = ResampleDecision(
            parameters=result.samples,
            sources=sources,
            iteration=iteration,
            resampling_index=self.resampling_count,
            amis=result,
        )
        self.decisions.append(decision)
        self.resampling_count += 1
        return decision

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Tracker statistics, resampling counters and past decisions.

        Decision history keeps the fields the analyses read (parameters,
        sources, iteration indices); the per-decision AMIS diagnostics are
        derived artefacts and are not carried across a restore.
        """
        return {
            "resampling_count": self.resampling_count,
            "last_trigger_iteration": self._last_trigger_iteration,
            "tracker": self.tracker.state_dict(),
            "decisions": [
                {
                    "parameters": decision.parameters.copy(),
                    "sources": list(decision.sources),
                    "iteration": decision.iteration,
                    "resampling_index": decision.resampling_index,
                }
                for decision in self.decisions
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Older snapshots also carry ``"trigger": None`` (the state of a
        resampling-trigger option no session ever set); it is ignored.
        """
        self.resampling_count = int(state["resampling_count"])
        last = state["last_trigger_iteration"]
        self._last_trigger_iteration = None if last is None else int(last)
        self.tracker.load_state_dict(state["tracker"])
        self.decisions = [
            ResampleDecision(
                parameters=np.asarray(payload["parameters"], dtype=np.float64),
                sources=[str(s) for s in payload["sources"]],
                iteration=int(payload["iteration"]),
                resampling_index=int(payload["resampling_index"]),
            )
            for payload in state["decisions"]
        ]

    @property
    def name(self) -> str:
        return "Breed"
