"""Steering samplers: the uniform *Random* baseline and *Breed*.

Both implement :class:`SteeringSampler`, the contract the Melissa server's
steering mechanism talks to:

* :meth:`SteeringSampler.initial_parameters` draws the initial budget
  ``Λ_J`` (the paper samples it uniformly for both methods, so both inherit
  the one uniform draw),
* :meth:`SteeringSampler.observe_batch` ingests the per-sample loss
  deviations ``δ`` (Eq. 4) of each training batch (a no-op for Random),
* :meth:`SteeringSampler.should_resample` implements the periodic trigger
  (every ``P`` NN iterations for Breed, never for Random),
* :meth:`SteeringSampler.resample` produces replacement parameter vectors for
  the not-yet-submitted simulations, given every simulation's current
  parameters (the launcher's; a sampler keeps none of its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.breed.acquisition import LossDeviationTracker
from repro.breed.amis import amis_step
from repro.sampling.bounds import ParameterBounds
from repro.sampling.uniform import uniform_in_bounds

__all__ = [
    "ParameterSource",
    "Resampled",
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
    #: the tags of vectors drawn from the uniform distribution over ``Λ``
    UNIFORM = frozenset((INITIAL_UNIFORM, MIX_UNIFORM))


@dataclass
class Resampled:
    """What :meth:`SteeringSampler.resample` returns for ``K`` simulations."""

    #: new parameter vectors, shape (K, d)
    parameters: np.ndarray
    #: one ``ParameterSource`` tag per vector
    sources: List[str]
    #: the :class:`~repro.breed.controller.SteeringRecord` fields the sampler
    #: fills: ``resampling_index`` and any of the analysis-only diagnostics
    diagnostics: Dict[str, Any]

    def __post_init__(self) -> None:
        if len(self.parameters) != len(self.sources):
            raise ValueError("parameters and sources must have the same length")

    def __len__(self) -> int:
        return len(self.sources)


class SteeringSampler:
    """Contract between the steering mechanism and a sampling strategy."""

    def __init__(self, bounds: ParameterBounds) -> None:
        self.bounds = bounds

    def initial_parameters(self, n_simulations: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the initial budget of parameter vectors ``Λ_J``, uniformly over ``Λ``."""
        return uniform_in_bounds(n_simulations, self.bounds, rng)

    def observe_batch(
        self, simulation_ids: Sequence[int], timesteps: Sequence[int], deviations: Sequence[float]
    ) -> None:
        """Ingest a batch's per-sample loss deviations (default: ignore them)."""

    def should_resample(self, iteration: int) -> bool:
        """Whether a resampling should be triggered at this NN iteration."""
        return False

    def resample(
        self, n_pending: int, iteration: int, rng: np.random.Generator, parameters: np.ndarray
    ) -> Optional[Resampled]:
        """Produce replacement parameters for ``n_pending`` simulations.

        ``parameters`` holds every simulation's current parameter vector, row
        ``j`` for simulation ``j``.  Returns ``None`` when nothing is to be
        replaced (the default).
        """
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
        Out-of-bounds handling of the Gaussian draws; ``σ`` never shrinks
        below the constant :data:`repro.breed.amis.MIN_SIGMA`.
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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        for name in ("period", "window", "r_breakpoint"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("r_start", "r_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("sigma_decrement", "max_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def concentrate_probability(self, s: int) -> float:
        """``r(s)``: the probability a point is kept from the AMIS proposal at
        resampling iteration ``s`` (Section 3.2).

        Importance-sampling proposals suffer from mode collapse and
        under-exploration, so Breed draws from ``r·q^(s)(·) + (1 − r)·U(Λ)``:
        each proposed point is kept with probability ``r(s)`` and replaced by
        a uniform one otherwise (Fig. 1: with ``R = 0.7``, 30 % are replaced).
        The schedule is "linear–constant" in ``(r_s, r_e, r_c)``: it starts at
        ``r_s``, a warm-up that keeps exploration high while the NN is still
        random, changes linearly over ``r_c`` resampling iterations and stays
        at ``r_e`` afterwards.  The formula printed in the paper is garbled by
        typesetting (``r(s) = max(s·r_e − r_s / r_c, r_e)``); this is the
        reading of its Section 4.1 text, and
        ``tests/breed/test_amis_mixing.py`` pins it::

            r(s) = r_s + (r_e − r_s) · min(s / r_c, 1)
        """
        if s < 0:
            raise ValueError("resampling iteration must be non-negative")
        return self.r_start + (self.r_end - self.r_start) * min(s / self.r_breakpoint, 1.0)


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
        #: resampling iteration counter ``s``
        self.resampling_count = 0

    # ------------------------------------------------------------ interface
    def observe_batch(
        self, simulation_ids: Sequence[int], timesteps: Sequence[int], deviations: Sequence[float]
    ) -> None:
        self.tracker.observe_batch(simulation_ids, timesteps, deviations)

    def should_resample(self, iteration: int) -> bool:
        # Needs at least one observation to build a proposal; tested last,
        # because it folds the tracker's queue.
        return iteration > 0 and iteration % self.config.period == 0 and self.tracker.n_observations > 0

    def resample(
        self, n_pending: int, iteration: int, rng: np.random.Generator, parameters: np.ndarray
    ) -> Optional[Resampled]:
        if n_pending <= 0:
            return None
        s = self.resampling_count
        ids, q_values = self.tracker.window(self.config.window)
        r = self.config.concentrate_probability(s)
        samples, from_uniform, diagnostics = amis_step(
            self.config, self.bounds, parameters[ids], q_values, n_pending, r, rng
        )
        self.resampling_count += 1
        sources = [ParameterSource.MIX_UNIFORM if u else ParameterSource.PROPOSAL for u in from_uniform]
        return Resampled(samples, sources, {"resampling_index": s, **diagnostics})

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Tracker statistics and resampling counters.

        What each decision applied is kept by the launcher's records and the
        controller's steering records.
        """
        return {"resampling_count": self.resampling_count, "tracker": self.tracker.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Older snapshots also carry ``"trigger": None`` (the state of a
        resampling-trigger option no session ever set), ``"decisions"`` (a
        list of past decisions no code read) and ``"last_trigger_iteration"``
        (a same-iteration trigger guard that never fired: the server steers
        once per iteration); all three are ignored.
        """
        self.resampling_count = int(state["resampling_count"])
        self.tracker.load_state_dict(state["tracker"])

    @property
    def name(self) -> str:
        return "Breed"
