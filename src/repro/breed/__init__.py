"""Breed: loss-deviation acquisition + adaptive multiple importance sampling.

This package is the paper's primary contribution.  It is deliberately
independent of the Melissa framework simulation: the
:class:`~repro.breed.samplers.SteeringSampler` contract lets the same code be
driven by the on-line framework, by the offline examples, or directly by unit
tests.
"""

from repro.breed.acquisition import LossDeviationTracker, loss_deviations
from repro.breed.amis import AMISConfig, AMISResult, AdaptiveImportanceSampler
from repro.breed.controller import BreedController, SteeringRecord, SteeringTarget
from repro.breed.mixing import MixingSchedule
from repro.breed.samplers import (
    BreedConfig,
    BreedSampler,
    ParameterSource,
    RandomSampler,
    ResampleDecision,
    SteeringSampler,
)

__all__ = [
    "LossDeviationTracker",
    "loss_deviations",
    "AMISConfig",
    "AMISResult",
    "AdaptiveImportanceSampler",
    "BreedController",
    "SteeringRecord",
    "SteeringTarget",
    "MixingSchedule",
    "BreedConfig",
    "BreedSampler",
    "ParameterSource",
    "RandomSampler",
    "ResampleDecision",
    "SteeringSampler",
]
