"""Breed: loss-deviation acquisition + adaptive multiple importance sampling.

This package is the paper's primary contribution.  It is deliberately
independent of the Melissa framework simulation: the
:class:`~repro.breed.samplers.SteeringSampler` contract lets the same code be
driven by the on-line framework, by the offline examples, or directly by unit
tests.
"""

from repro.breed.acquisition import LossDeviationTracker, loss_deviations
from repro.breed.controller import BreedController, SteeringRecord
from repro.breed.samplers import (
    BreedConfig,
    BreedSampler,
    ParameterSource,
    RandomSampler,
    Resampled,
    SteeringSampler,
)

__all__ = [
    "LossDeviationTracker",
    "loss_deviations",
    "BreedController",
    "SteeringRecord",
    "BreedConfig",
    "BreedSampler",
    "ParameterSource",
    "RandomSampler",
    "Resampled",
    "SteeringSampler",
]
