"""Sampling primitives: parameter boxes, Halton and uniform generators and
weighted resampling."""

from repro.sampling.bounds import HEAT1D_BOUNDS, HEAT2D_BOUNDS, ParameterBounds
from repro.sampling.halton import first_primes, halton_in_bounds, halton_sequence, radical_inverse
from repro.sampling.multinomial import (
    effective_sample_size,
    entropy,
    multinomial_resample,
    normalize_weights,
)
from repro.sampling.uniform import uniform_in_bounds

__all__ = [
    "HEAT1D_BOUNDS",
    "HEAT2D_BOUNDS",
    "ParameterBounds",
    "first_primes",
    "halton_in_bounds",
    "halton_sequence",
    "radical_inverse",
    "effective_sample_size",
    "entropy",
    "multinomial_resample",
    "normalize_weights",
    "uniform_in_bounds",
]
