"""Shared utilities: RNG streams, smoothing and namespaced logging."""

from repro.utils.logging import get_logger
from repro.utils.moving_average import moving_average
from repro.utils.rng import RngStreams, derive_seed

__all__ = [
    "get_logger",
    "moving_average",
    "RngStreams",
    "derive_seed",
]
