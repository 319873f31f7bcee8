"""Shared utilities: RNG streams, smoothing, a timer and structured logging."""

from repro.utils.logging import EventLog, LogRecord, get_logger
from repro.utils.moving_average import (
    OnlineMean,
    OnlineMeanVar,
    exponential_moving_average,
    moving_average,
)
from repro.utils.rng import RngStreams, default_rng, derive_seed
from repro.utils.timer import Timer

__all__ = [
    "EventLog",
    "LogRecord",
    "get_logger",
    "OnlineMean",
    "OnlineMeanVar",
    "exponential_moving_average",
    "moving_average",
    "RngStreams",
    "default_rng",
    "derive_seed",
    "Timer",
]
