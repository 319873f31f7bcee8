"""Shared utilities: RNG streams, smoothing, a timer and structured logging."""

from repro.utils.logging import EventLog, LogRecord, get_logger
from repro.utils.moving_average import OnlineMean, moving_average
from repro.utils.rng import RngStreams, derive_seed
from repro.utils.timer import Timer

__all__ = [
    "EventLog",
    "LogRecord",
    "get_logger",
    "OnlineMean",
    "moving_average",
    "RngStreams",
    "derive_seed",
    "Timer",
]
