"""An accumulating wall-clock timer.

:class:`Timer` times Breed's steering decisions
(:class:`repro.breed.controller.BreedController`, whose total the
framework-overhead experiment ``repro.experiments.overhead`` reports) and
the study executor's per-run wall time (:mod:`repro.workflow.executor`).

It reads :func:`time.perf_counter` (monotonic, sub-microsecond resolution)
and measures wall time, not CPU time, because the quantity of interest
throughout the project is end-to-end throughput.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating timer: sums the duration of successive start/stop spans.

    One :class:`Timer` tracks one named phase.  Spans must not overlap —
    :meth:`start` on a running timer raises, which catches accidental
    re-entrancy in instrumented loops.

    Attributes
    ----------
    name:
        Label used in summaries and error messages.
    total:
        Accumulated wall-clock seconds over every completed span.
    count:
        Number of completed spans (``total / count`` is :attr:`mean`).

    Example
    -------
    >>> t = Timer(name="demo")
    >>> with t.span():
    ...     _ = sum(range(1000))
    >>> t.count
    1
    """

    name: str = "timer"
    total: float = 0.0
    count: int = 0
    _start: float | None = None

    def start(self) -> None:
        """Open a span; raises ``RuntimeError`` if one is already open."""
        if self._start is not None:
            raise RuntimeError(f"Timer {self.name!r} already started")
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Close the open span; returns its duration and accumulates it.

        Raises ``RuntimeError`` when no span is open.
        """
        if self._start is None:
            raise RuntimeError(f"Timer {self.name!r} not started")
        elapsed = time.perf_counter() - self._start
        self._start = None
        self.total += elapsed
        self.count += 1
        return elapsed

    @property
    def mean(self) -> float:
        """Mean span duration in seconds (0.0 before the first span)."""
        return self.total / self.count if self.count else 0.0

    @contextmanager
    def span(self) -> Iterator["Timer"]:
        """Context manager timing one span: ``with timer.span(): ...``.

        The span is closed (and accumulated) even when the body raises.
        """
        self.start()
        try:
            yield self
        finally:
            self.stop()
