"""Concentrate–explore mixing schedule ``r(s)`` (Section 3.2).

Importance-sampling proposals suffer from mode collapse and under-exploration,
so Breed mixes the AMIS proposal with the uniform distribution:
``r·q^(s)(·) + (1 − r)·U(Λ)``.  In the implementation each newly proposed
point is *kept* from the proposal with probability ``r^(s)`` and substituted
by a uniform point with probability ``1 − r^(s)`` (Fig. 1 of the paper: with
``R = 0.7``, 30 % of the points are replaced by uniform ones).

The paper uses a "linear–constant" schedule parameterised by the triplet
``(r_s, r_e, r_c)``: the concentrate probability starts at ``r_s`` (a warm-up
that keeps exploration high while the NN is still random), changes linearly
over ``r_c`` resampling iterations, and stays constant at ``r_e`` afterwards.
The exact formula printed in the paper is garbled by typesetting
(``r(s) = max(s·r_e − r_s / r_c, r_e)``); we implement the linear–constant
interpretation described in its Section 4.1 text (this docstring is the
record of that reading; ``tests/breed/test_amis_mixing.py`` pins it)::

    r(s) = r_s + (r_e − r_s) · min(s / r_c, 1)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MixingSchedule"]


@dataclass(frozen=True)
class MixingSchedule:
    """Linear–constant concentrate–explore schedule.

    Attributes
    ----------
    r_start:
        ``r_s`` — concentrate probability at the first resampling iteration.
    r_end:
        ``r_e`` — constant value reached after the breakpoint.
    breakpoint:
        ``r_c`` — number of resampling iterations of the linear segment.
    """

    r_start: float = 0.5
    r_end: float = 0.7
    breakpoint: int = 3

    def __post_init__(self) -> None:
        for name, value in (("r_start", self.r_start), ("r_end", self.r_end)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.breakpoint < 1:
            raise ValueError(f"breakpoint must be >= 1, got {self.breakpoint}")

    def concentrate_probability(self, resampling_iteration: int) -> float:
        """``r(s)``: probability a proposed point is kept from the AMIS proposal."""
        if resampling_iteration < 0:
            raise ValueError("resampling_iteration must be non-negative")
        fraction = min(resampling_iteration / self.breakpoint, 1.0)
        return self.r_start + (self.r_end - self.r_start) * fraction

    def explore_probability(self, resampling_iteration: int) -> float:
        """``1 − r(s)``: probability a proposed point is replaced by a uniform one."""
        return 1.0 - self.concentrate_probability(resampling_iteration)

    def schedule(self, n_iterations: int) -> list[float]:
        """The full schedule for ``s = 0 .. n_iterations − 1`` (for plots/reports)."""
        return [self.concentrate_probability(s) for s in range(n_iterations)]
