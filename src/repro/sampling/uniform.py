"""Uniform sampling over the parameter box.

This is both the paper's *Random* steering baseline and the exploration
component mixed into Breed proposals (the ``U(Λ)`` term of Section 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.sampling.bounds import ParameterBounds

__all__ = ["uniform_in_bounds"]


def uniform_in_bounds(
    n_points: int,
    bounds: ParameterBounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_points`` i.i.d. uniform points from the box."""
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    unit = rng.random((n_points, bounds.dim))
    return bounds.scale_from_unit(unit)
