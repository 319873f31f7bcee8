"""Axis-aligned box describing the solver input-parameter space ``Λ``.

For the 2D heat PDE case of the paper the space is
``Λ = [100, 500]^5`` (initial temperature ``T0`` and the four boundary
temperatures ``T1..T4``, in Kelvin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ParameterBounds",
    "HEAT2D_BOUNDS",
    "HEAT1D_BOUNDS",
    "ADVECTION1D_BOUNDS",
    "ADVECTION2D_BOUNDS",
    "BURGERS_BOUNDS",
    "FISHER_BOUNDS",
]


@dataclass(frozen=True)
class ParameterBounds:
    """Hyper-rectangle ``[low_k, high_k]`` for each parameter dimension.

    Parameters
    ----------
    low, high:
        Per-dimension lower/upper bounds.  Must have the same length with
        ``low < high`` element-wise.
    names:
        Optional human-readable parameter names (used in reports).
    """

    low: Tuple[float, ...]
    high: Tuple[float, ...]
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        low = tuple(float(v) for v in self.low)
        high = tuple(float(v) for v in self.high)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        if len(low) != len(high):
            raise ValueError("low and high must have the same length")
        if len(low) == 0:
            raise ValueError("bounds must have at least one dimension")
        for lo, hi in zip(low, high):
            if not lo < hi:
                raise ValueError(f"invalid bounds: requires low < high, got [{lo}, {hi}]")
        if self.names and len(self.names) != len(low):
            raise ValueError("names must match the number of dimensions")

    # ----------------------------------------------------------- properties
    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def low_array(self) -> np.ndarray:
        return np.asarray(self.low, dtype=np.float64)

    @property
    def high_array(self) -> np.ndarray:
        return np.asarray(self.high, dtype=np.float64)

    @property
    def widths(self) -> np.ndarray:
        return self.high_array - self.low_array

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.low_array + self.high_array)

    # ----------------------------------------------------------- operations
    def contains(self, point: Sequence[float], atol: float = 0.0) -> bool:
        """Whether ``point`` lies inside the box (inclusive, within ``atol``)."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {p.shape}")
        return bool(np.all(p >= self.low_array - atol) and np.all(p <= self.high_array + atol))

    def contains_all(self, points: np.ndarray, atol: float = 0.0) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return bool(
            np.all(pts >= self.low_array[None, :] - atol)
            and np.all(pts <= self.high_array[None, :] + atol)
        )

    def scale_from_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Map unit-cube points into the box."""
        pts = np.asarray(unit_points, dtype=np.float64)
        return self.low_array + pts * self.widths


#: Input-parameter space of the paper's 2D heat PDE study (Appendix B.1).
HEAT2D_BOUNDS = ParameterBounds(
    low=(100.0,) * 5,
    high=(500.0,) * 5,
    names=("T0", "T1", "T2", "T3", "T4"),
)

#: Input-parameter space of the 1-D heat workloads (initial + two boundary
#: temperatures, same Kelvin range as the 2-D study).
HEAT1D_BOUNDS = ParameterBounds(
    low=(100.0,) * 3,
    high=(500.0,) * 3,
    names=("T0", "T_left", "T_right"),
)

#: Input-parameter space of the 1-D advection–diffusion workload: amplitude,
#: center and width of the initial Gaussian pulse on the periodic unit
#: interval.  Fields stay in ``[0, amplitude]`` by the maximum principle.
ADVECTION1D_BOUNDS = ParameterBounds(
    low=(0.5, 0.1, 0.03),
    high=(2.0, 0.9, 0.08),
    names=("amplitude", "center", "width"),
)

#: Input-parameter space of the 2-D advection–diffusion workload: amplitude,
#: blob center and width on the periodic unit square.
ADVECTION2D_BOUNDS = ParameterBounds(
    low=(0.5, 0.1, 0.1, 0.04),
    high=(2.0, 0.9, 0.9, 0.1),
    names=("amplitude", "center_x", "center_y", "width"),
)

#: Input-parameter space of the viscous Burgers workload: upstream/downstream
#: far-field states (``u_left > u_right`` keeps the front compressive) and
#: the initial front position.  Fields stay in ``[u_right, u_left]``.
BURGERS_BOUNDS = ParameterBounds(
    low=(0.8, 0.1, 0.25),
    high=(1.2, 0.3, 0.4),
    names=("u_left", "u_right", "x0"),
)

#: Input-parameter space of the Fisher–KPP workload: logistic reaction rate,
#: seed amplitude and seed position.  Fields stay in the invariant region
#: ``[0, 1]``.
FISHER_BOUNDS = ParameterBounds(
    low=(2.0, 0.1, 0.3),
    high=(8.0, 0.9, 0.7),
    names=("rate", "amplitude", "center"),
)
