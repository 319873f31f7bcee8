"""Cartesian grids for the finite-difference solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Grid1D", "Grid2D"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid on ``[0, length]`` with ``n_points`` nodes."""

    n_points: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValueError("Grid1D requires at least 3 points")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / (self.n_points - 1)

    @property
    def coordinates(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_points)


@dataclass(frozen=True)
class Grid2D:
    """Uniform square grid on ``[0, length]²`` with ``n x n`` nodes.

    The paper discretises the temperature field on an ``M × M`` Cartesian grid
    (Appendix B.1); the surrogate output layer therefore has ``M²`` neurons.
    """

    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("Grid2D requires at least 3 points per side")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / (self.n - 1)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    @property
    def n_total(self) -> int:
        """Total number of nodes, i.e. the surrogate's output dimension ``M²``."""
        return self.n * self.n

    @property
    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays ``(X1, X2)`` with shape ``(n, n)``."""
        axis = np.linspace(0.0, self.length, self.n)
        return np.meshgrid(axis, axis, indexing="ij")
