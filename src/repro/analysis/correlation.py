"""Correlation analysis of the training statistics (Figure 6 of the paper).

Every sample of every training batch of a run yields one observation row with
the columns of the paper's correlation matrix:

* ``i`` — NN iteration,
* ``j`` — parameter (simulation) index,
* ``t`` — time step,
* ``l``  — per-sample loss ``l^{(i)}_{jt}``,
* ``U`` — indicator that the sample's simulation parameters were uniform-drawn,
* ``μ`` — batch loss,
* ``δ`` — the loss-deviation metric.

The headline numbers of Section 4.2: the deviation metric has essentially no
correlation with the NN iteration (≈ −0.02) but a positive correlation with
the per-sample loss (≈ +0.27), while raw batch/sample losses do correlate with
the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["CORRELATION_COLUMNS", "CorrelationMatrix", "correlation_matrix", "pearson_correlation"]

#: column order matching the paper's Figure 6
CORRELATION_COLUMNS: tuple[str, ...] = (
    "iteration",
    "simulation_id",
    "timestep",
    "sample_loss",
    "uniform",
    "batch_loss",
    "deviation",
)


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient, with degenerate inputs mapping to 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 2:
        return 0.0
    sx = x.std()
    sy = y.std()
    if sx <= 1e-15 or sy <= 1e-15:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


@dataclass
class CorrelationMatrix:
    """Full correlation matrix over the Figure-6 columns."""

    columns: tuple[str, ...]
    matrix: np.ndarray

    def value(self, a: str, b: str) -> float:
        ia = self.columns.index(a)
        ib = self.columns.index(b)
        return float(self.matrix[ia, ib])

    def key_findings(self) -> Dict[str, float]:
        """The specific coefficients discussed in Section 4.2."""
        return {
            "deviation_vs_iteration": self.value("deviation", "iteration"),
            "deviation_vs_sample_loss": self.value("deviation", "sample_loss"),
            "batch_loss_vs_iteration": self.value("batch_loss", "iteration"),
            "sample_loss_vs_iteration": self.value("sample_loss", "iteration"),
        }


def correlation_matrix(statistics: np.ndarray) -> CorrelationMatrix:
    """The Figure-6 matrix of :data:`~repro.melissa.server.SAMPLE_STATISTICS` rows."""
    if len(statistics) == 0:
        raise ValueError("no sample statistics were recorded")
    data = {name: statistics[name].astype(np.float64) for name in CORRELATION_COLUMNS}
    n = len(CORRELATION_COLUMNS)
    matrix = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            value = pearson_correlation(data[CORRELATION_COLUMNS[a]], data[CORRELATION_COLUMNS[b]])
            matrix[a, b] = value
            matrix[b, a] = value
    return CorrelationMatrix(columns=CORRELATION_COLUMNS, matrix=matrix)
