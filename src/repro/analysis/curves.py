"""Training/validation loss-curve series (Figure 3 of the paper).

The paper plots, per run, the training MSE smoothed with a 40-iteration moving
window and the validation MSE evaluated periodically, both on a logarithmic
y-axis, annotated with the last validation value.  :class:`LossCurve` carries
exactly those series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.melissa.server import TrainingHistory
from repro.utils.moving_average import moving_average

__all__ = [
    "LossCurve",
    "curve_from_history",
    "curve_from_series",
    "downsample_series",
]

#: smoothing window used by the paper's Figure 3 ("a moving window of 40 iterations")
PAPER_SMOOTHING_WINDOW = 40


@dataclass
class LossCurve:
    """Train/validation loss series of one run."""

    label: str
    train_iterations: np.ndarray
    train_losses: np.ndarray
    smoothed_train_losses: np.ndarray
    validation_iterations: np.ndarray
    validation_losses: np.ndarray
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def final_validation_loss(self) -> float:
        return float(self.validation_losses[-1]) if self.validation_losses.size else float("nan")

    @property
    def final_train_loss(self) -> float:
        return float(self.smoothed_train_losses[-1]) if self.smoothed_train_losses.size else float("nan")

    @property
    def overfit_gap(self) -> float:
        """Final validation − final (smoothed) train loss; positive ⇒ overfitting."""
        return self.final_validation_loss - self.final_train_loss


def curve_from_history(
    history: TrainingHistory,
    label: str,
    smoothing_window: int = PAPER_SMOOTHING_WINDOW,
) -> LossCurve:
    """Build a :class:`LossCurve` from a server training history."""
    train_iters, train_losses, val_iters, val_losses = history.as_arrays()
    return curve_from_series(
        {
            "train_iterations": train_iters,
            "train_losses": train_losses,
            "validation_iterations": val_iters,
            "validation_losses": val_losses,
        },
        label=label,
        smoothing_window=smoothing_window,
    )


def curve_from_series(
    series: Dict[str, Sequence[float]],
    label: str,
    smoothing_window: int = PAPER_SMOOTHING_WINDOW,
) -> LossCurve:
    """Build a :class:`LossCurve` from a ``RunResult.series`` mapping.

    The study engine ships runs across process boundaries as plain
    ``train_iterations`` / ``train_losses`` / ``validation_iterations`` /
    ``validation_losses`` lists; this rebuilds the same curve
    :func:`curve_from_history` produces in-process.
    """
    train_iters = np.asarray(series.get("train_iterations", ()), dtype=np.float64)
    train_losses = np.asarray(series.get("train_losses", ()), dtype=np.float64)
    val_iters = np.asarray(series.get("validation_iterations", ()), dtype=np.float64)
    val_losses = np.asarray(series.get("validation_losses", ()), dtype=np.float64)
    smoothed = (
        moving_average(train_losses, smoothing_window) if train_losses.size else train_losses.copy()
    )
    return LossCurve(
        label=label,
        train_iterations=train_iters,
        train_losses=train_losses,
        smoothed_train_losses=smoothed,
        validation_iterations=val_iters,
        validation_losses=val_losses,
    )


def downsample_series(iterations: Sequence[float], values: Sequence[float], n_points: int) -> List[tuple[float, float]]:
    """Pick ``n_points`` evenly spaced (iteration, value) pairs for text reports."""
    iters = np.asarray(iterations, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if iters.size == 0:
        return []
    if n_points >= iters.size:
        return list(zip(iters.tolist(), vals.tolist()))
    indices = np.linspace(0, iters.size - 1, n_points).round().astype(int)
    return [(float(iters[i]), float(vals[i])) for i in indices]
