"""Smoothing helper.

The paper's Figure 3 smooths training-loss curves with a moving window of 40
iterations "for visibility" (:func:`moving_average`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["moving_average"]


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average with a growing window at the start.

    The first ``window - 1`` entries average over the values seen so far
    (window grows from 1 to ``window``), so the output has the same length as
    the input and no NaN padding.

    Parameters
    ----------
    values:
        Input series.
    window:
        Window length in samples; must be >= 1.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("moving_average expects a 1-D series")
    if arr.size == 0:
        return arr.copy()
    cumsum = np.cumsum(arr)
    out = np.empty_like(arr)
    n = arr.size
    w = min(window, n)
    # Growing-window head.
    head = min(w, n)
    out[:head] = cumsum[:head] / np.arange(1, head + 1)
    # Full-window body.
    if n > w:
        out[w:] = (cumsum[w:] - cumsum[:-w]) / w
    return out
