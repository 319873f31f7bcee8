"""Weighted resampling utilities used by the AMIS/PMC step.

The paper resamples proposal locations by trialling a multinomial distribution
built from self-normalised importance weights (Eqs. 9–10).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_weights",
    "multinomial_resample",
    "effective_sample_size",
    "entropy",
]


def normalize_weights(weights: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Self-normalise non-negative weights to sum to one.

    All-zero (or numerically negligible) weight vectors degrade gracefully to
    the uniform distribution, which matches the intended Breed behaviour early
    in training when no sample has a positive loss deviation yet.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("weights must be a 1-D array")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if not np.isfinite(total) or total <= epsilon:
        return np.full(w.shape, 1.0 / w.size)
    return w / total


def multinomial_resample(weights: np.ndarray, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_draws`` indices with replacement proportionally to ``weights``."""
    probabilities = normalize_weights(weights)
    return rng.choice(probabilities.size, size=n_draws, replace=True, p=probabilities)


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``(Σw)² / Σw²`` of a weight vector.

    Recorded on every AMIS step as a diagnostic; the paper leaves
    ESS-triggered resampling to future work.  The ratio does not change when
    every weight is scaled, so it is taken over the weights divided by the
    largest: tiny weights would otherwise square into subnormals and the
    ratio exceed ``n``.
    """
    w = np.asarray(weights, dtype=np.float64)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if scale == 0.0:
        return 0.0
    w = w / scale
    return float(w.sum()) ** 2 / float((w * w).sum())


def entropy(weights: np.ndarray, epsilon: float = 1e-12) -> float:
    """Shannon entropy (nats) of the normalised weight vector."""
    p = normalize_weights(weights)
    p = np.clip(p, epsilon, 1.0)
    return float(-(p * np.log(p)).sum())
