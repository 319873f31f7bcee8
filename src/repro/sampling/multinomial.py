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
    ESS-triggered resampling to future work.
    """
    w = np.asarray(weights, dtype=np.float64)
    total_sq = float(w.sum()) ** 2
    sq_total = float((w * w).sum())
    if sq_total <= 0.0:
        return 0.0
    return total_sq / sq_total


def entropy(weights: np.ndarray, epsilon: float = 1e-12) -> float:
    """Shannon entropy (nats) of the normalised weight vector."""
    p = normalize_weights(weights)
    p = np.clip(p, epsilon, 1.0)
    return float(-(p * np.log(p)).sum())
