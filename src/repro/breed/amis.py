"""One-step Adaptive Multiple Importance Sampling (Section 3.2, Eqs. 9–12).

Breed adapts the Population-Monte-Carlo recipe to the on-line training
setting: because data production is much slower than NN training, only *one*
PMC iteration is performed per resampling trigger.  Given the window of the
last ``N`` observed parameter vectors and their ``Q_j`` values:

1. importance weights ``w_j ∝ Q_j`` (Eq. 9; division by the proposal
   likelihood is omitted, as in the paper's implementation — footnote 1),
2. ``K`` locations are resampled with replacement from a multinomial over the
   window (Eq. 10),
3. the proposal ``q^(s)`` is the mixture of isotropic Gaussians of width ``σ``
   centred at the resampled locations (Eq. 11),
4. one new parameter vector is drawn from each mixture member (Eq. 12); if it
   falls outside the parameter box, ``σ`` is decreased by 0.3 for that member
   and the draw retried, at most five times, after which the member's location
   itself is used,
5. each drawn point is finally replaced by a uniform point with probability
   ``1 − r(s)`` (exploration mixing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

import numpy as np

from repro.sampling.bounds import ParameterBounds
from repro.sampling.multinomial import (
    effective_sample_size,
    entropy,
    multinomial_resample,
    normalize_weights,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.breed.samplers import BreedConfig

__all__ = ["MIN_SIGMA", "amis_step"]

#: floor that keeps a member's ``σ`` positive while out-of-bounds draws shrink it
MIN_SIGMA = 1e-3


def amis_step(
    config: "BreedConfig",
    bounds: ParameterBounds,
    locations: np.ndarray,
    q_values: np.ndarray,
    n_samples: int,
    r: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
    """Run one AMIS step: ``K = n_samples`` new parameter vectors.

    ``locations`` is the window of parameter vectors ``λ_j``, shape
    ``(N, d)``, and ``q_values`` their ``Q_j``; ``r`` is ``r(s)``, the
    probability a point is kept from the proposal; ``rng`` is the caller's
    named stream.  Returns the samples ``(K, d)``, a per-sample flag that is
    true where the point is a uniform draw, and the step's diagnostics keyed
    by their :class:`~repro.breed.controller.SteeringRecord` field names.  An
    empty window degrades to pure uniform exploration.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=np.float64))
    q_values = np.asarray(q_values, dtype=np.float64).reshape(-1)
    if locations.shape[0] != q_values.shape[0]:
        raise ValueError("locations and q_values must have the same length")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    dim = bounds.dim
    diagnostics: Dict[str, Any] = {"concentrate_probability": r, "window_size": q_values.shape[0]}
    if locations.size == 0:
        samples = bounds.scale_from_unit(rng.random((n_samples, dim)))
        return samples, np.ones(n_samples, dtype=bool), diagnostics
    if locations.shape[1] != dim:
        raise ValueError(f"locations dimensionality {locations.shape[1]} does not match bounds ({dim})")
    if np.any(q_values < 0):
        raise ValueError("q_values must be non-negative")

    # Eq. 9: importance weights proportional to Q_j (self-normalised).
    weights = normalize_weights(q_values)
    diagnostics.update(
        ess=effective_sample_size(weights),
        max_weight_share=float(weights.max()),
        weight_entropy=entropy(weights),
    )

    # Eq. 10: multinomial resampling of the K mixture locations.
    resampled = multinomial_resample(weights, n_samples, rng)

    # Eqs. 11–12: one draw per Gaussian member of q^(s), its σ shrunk after
    # every out-of-bounds draw; a member whose retries run out keeps its
    # location ("the location is left the same").
    samples = locations[resampled]
    sigmas = np.empty(n_samples, dtype=np.float64)
    n_fallbacks = 0
    for k, center in enumerate(samples):
        sigma = config.sigma
        for attempt in range(config.max_retries + 1):
            if attempt:
                sigma = max(sigma - config.sigma_decrement, MIN_SIGMA)
            candidate = center + sigma * rng.standard_normal(dim)
            if bounds.contains(candidate):
                samples[k] = candidate
                break
        else:
            n_fallbacks += 1
        sigmas[k] = sigma
    if n_samples:
        diagnostics.update(sigma_min=float(sigmas.min()), sigma_median=float(np.median(sigmas)))
    diagnostics["n_fallbacks"] = n_fallbacks

    # Mixing with U(Λ): each point is replaced by a uniform draw with
    # probability 1 − r(s).
    from_uniform = rng.random(n_samples) >= r
    n_uniform = int(from_uniform.sum())
    if n_uniform:
        samples[from_uniform] = bounds.scale_from_unit(rng.random((n_uniform, dim)))
    return samples, from_uniform, diagnostics
