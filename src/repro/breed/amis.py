"""One-step Adaptive Multiple Importance Sampling (Section 3.2, Eqs. 7–12).

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sampling.bounds import ParameterBounds
from repro.sampling.multinomial import (
    effective_sample_size,
    entropy,
    multinomial_resample,
    normalize_weights,
)

__all__ = ["AMISConfig", "AMISResult", "AdaptiveImportanceSampler"]


@dataclass(frozen=True)
class AMISConfig:
    """Hyper-parameters of the AMIS step.

    Attributes
    ----------
    sigma:
        Initial width of each Gaussian proposal member (``σ`` in the paper;
        expressed in the physical units of the parameter space, Kelvin for the
        heat case).
    sigma_decrement:
        Amount subtracted from a member's ``σ`` after an out-of-bounds draw
        (the paper uses ``3e-1``).
    max_retries:
        Maximum number of out-of-bounds redraws per member (paper: five).
    min_sigma:
        Numerical floor preventing ``σ`` from reaching zero during retries.
    """

    sigma: float = 10.0
    sigma_decrement: float = 0.3
    max_retries: int = 5
    min_sigma: float = 1e-3

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma_decrement < 0:
            raise ValueError("sigma_decrement must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.min_sigma <= 0:
            raise ValueError("min_sigma must be positive")


@dataclass
class AMISResult:
    """Outcome of one AMIS resampling step (also used for the Fig. 4 analysis)."""

    #: newly proposed parameter vectors, shape (K, d)
    samples: np.ndarray
    #: per-sample flag: True when the point came from the uniform exploration mixture
    from_uniform: np.ndarray
    #: normalised importance weights over the window, shape (N,)
    weights: np.ndarray
    #: indices (into the window) of the resampled proposal locations, shape (K,)
    resampled_indices: np.ndarray
    #: per-member sigma actually used after out-of-bounds shrinking, shape (K,)
    member_sigmas: np.ndarray
    #: Kish effective sample size of the weights (diagnostic; future-work trigger)
    ess: float
    #: Shannon entropy of the weights (diagnostic; future-work trigger)
    weight_entropy: float
    #: number of draws that exhausted retries and fell back to their location
    n_fallbacks: int = 0

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_uniform(self) -> int:
        return int(self.from_uniform.sum())

    @property
    def n_proposal(self) -> int:
        return self.n_samples - self.n_uniform


class AdaptiveImportanceSampler:
    """Stateless-per-call AMIS sampler bound to a parameter box."""

    def __init__(self, bounds: ParameterBounds, config: AMISConfig | None = None) -> None:
        self.bounds = bounds
        self.config = config if config is not None else AMISConfig()

    # ----------------------------------------------------------------- step
    def propose(
        self,
        locations: np.ndarray,
        q_values: np.ndarray,
        n_samples: int,
        concentrate_probability: float,
        rng: np.random.Generator,
    ) -> AMISResult:
        """Run one AMIS step.

        Parameters
        ----------
        locations:
            Window of parameter vectors ``λ_j``, shape ``(N, d)``.
        q_values:
            Matching acquisition values ``Q_j``, shape ``(N,)``.
        n_samples:
            ``K`` — number of new parameter vectors to produce.
        concentrate_probability:
            ``r(s)``; each produced point is replaced by a uniform draw with
            probability ``1 − r(s)``.
        rng:
            Random generator (callers use a dedicated named stream).
        """
        locations = np.atleast_2d(np.asarray(locations, dtype=np.float64))
        q_values = np.asarray(q_values, dtype=np.float64).reshape(-1)
        if locations.shape[0] != q_values.shape[0]:
            raise ValueError("locations and q_values must have the same length")
        if not 0.0 <= concentrate_probability <= 1.0:
            raise ValueError("concentrate_probability must be in [0, 1]")
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        dim = self.bounds.dim
        if n_samples == 0:
            empty = np.empty((0, dim), dtype=np.float64)
            return AMISResult(
                samples=empty,
                from_uniform=np.zeros(0, dtype=bool),
                weights=np.empty(0),
                resampled_indices=np.empty(0, dtype=np.int64),
                member_sigmas=np.empty(0),
                ess=0.0,
                weight_entropy=0.0,
            )
        if locations.size == 0:
            # No observed window yet: degrade to pure uniform exploration.
            samples = self.bounds.scale_from_unit(rng.random((n_samples, dim)))
            return AMISResult(
                samples=samples,
                from_uniform=np.ones(n_samples, dtype=bool),
                weights=np.empty(0),
                resampled_indices=np.empty(0, dtype=np.int64),
                member_sigmas=np.empty(0),
                ess=0.0,
                weight_entropy=0.0,
            )
        if locations.shape[1] != dim:
            raise ValueError(
                f"locations dimensionality {locations.shape[1]} does not match bounds ({dim})"
            )
        if np.any(q_values < 0):
            raise ValueError("q_values must be non-negative")

        # Eq. 9: importance weights proportional to Q_j (self-normalised).
        weights = normalize_weights(q_values)
        ess = effective_sample_size(weights)
        weight_entropy = entropy(weights)

        # Eq. 10: multinomial resampling of K proposal locations.
        resampled = multinomial_resample(weights, n_samples, rng)

        # Eqs. 11–12: draw one point per Gaussian member, shrinking sigma on
        # out-of-bounds draws.
        samples = np.empty((n_samples, dim), dtype=np.float64)
        member_sigmas = np.empty(n_samples, dtype=np.float64)
        n_fallbacks = 0
        for k, location_index in enumerate(resampled):
            center = locations[location_index]
            sigma = self.config.sigma
            accepted: Optional[np.ndarray] = None
            for _ in range(self.config.max_retries + 1):
                candidate = center + sigma * rng.standard_normal(dim)
                if self.bounds.contains(candidate):
                    accepted = candidate
                    break
                sigma = max(sigma - self.config.sigma_decrement, self.config.min_sigma)
            if accepted is None:
                # Retries exhausted: "the location is left the same".
                accepted = center.copy()
                n_fallbacks += 1
            samples[k] = accepted
            member_sigmas[k] = sigma

        # Exploration mixing: substitute with uniform points with prob. 1 - r.
        uniform_mask = rng.random(n_samples) >= concentrate_probability
        n_uniform = int(uniform_mask.sum())
        if n_uniform:
            samples[uniform_mask] = self.bounds.scale_from_unit(rng.random((n_uniform, dim)))

        return AMISResult(
            samples=samples,
            from_uniform=uniform_mask,
            weights=weights,
            resampled_indices=np.asarray(resampled, dtype=np.int64),
            member_sigmas=member_sigmas,
            ess=ess,
            weight_entropy=weight_entropy,
            n_fallbacks=n_fallbacks,
        )
