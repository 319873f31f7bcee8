"""Known answers for the sampler alone: Breed on a planted loss landscape.

:class:`BreedSampler` is driven without a solver or a network.  Its
simulations get synthetic per-sample losses ``l(λ, t) = f(λ) + ε`` from a
planted ``f`` on the box ``[100, 500]²``, with ``ε`` uniform on ``[0, EPS)``:

* the *null*: ``f = 0`` everywhere;
* the *bump*: ``f = 1`` on the corner ``[100, 200]²`` and ``0`` elsewhere.

The budget runs in two waves of uniform simulations.  The first is trained
on while the landscape is still flat, the second once the bump has appeared;
each batch holds every simulation of the current wave once.  Breed's window
is one wave long, so after the second wave it holds only that wave
(Section 3.2: the last ``N`` simulations in order of ``Q`` updates).

**Null.** Every ``Q`` is noise, so the proposals are kernels around uniform
centres plus uniform points, and their share of the corner is ``a``, the
corner's share of the box (the truncated kernel of width 25 keeps a uniform
density to 0.1 %).

**Bump.** With ``m`` of the wave's simulations in the corner, a batch's mean
loss is at least ``m / J``, above every loss outside the corner
(``EPS < m / J``).  The expected share of proposals in the corner then has a
lower bound from the equations alone:

* Eq. 4 gives every sample outside the corner ``δ = 0``, so by Eqs. 5–6 its
  ``Q`` is 0 and by Eq. 9 its weight is 0.  A corner simulation's ``Q`` is a
  mean of its ``δ`` values, so it lies in ``[δ_min, δ_max]`` of the corner
  samples, and its weight is at least ``κ / m`` with ``κ = δ_min / δ_max``.
* Eqs. 11–12 with the retry rule send a member centred at ``x`` into the
  corner with a probability ``K(x)``, computed exactly below.  So a point
  kept from the proposal lands there with probability at least
  ``κ · mean K + (1 − κ) · min K`` over the corner simulations.
* A point is replaced by a uniform one with probability ``1 − r(s)``, which
  lands in the corner with probability ``a``.

So the share after steering ``s`` is at least
``r(s) · (κ · mean K + (1 − κ) · min K) + (1 − r(s)) · a``.  Each bound holds
for an expectation, so an empirical share may fall below it only by its
binomial error (``Z`` standard errors).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np
import pytest

from repro.breed.acquisition import loss_deviations
from repro.breed.samplers import BreedConfig, BreedSampler, ParameterSource
from repro.sampling.bounds import ParameterBounds

BOX = ParameterBounds(low=(100.0, 100.0), high=(500.0, 500.0))
#: the planted corner is [100, CORNER]²
CORNER = 200.0
#: ``a``: the corner's share of the box
SHARE = float(np.prod((CORNER - BOX.low_array) / BOX.widths))
WAVE = 512
N_TIMESTEPS = 8
BATCHES_PER_STEERING = 4
#: steerings while the landscape is flat, then once the bump has appeared
FLAT_STEERINGS, BUMP_STEERINGS = 2, 4
DRAWS = 250
SEEDS = range(5)
EPS = 1e-2
CONFIG = BreedConfig(sigma=25.0, period=1, window=WAVE, r_start=0.5, r_end=0.7, r_breakpoint=3)
#: binomial standard errors an empirical share may stray from its expectation
Z = 3.0


def in_corner(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    return np.all((points >= BOX.low_array) & (points <= CORNER), axis=1)


def concentrate(s: int) -> float:
    """``r(s)``: the linear–constant schedule of Section 4.1."""
    return CONFIG.r_start + (CONFIG.r_end - CONFIG.r_start) * min(s / CONFIG.r_breakpoint, 1.0)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def kernel_share(centre: np.ndarray) -> float:
    """``K(x)``: the chance that one Gaussian member centred at ``centre`` ends in the corner.

    Attempt ``k`` draws with width ``σ_k = σ − 0.3 k`` and is kept when inside
    the box; after ``max_retries`` redraws the member falls back to its
    centre.  The axes are independent, so both per-attempt probabilities are
    products of normal CDF differences.
    """
    sigma, reached, share = CONFIG.sigma, 1.0, 0.0
    for _ in range(CONFIG.max_retries + 1):
        in_box = in_corner_box = 1.0
        for x, low, high in zip(centre, BOX.low, BOX.high):
            below = _phi((low - x) / sigma)
            in_corner_box *= _phi((CORNER - x) / sigma) - below
            in_box *= _phi((high - x) / sigma) - below
        share += reached * in_corner_box
        reached *= 1.0 - in_box
        sigma = max(sigma - CONFIG.sigma_decrement, 1e-3)
    return share + reached * float(in_corner(centre)[0])


def steer(seed: int) -> Dict[str, float]:
    """One sampler through both waves: tallies of its proposals and the bump's bound."""
    rng = np.random.default_rng(seed)
    sampler = BreedSampler(BOX, CONFIG)
    parameters = sampler.initial_parameters(2 * WAVE, rng)
    tally = dict(flat_hits=0, flat_draws=0, hits=0, draws=0, bound=0.0,
                 uniform=0, uniform_expected=0.0, uniform_variance=0.0,
                 kept_hits=0, kept_bound=0.0)
    iteration = 0
    for s in range(FLAT_STEERINGS + BUMP_STEERINGS):
        bump = s >= FLAT_STEERINGS
        wave = np.arange(WAVE) + (WAVE if bump else 0)
        corner = in_corner(parameters[wave])
        deviations = []
        for _ in range(BATCHES_PER_STEERING):
            iteration += 1
            order = rng.permutation(WAVE)
            losses = bump * corner[order] + EPS * rng.random(WAVE)
            mean, std, delta = loss_deviations(losses)
            if bump:
                assert np.all(losses[~corner[order]] <= mean)  # δ = 0 outside the corner
                assert np.all(delta[~corner[order]] == 0.0)
                deviations.extend((losses[corner[order]] - mean) / std)
            timesteps = rng.integers(0, N_TIMESTEPS, WAVE)
            sampler.observe_batch(wave[order], timesteps, delta)
        decision = sampler.resample(DRAWS, iteration, rng, parameters)
        hits = in_corner(decision.parameters)
        if not bump:
            tally["flat_hits"] += int(hits.sum())
            tally["flat_draws"] += len(decision)
            continue
        kernels = np.array([kernel_share(x) for x in parameters[wave][corner]])
        kappa = min(deviations) / max(deviations)
        kept = kappa * kernels.mean() + (1.0 - kappa) * kernels.min()
        r = concentrate(s)
        tally["hits"] += int(hits.sum())
        tally["draws"] += len(decision)
        tally["bound"] += DRAWS * (r * kept + (1.0 - r) * SHARE)
        uniform = np.array([source == ParameterSource.MIX_UNIFORM for source in decision.sources])
        tally["uniform"] += int(uniform.sum())
        tally["uniform_expected"] += DRAWS * (1.0 - r)
        tally["uniform_variance"] += DRAWS * r * (1.0 - r)
        tally["kept_hits"] += int(hits[~uniform].sum())
        tally["kept_bound"] += int((~uniform).sum()) * kept
    return tally


@pytest.fixture(scope="module")
def tally() -> Dict[str, float]:
    runs = [steer(seed) for seed in SEEDS]
    return {key: sum(run[key] for run in runs) for key in runs[0]}


def binomial_error(p: float, n: int) -> float:
    return Z * math.sqrt(p * (1.0 - p) / n)


def test_a_flat_landscape_draws_the_corner_at_its_share_of_the_box(tally):
    share = tally["flat_hits"] / tally["flat_draws"]
    assert share == pytest.approx(SHARE, abs=binomial_error(SHARE, tally["flat_draws"]))


def test_the_bump_draws_at_least_its_derived_share(tally):
    bound = tally["bound"] / tally["draws"]
    assert bound > 5 * SHARE  # the derivation predicts a concentration, not a tie
    share = tally["hits"] / tally["draws"]
    assert share >= bound - binomial_error(bound, tally["draws"]), (share, bound)


def test_the_bump_share_splits_into_kept_and_uniform_points(tally):
    # 1 − r(s) of the points are tagged uniform ...
    assert tally["uniform"] == pytest.approx(
        tally["uniform_expected"], abs=Z * math.sqrt(tally["uniform_variance"])
    )
    # ... and the points kept from the proposal meet the kernel part of the bound
    kept = tally["draws"] - tally["uniform"]
    bound = tally["kept_bound"] / kept
    assert tally["kept_hits"] / kept >= bound - binomial_error(bound, kept)
