"""Tests for the AMIS step (Eqs. 9–12) and the concentrate–explore schedule ``r(s)``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed.amis import MIN_SIGMA, amis_step
from repro.breed.samplers import BreedConfig
from repro.sampling.bounds import HEAT2D_BOUNDS, ParameterBounds
from repro.sampling.multinomial import effective_sample_size, entropy, normalize_weights

#: a 1e-3 box no draw of width ≥ 1 lands in: every member falls back to its location
TINY_BOX = ParameterBounds(low=(0.0, 0.0), high=(1e-3, 1e-3))


def step(locations, q_values, n_samples, r, rng, bounds=HEAT2D_BOUNDS, **config):
    return amis_step(BreedConfig(**config), bounds, locations, q_values, n_samples, r, rng)


class TestConfig:
    def test_defaults(self):
        config = BreedConfig()
        assert config.sigma == 10.0
        assert config.sigma_decrement == pytest.approx(0.3)
        assert config.max_retries == 5
        assert MIN_SIGMA == 1e-3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma", 0.0),
            ("sigma_decrement", -1.0),
            ("max_retries", -1),
            ("r_start", -0.1),
            ("r_end", 1.5),
            ("r_breakpoint", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            BreedConfig(**{field: value})

    def test_negative_resampling_iteration_rejected(self):
        with pytest.raises(ValueError):
            BreedConfig().concentrate_probability(-1)


class TestConcentrateProbability:
    def test_linear_then_constant(self):
        config = BreedConfig(r_start=0.1, r_end=0.7, r_breakpoint=3)
        assert config.concentrate_probability(0) == pytest.approx(0.1)
        assert config.concentrate_probability(3) == pytest.approx(0.7)
        assert config.concentrate_probability(100) == pytest.approx(0.7)

    def test_intermediate_value(self):
        assert BreedConfig(r_start=0.0, r_end=1.0, r_breakpoint=4).concentrate_probability(2) == 0.5

    def test_decreasing_schedule_supported(self):
        config = BreedConfig(r_start=1.0, r_end=0.7, r_breakpoint=3)
        assert config.concentrate_probability(0) == pytest.approx(1.0)
        assert config.concentrate_probability(10) == pytest.approx(0.7)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=100),
    )
    def test_property_bounded(self, rs, re, rc, s):
        value = BreedConfig(r_start=rs, r_end=re, r_breakpoint=rc).concentrate_probability(s)
        assert 0.0 <= value <= 1.0
        assert min(rs, re) - 1e-12 <= value <= max(rs, re) + 1e-12


class TestAmisStep:
    @pytest.fixture
    def window(self, rng):
        locations = rng.uniform(100.0, 500.0, size=(12, 5))
        q_values = rng.random(12)
        return locations, q_values

    def test_samples_within_bounds(self, window, rng):
        samples, from_uniform, _ = step(*window, 40, 0.7, rng, sigma=20.0)
        assert samples.shape == (40, 5) and from_uniform.shape == (40,)
        assert HEAT2D_BOUNDS.contains_all(samples)

    def test_weight_diagnostics_are_those_of_the_normalised_q_values(self, window, rng):
        _, q_values = window
        _, _, diagnostics = step(*window, 10, 1.0, rng, sigma=20.0)
        weights = normalize_weights(q_values)
        assert diagnostics["window_size"] == 12 and diagnostics["concentrate_probability"] == 1.0
        assert diagnostics["ess"] == effective_sample_size(weights)
        assert diagnostics["weight_entropy"] == entropy(weights)
        assert diagnostics["max_weight_share"] == weights.max()
        assert 1.0 <= diagnostics["ess"] <= len(q_values) + 1e-9

    def test_zero_concentrate_gives_all_uniform(self, window, rng):
        _, from_uniform, _ = step(*window, 30, 0.0, rng, sigma=20.0)
        assert from_uniform.all()

    def test_full_concentrate_gives_no_uniform(self, window, rng):
        _, from_uniform, _ = step(*window, 30, 1.0, rng, sigma=20.0)
        assert not from_uniform.any()

    def test_proposal_samples_cluster_near_high_q_location(self, rng):
        locations = np.vstack([np.full(5, 150.0), np.full(5, 450.0)])
        q_values = np.array([0.0, 10.0])  # all the mass on the second location
        samples, _, diagnostics = step(locations, q_values, 50, 1.0, rng, sigma=5.0)
        assert diagnostics["max_weight_share"] == 1.0 and diagnostics["ess"] == 1.0
        assert np.abs(samples - 450.0).mean() < 20.0

    def test_zero_q_values_degrade_to_uniform_weights(self, rng):
        locations = rng.uniform(100, 500, size=(8, 5))
        _, _, diagnostics = step(locations, np.zeros(8), 16, 1.0, rng, sigma=20.0)
        assert diagnostics["max_weight_share"] == 1.0 / 8
        assert diagnostics["ess"] == pytest.approx(8.0)

    def test_empty_window_falls_back_to_uniform(self, rng):
        samples, from_uniform, diagnostics = step(np.empty((0, 5)), np.empty(0), 12, 0.9, rng)
        assert samples.shape == (12, 5) and from_uniform.all()
        assert HEAT2D_BOUNDS.contains_all(samples)
        assert diagnostics == {"concentrate_probability": 0.9, "window_size": 0}

    def test_zero_samples(self, window, rng):
        samples, from_uniform, diagnostics = step(*window, 0, 0.5, rng)
        assert samples.shape == (0, 5) and from_uniform.shape == (0,)
        assert diagnostics["n_fallbacks"] == 0 and "sigma_min" not in diagnostics

    def test_sigma_shrinking_near_boundary(self, rng):
        # Locations hugging the corner force out-of-bounds draws and retries.
        bounds = ParameterBounds(low=(0.0, 0.0), high=(1.0, 1.0))
        locations = np.array([[0.01, 0.01]])
        samples, _, diagnostics = step(
            locations, np.array([1.0]), 30, 1.0, rng, bounds=bounds, sigma=5.0, sigma_decrement=1.0
        )
        assert bounds.contains_all(samples)
        # Some members must have shrunk their sigma below the initial value.
        assert diagnostics["sigma_min"] < 5.0

    def test_fallback_to_location_when_retries_exhausted(self, rng):
        # sigma_decrement=0 keeps sigma huge, so retries cannot help and every
        # member falls back to its location itself.
        location = np.array([[5e-4, 5e-4]])
        samples, _, diagnostics = step(
            location, np.array([1.0]), 10, 1.0, rng, bounds=TINY_BOX, sigma=100.0, sigma_decrement=0.0
        )
        assert diagnostics["n_fallbacks"] == 10
        assert np.array_equal(samples, np.repeat(location, 10, axis=0))

    def test_a_fallback_member_records_the_sigma_of_its_last_draw(self, rng):
        # Three draws at σ = 5, 4 and 3 all miss the box; σ then stays at 3,
        # the width of the last draw, not 2.
        _, _, diagnostics = step(
            np.array([[5e-4, 5e-4]]),
            np.array([1.0]),
            4,
            1.0,
            rng,
            bounds=TINY_BOX,
            sigma=5.0,
            sigma_decrement=1.0,
            max_retries=2,
        )
        assert diagnostics["n_fallbacks"] == 4
        assert (diagnostics["sigma_min"], diagnostics["sigma_median"]) == (3.0, 3.0)

    def test_sigma_never_drops_below_the_floor(self, rng):
        _, _, diagnostics = step(
            np.array([[5e-4, 5e-4]]), np.array([1.0]), 3, 1.0, rng, bounds=TINY_BOX, sigma=0.5
        )
        assert diagnostics["sigma_min"] == MIN_SIGMA

    def test_input_validation(self, window, rng):
        locations, q_values = window
        with pytest.raises(ValueError):
            step(locations, q_values[:-1], 4, 0.5, rng)
        with pytest.raises(ValueError):
            step(locations, q_values, 4, 1.5, rng)
        with pytest.raises(ValueError):
            step(locations, q_values, -1, 0.5, rng)
        with pytest.raises(ValueError):
            step(locations[:, :3], q_values, 4, 0.5, rng)
        with pytest.raises(ValueError):
            step(locations, -q_values - 1.0, 4, 0.5, rng)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_all_samples_in_bounds(self, n_window, n_samples, concentrate):
        rng = np.random.default_rng(n_window * 100 + n_samples)
        locations = rng.uniform(100, 500, size=(n_window, 5))
        q_values = rng.random(n_window)
        samples, from_uniform, _ = step(locations, q_values, n_samples, concentrate, rng, sigma=50.0)
        assert samples.shape == (n_samples, 5)
        assert HEAT2D_BOUNDS.contains_all(samples)
        assert from_uniform.shape == (n_samples,)
