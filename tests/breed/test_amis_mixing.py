"""Tests for the AMIS proposal step and the concentrate-explore schedule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed.amis import AMISConfig, AdaptiveImportanceSampler
from repro.breed.mixing import MixingSchedule
from repro.sampling.bounds import HEAT2D_BOUNDS, ParameterBounds


class TestAMISConfig:
    def test_defaults(self):
        config = AMISConfig()
        assert config.sigma == 10.0
        assert config.sigma_decrement == pytest.approx(0.3)
        assert config.max_retries == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            AMISConfig(sigma=0.0)
        with pytest.raises(ValueError):
            AMISConfig(sigma_decrement=-1.0)
        with pytest.raises(ValueError):
            AMISConfig(max_retries=-1)
        with pytest.raises(ValueError):
            AMISConfig(min_sigma=0.0)


class TestMixingSchedule:
    def test_linear_then_constant(self):
        schedule = MixingSchedule(r_start=0.1, r_end=0.7, breakpoint=3)
        assert schedule.concentrate_probability(0) == pytest.approx(0.1)
        assert schedule.concentrate_probability(3) == pytest.approx(0.7)
        assert schedule.concentrate_probability(100) == pytest.approx(0.7)

    def test_intermediate_value(self):
        schedule = MixingSchedule(r_start=0.0, r_end=1.0, breakpoint=4)
        assert schedule.concentrate_probability(2) == pytest.approx(0.5)

    def test_decreasing_schedule_supported(self):
        schedule = MixingSchedule(r_start=1.0, r_end=0.7, breakpoint=3)
        assert schedule.concentrate_probability(0) == pytest.approx(1.0)
        assert schedule.concentrate_probability(10) == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixingSchedule(r_start=-0.1)
        with pytest.raises(ValueError):
            MixingSchedule(r_end=1.5)
        with pytest.raises(ValueError):
            MixingSchedule(breakpoint=0)
        with pytest.raises(ValueError):
            MixingSchedule().concentrate_probability(-1)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=100),
    )
    def test_property_bounded(self, rs, re, rc, s):
        value = MixingSchedule(rs, re, rc).concentrate_probability(s)
        assert 0.0 <= value <= 1.0
        assert min(rs, re) - 1e-12 <= value <= max(rs, re) + 1e-12


class TestAdaptiveImportanceSampler:
    @pytest.fixture
    def sampler(self):
        return AdaptiveImportanceSampler(HEAT2D_BOUNDS, AMISConfig(sigma=20.0))

    @pytest.fixture
    def window(self, rng):
        locations = rng.uniform(100.0, 500.0, size=(12, 5))
        q_values = rng.random(12)
        return locations, q_values

    def test_samples_within_bounds(self, sampler, window, rng):
        locations, q_values = window
        result = sampler.propose(locations, q_values, 40, concentrate_probability=0.7, rng=rng)
        assert result.samples.shape == (40, 5)
        assert HEAT2D_BOUNDS.contains_all(result.samples)

    def test_weights_normalised(self, sampler, window, rng):
        locations, q_values = window
        result = sampler.propose(locations, q_values, 10, 1.0, rng)
        assert result.weights.sum() == pytest.approx(1.0)
        assert 1.0 <= result.ess <= len(q_values) + 1e-9

    def test_zero_concentrate_gives_all_uniform(self, sampler, window, rng):
        locations, q_values = window
        result = sampler.propose(locations, q_values, 30, concentrate_probability=0.0, rng=rng)
        assert result.n_uniform == 30
        assert result.n_proposal == 0

    def test_full_concentrate_gives_no_uniform(self, sampler, window, rng):
        locations, q_values = window
        result = sampler.propose(locations, q_values, 30, concentrate_probability=1.0, rng=rng)
        assert result.n_uniform == 0

    def test_proposal_samples_cluster_near_high_q_location(self, rng):
        bounds = HEAT2D_BOUNDS
        sampler = AdaptiveImportanceSampler(bounds, AMISConfig(sigma=5.0))
        locations = np.vstack([np.full(5, 150.0), np.full(5, 450.0)])
        q_values = np.array([0.0, 10.0])  # all the mass on the second location
        result = sampler.propose(locations, q_values, 50, 1.0, rng)
        # Every resampled index should be 1, and samples should sit near 450 K.
        assert np.all(result.resampled_indices == 1)
        assert np.abs(result.samples - 450.0).mean() < 20.0

    def test_zero_q_values_degrade_to_uniform_weights(self, sampler, rng):
        locations = rng.uniform(100, 500, size=(8, 5))
        result = sampler.propose(locations, np.zeros(8), 16, 1.0, rng)
        np.testing.assert_allclose(result.weights, 1.0 / 8)

    def test_empty_window_falls_back_to_uniform(self, sampler, rng):
        result = sampler.propose(np.empty((0, 5)), np.empty(0), 12, 0.9, rng)
        assert result.n_samples == 12
        assert result.from_uniform.all()
        assert HEAT2D_BOUNDS.contains_all(result.samples)

    def test_zero_samples(self, sampler, window, rng):
        locations, q_values = window
        result = sampler.propose(locations, q_values, 0, 0.5, rng)
        assert result.n_samples == 0

    def test_sigma_shrinking_near_boundary(self, rng):
        # Locations hugging the corner force out-of-bounds draws and retries.
        bounds = ParameterBounds(low=(0.0, 0.0), high=(1.0, 1.0))
        sampler = AdaptiveImportanceSampler(bounds, AMISConfig(sigma=5.0, sigma_decrement=1.0))
        locations = np.array([[0.01, 0.01]])
        result = sampler.propose(locations, np.array([1.0]), 30, 1.0, rng)
        assert bounds.contains_all(result.samples)
        # Some members must have shrunk their sigma below the initial value.
        assert np.any(result.member_sigmas < 5.0)

    def test_fallback_to_location_when_retries_exhausted(self, rng):
        # sigma_decrement=0 keeps sigma huge, so retries cannot help and the
        # sampler must fall back to the member's location itself.
        bounds = ParameterBounds(low=(0.0, 0.0), high=(1e-3, 1e-3))
        sampler = AdaptiveImportanceSampler(bounds, AMISConfig(sigma=100.0, sigma_decrement=0.0))
        locations = np.array([[5e-4, 5e-4]])
        result = sampler.propose(locations, np.array([1.0]), 10, 1.0, rng)
        assert result.n_fallbacks > 0
        assert bounds.contains_all(result.samples)

    def test_input_validation(self, sampler, window, rng):
        locations, q_values = window
        with pytest.raises(ValueError):
            sampler.propose(locations, q_values[:-1], 4, 0.5, rng)
        with pytest.raises(ValueError):
            sampler.propose(locations, q_values, 4, 1.5, rng)
        with pytest.raises(ValueError):
            sampler.propose(locations, q_values, -1, 0.5, rng)
        with pytest.raises(ValueError):
            sampler.propose(locations[:, :3], q_values, 4, 0.5, rng)
        with pytest.raises(ValueError):
            sampler.propose(locations, -q_values - 1.0, 4, 0.5, rng)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_all_samples_in_bounds(self, n_window, n_samples, concentrate):
        rng = np.random.default_rng(n_window * 100 + n_samples)
        sampler = AdaptiveImportanceSampler(HEAT2D_BOUNDS, AMISConfig(sigma=50.0))
        locations = rng.uniform(100, 500, size=(n_window, 5))
        q_values = rng.random(n_window)
        result = sampler.propose(locations, q_values, n_samples, concentrate, rng)
        assert result.samples.shape == (n_samples, 5)
        assert HEAT2D_BOUNDS.contains_all(result.samples)
        assert result.from_uniform.shape == (n_samples,)
