"""Tests for weighted resampling, ESS and entropy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sampling.multinomial import (
    effective_sample_size,
    entropy,
    multinomial_resample,
    normalize_weights,
)

weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


class TestNormalizeWeights:
    def test_sums_to_one(self, rng):
        w = normalize_weights(rng.random(50))
        assert w.sum() == pytest.approx(1.0)

    def test_zero_weights_become_uniform(self):
        np.testing.assert_allclose(normalize_weights(np.zeros(4)), [0.25] * 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([1.0, -0.1]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            normalize_weights(np.zeros((2, 2)))

    def test_preserves_proportions(self):
        np.testing.assert_allclose(normalize_weights(np.array([1.0, 3.0])), [0.25, 0.75])

    @given(weight_lists)
    @settings(max_examples=50, deadline=None)
    def test_property_valid_distribution(self, weights):
        p = normalize_weights(np.array(weights))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)


@pytest.mark.parametrize("resampler", [multinomial_resample])
class TestResamplers:
    def test_indices_in_range(self, resampler, rng):
        indices = resampler(rng.random(10), 100, rng)
        assert indices.shape == (100,)
        assert indices.min() >= 0 and indices.max() < 10

    def test_zero_weight_entries_never_selected(self, resampler, rng):
        weights = np.array([0.0, 1.0, 0.0, 1.0])
        indices = resampler(weights, 200, rng)
        assert set(np.unique(indices)).issubset({1, 3})

    def test_proportional_selection(self, resampler, rng):
        weights = np.array([0.2, 0.8])
        indices = resampler(weights, 20_000, rng)
        assert (indices == 1).mean() == pytest.approx(0.8, abs=0.03)

    def test_degenerate_single_weight(self, resampler, rng):
        indices = resampler(np.array([5.0]), 10, rng)
        assert np.all(indices == 0)


class TestEffectiveSampleSize:
    def test_uniform_weights_give_n(self):
        assert effective_sample_size(np.full(8, 0.125)) == pytest.approx(8.0)

    def test_degenerate_weights_give_one(self):
        assert effective_sample_size(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert effective_sample_size(np.zeros(5)) == 0.0

    @given(weight_lists)
    @example([3.7079175893616085e-161] * 2)  # squares subnormal: the unscaled ratio read 2.0018
    @settings(max_examples=50, deadline=None)
    def test_property_between_one_and_n(self, weights):
        w = np.array(weights)
        ess = effective_sample_size(w)
        if w.sum() > 0:
            assert 1.0 - 1e-9 <= ess <= len(weights) + 1e-9
        else:
            assert ess == 0.0


class TestEntropy:
    def test_uniform_maximises_entropy(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(np.log(4))

    def test_degenerate_entropy_near_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-6)

    @given(weight_lists)
    @settings(max_examples=50, deadline=None)
    def test_property_bounded_by_log_n(self, weights):
        h = entropy(np.array(weights))
        assert -1e-9 <= h <= np.log(len(weights)) + 1e-6
