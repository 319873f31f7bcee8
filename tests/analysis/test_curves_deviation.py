"""Tests for loss-curve series and parameter-deviation histograms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.curves import curve_from_history, downsample_series
from repro.analysis.deviation import (
    compare_runs,
    histogram_by_source,
    parameter_vector_deviation,
)
from repro.breed.samplers import ParameterSource
from repro.melissa.server import TrainingHistory


def make_history(n=100):
    history = TrainingHistory()
    history.train_iterations = list(range(1, n + 1))
    history.train_losses = list(np.linspace(1.0, 0.1, n))
    history.validation_iterations = [25, 50, 75, 100]
    history.validation_losses = [0.9, 0.5, 0.3, 0.2]
    return history


class TestLossCurve:
    def test_curve_from_history(self):
        curve = curve_from_history(make_history(), label="demo", smoothing_window=10)
        assert curve.label == "demo"
        assert curve.train_iterations.shape == (100,)
        assert curve.smoothed_train_losses.shape == (100,)
        assert curve.final_validation_loss == pytest.approx(0.2)
        assert curve.final_train_loss == pytest.approx(curve.smoothed_train_losses[-1])

    def test_overfit_gap_sign(self):
        curve = curve_from_history(make_history(), "x", smoothing_window=10)
        # final validation 0.2 vs 10-iteration smoothed train ≈ 0.14 -> positive gap
        assert curve.overfit_gap > 0

    def test_empty_history(self):
        curve = curve_from_history(TrainingHistory(), "empty")
        assert np.isnan(curve.final_validation_loss)
        assert np.isnan(curve.final_train_loss)


class TestDownsample:
    def test_fewer_points_than_requested(self):
        pairs = downsample_series([1, 2], [0.1, 0.2], n_points=10)
        assert pairs == [(1.0, 0.1), (2.0, 0.2)]

    def test_downsampling_keeps_endpoints(self):
        iters = list(range(100))
        values = list(np.linspace(1, 0, 100))
        pairs = downsample_series(iters, values, n_points=5)
        assert len(pairs) == 5
        assert pairs[0][0] == 0.0 and pairs[-1][0] == 99.0

    def test_empty(self):
        assert downsample_series([], [], 5) == []


class TestParameterDeviation:
    def test_single_vector(self):
        assert parameter_vector_deviation(np.array([100.0, 100.0, 100.0])) == 0.0

    def test_batch(self):
        devs = parameter_vector_deviation(np.array([[100.0, 100.0], [100.0, 500.0]]))
        assert devs.shape == (2,)
        assert devs[0] == 0.0 and devs[1] == pytest.approx(200.0)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            parameter_vector_deviation(np.zeros((2, 2, 2)))

    def test_uniform_vectors_have_mean_near_theory(self, rng):
        # Std of 5 iid U(100, 500) values has expectation close to ~106 K.
        params = rng.uniform(100, 500, size=(4000, 5))
        assert 90.0 < parameter_vector_deviation(params).mean() < 120.0


class TestHistograms:
    def test_histogram_by_source_split(self, rng):
        params = rng.uniform(100, 500, size=(40, 5))
        sources = [ParameterSource.INITIAL_UNIFORM] * 10 + [ParameterSource.MIX_UNIFORM] * 10 + [
            ParameterSource.PROPOSAL
        ] * 20
        histograms = histogram_by_source(params, sources, n_bins=8)
        assert histograms["Uniform"].n == 20
        assert histograms["Proposal"].n == 20
        assert histograms["Uniform"].counts.sum() == 20
        # Shared bin edges across the two histograms.
        np.testing.assert_array_equal(histograms["Uniform"].bin_edges, histograms["Proposal"].bin_edges)

    def test_histogram_source_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            histogram_by_source(rng.random((3, 5)), ["proposal"] * 2)

    def test_compare_runs_detects_shift(self, rng):
        # "Breed" synthetic run: higher intra-vector spread than "Random".
        random_params = rng.uniform(280, 320, size=(100, 5))            # tight spread
        breed_params = rng.choice([100.0, 500.0], size=(100, 5))        # extreme spread
        histograms = compare_runs({"Random": random_params, "Breed": breed_params})
        assert histograms["Breed"].mean > histograms["Random"].mean
        assert histograms["Random"].n == histograms["Breed"].n == 100

    def test_histogram_rows_cover_all_counts(self, rng):
        histograms = compare_runs({"A": rng.uniform(100, 500, size=(30, 5))}, n_bins=6)
        rows = histograms["A"].as_rows()
        assert len(rows) == 6
        assert sum(count for _, _, count in rows) == 30

    def test_empty_group_handled(self, rng):
        params = rng.uniform(100, 500, size=(5, 5))
        sources = [ParameterSource.INITIAL_UNIFORM] * 5
        histograms = histogram_by_source(params, sources)
        assert histograms["Proposal"].n == 0
        assert np.isnan(histograms["Proposal"].mean)
