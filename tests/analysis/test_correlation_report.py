"""Tests for the Figure-6 correlation analysis and the text report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.correlation import (
    CORRELATION_COLUMNS,
    correlation_matrix,
    pearson_correlation,
)
from repro.analysis.curves import curve_from_history
from repro.analysis.deviation import compare_runs
from repro.analysis.report import format_table, render_histograms, render_loss_curves
from repro.melissa.server import SAMPLE_STATISTICS, TrainingHistory


class TestPearson:
    def test_perfect_correlation(self, rng):
        x = rng.normal(size=100)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self, rng):
        assert abs(pearson_correlation(rng.normal(size=5000), rng.normal(size=5000))) < 0.1

    def test_constant_input_gives_zero(self, rng):
        assert pearson_correlation(np.ones(10), rng.normal(size=10)) == 0.0

    def test_short_input(self):
        assert pearson_correlation(np.array([1.0]), np.array([2.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.zeros(3), np.zeros(4))


def synthetic_statistics(n=500, seed=0):
    """Statistics rows with the qualitative structure of a training run."""
    rng = np.random.default_rng(seed)
    rows = np.empty(n, SAMPLE_STATISTICS)
    for i in range(n):
        iteration = i + 1
        batch_loss = 1.0 / (1.0 + 0.01 * iteration)           # decreasing with iteration
        sample_loss = batch_loss * (1.0 + 0.5 * rng.random())
        deviation = max(sample_loss - batch_loss, 0.0) / (0.2 * batch_loss + 1e-9)
        rows[i] = (
            iteration,
            int(rng.integers(0, 50)),
            int(rng.integers(0, 20)),
            sample_loss,
            bool(rng.random() < 0.5),
            batch_loss,
            deviation,
        )
    return rows


class TestCorrelationMatrix:
    def test_shape_and_symmetry(self):
        matrix = correlation_matrix(synthetic_statistics())
        n = len(CORRELATION_COLUMNS)
        assert matrix.matrix.shape == (n, n)
        np.testing.assert_allclose(matrix.matrix, matrix.matrix.T)
        np.testing.assert_allclose(np.diag(matrix.matrix), 1.0)

    def test_values_bounded(self):
        matrix = correlation_matrix(synthetic_statistics())
        assert np.all(matrix.matrix <= 1.0 + 1e-12) and np.all(matrix.matrix >= -1.0 - 1e-12)

    def test_key_findings_structure(self):
        findings = correlation_matrix(synthetic_statistics()).key_findings()
        assert set(findings) == {
            "deviation_vs_iteration",
            "deviation_vs_sample_loss",
            "batch_loss_vs_iteration",
            "sample_loss_vs_iteration",
        }

    def test_expected_signs_on_synthetic_data(self):
        findings = correlation_matrix(synthetic_statistics()).key_findings()
        assert findings["batch_loss_vs_iteration"] < 0.0
        assert findings["deviation_vs_sample_loss"] > 0.0

    def test_value_accessor(self):
        matrix = correlation_matrix(synthetic_statistics())
        assert matrix.value("iteration", "iteration") == pytest.approx(1.0)

    def test_empty_statistics_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix([])


class TestReportRendering:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.34567], ["x", 0.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.3457" in text

    def test_render_loss_curves(self):
        history = TrainingHistory()
        history.train_iterations = list(range(1, 51))
        history.train_losses = list(np.linspace(1, 0.1, 50))
        history.validation_iterations = [25, 50]
        history.validation_losses = [0.5, 0.2]
        curves = {"Breed": curve_from_history(history, "Breed")}
        text = render_loss_curves(curves)
        assert "== Breed ==" in text
        assert "validation" in text
        assert "final:" in text

    def test_render_histograms(self, rng):
        histograms = compare_runs({"Random": rng.uniform(100, 500, (50, 5)),
                                   "Breed": rng.uniform(100, 500, (50, 5))})
        text = render_histograms(histograms)
        assert "Random" in text and "Breed" in text
        assert "mean deviation" in text
