"""Tests for uniform sampling over the parameter box."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds


class TestUniform:
    def test_shape_and_bounds(self, rng):
        points = uniform_in_bounds(200, HEAT2D_BOUNDS, rng)
        assert points.shape == (200, 5)
        assert HEAT2D_BOUNDS.contains_all(points)

    def test_zero_points(self, rng):
        assert uniform_in_bounds(0, HEAT2D_BOUNDS, rng).shape == (0, 5)

    def test_negative_raises(self, rng):
        with pytest.raises(ValueError):
            uniform_in_bounds(-1, HEAT2D_BOUNDS, rng)

    def test_mean_near_center(self, rng):
        points = uniform_in_bounds(4000, HEAT2D_BOUNDS, rng)
        np.testing.assert_allclose(points.mean(axis=0), HEAT2D_BOUNDS.center, rtol=0.03)
