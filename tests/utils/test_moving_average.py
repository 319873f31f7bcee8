"""Tests for the smoothing helper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.moving_average import moving_average

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        values = [1.0, 3.0, 2.0, 5.0]
        np.testing.assert_allclose(moving_average(values, 1), values)

    def test_constant_series(self):
        np.testing.assert_allclose(moving_average([4.0] * 10, 3), [4.0] * 10)

    def test_known_values(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_growing_window_head(self):
        out = moving_average([2.0, 4.0, 6.0], 10)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_empty_series(self):
        assert moving_average([], 5).size == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((2, 2)), 2)

    def test_preserves_length(self):
        assert moving_average(np.arange(17.0), 5).shape == (17,)

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.integers(min_value=1, max_value=60))
    def test_output_bounded_by_input_range(self, values, window):
        out = moving_average(values, window)
        assert out.min() >= min(values) - 1e-9
        assert out.max() <= max(values) + 1e-9
