"""Tests for the input/output scalers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.surrogate.normalization import MinMaxScaler, SurrogateScalers

temps = st.floats(min_value=100.0, max_value=500.0, allow_nan=False)


class TestMinMaxScaler:
    def test_transform_endpoints(self):
        scaler = MinMaxScaler(np.array([0.0, 10.0]), np.array([2.0, 20.0]))
        np.testing.assert_allclose(scaler.transform(np.array([0.0, 10.0])), [0.0, 0.0])
        np.testing.assert_allclose(scaler.transform(np.array([2.0, 20.0])), [1.0, 1.0])

    def test_roundtrip(self, rng):
        scaler = MinMaxScaler(HEAT2D_BOUNDS.low_array, HEAT2D_BOUNDS.high_array)
        values = rng.uniform(100, 500, size=(10, 5))
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(values)), values)

    def test_scalar_constructor(self):
        scaler = MinMaxScaler.scalar(100.0, 500.0)
        assert scaler.transform(np.array([300.0]))[0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MinMaxScaler(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MinMaxScaler(np.array([1.0]), np.array([1.0]))

    @given(st.lists(temps, min_size=5, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_property_maps_bounds_to_unit(self, values):
        scaler = MinMaxScaler(HEAT2D_BOUNDS.low_array, HEAT2D_BOUNDS.high_array)
        out = scaler.transform(np.array(values))
        assert np.all(out >= -1e-12) and np.all(out <= 1.0 + 1e-12)


class TestSurrogateScalers:
    @pytest.fixture
    def scalers(self):
        return SurrogateScalers.from_bounds(HEAT2D_BOUNDS, n_timesteps=100)

    def test_input_dimensions(self, scalers):
        assert scalers.input_scaler.dim == 6

    def test_encode_single_input(self, scalers):
        row = scalers.encode_input(np.array([100.0, 500.0, 300.0, 100.0, 500.0]), 50)
        assert row.shape == (6,)
        assert row[0] == pytest.approx(0.0)
        assert row[1] == pytest.approx(1.0)
        assert row[5] == pytest.approx(0.5)

    def test_encode_batch_input(self, scalers, rng):
        params = rng.uniform(100, 500, size=(8, 5))
        steps = np.arange(8)
        rows = scalers.encode_input(params, steps)
        assert rows.shape == (8, 6)
        assert np.all((rows >= 0.0) & (rows <= 1.0))

    def test_encode_batch_requires_matching_lengths(self, scalers, rng):
        with pytest.raises(ValueError):
            scalers.encode_input(rng.uniform(100, 500, size=(3, 5)), np.arange(4))

    def test_output_roundtrip(self, scalers, rng):
        field = rng.uniform(100, 500, size=64)
        np.testing.assert_allclose(scalers.decode_output(scalers.encode_output(field)), field)

    def test_output_range_normalised(self, scalers):
        assert scalers.encode_output(np.array([100.0]))[0] == pytest.approx(0.0)
        assert scalers.encode_output(np.array([500.0]))[0] == pytest.approx(1.0)
