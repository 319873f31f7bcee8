"""Tests for the parameter-space box."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sampling.bounds import HEAT2D_BOUNDS, ParameterBounds


class TestConstruction:
    def test_heat2d_constant(self):
        assert HEAT2D_BOUNDS.dim == 5
        assert HEAT2D_BOUNDS.low == (100.0,) * 5
        assert HEAT2D_BOUNDS.high == (500.0,) * 5
        assert HEAT2D_BOUNDS.names == ("T0", "T1", "T2", "T3", "T4")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ParameterBounds(low=(0.0,), high=(1.0, 2.0))

    def test_empty(self):
        with pytest.raises(ValueError):
            ParameterBounds(low=(), high=())

    def test_low_must_be_below_high(self):
        with pytest.raises(ValueError):
            ParameterBounds(low=(1.0,), high=(1.0,))

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            ParameterBounds(low=(0.0,), high=(1.0,), names=("a", "b"))


class TestGeometry:
    def test_widths_volume_center(self):
        b = ParameterBounds(low=(0.0, 10.0), high=(2.0, 20.0))
        np.testing.assert_allclose(b.widths, [2.0, 10.0])
        assert b.volume == pytest.approx(20.0)
        np.testing.assert_allclose(b.center, [1.0, 15.0])

    def test_contains(self):
        b = ParameterBounds(low=(0.0, 0.0), high=(1.0, 1.0))
        assert b.contains([0.5, 0.5])
        assert b.contains([0.0, 1.0])          # boundary inclusive
        assert not b.contains([1.5, 0.5])
        assert b.contains([1.05, 0.5], atol=0.1)

    def test_contains_wrong_shape(self):
        with pytest.raises(ValueError):
            ParameterBounds((0.0,), (1.0,)).contains([0.1, 0.2])

    def test_contains_all(self):
        b = ParameterBounds(low=(0.0,), high=(1.0,))
        assert b.contains_all(np.array([[0.1], [0.9]]))
        assert not b.contains_all(np.array([[0.1], [1.9]]))


class TestScaling:
    def test_corners(self):
        np.testing.assert_allclose(HEAT2D_BOUNDS.scale_from_unit(np.zeros(5)), HEAT2D_BOUNDS.low_array)
        np.testing.assert_allclose(HEAT2D_BOUNDS.scale_from_unit(np.ones(5)), HEAT2D_BOUNDS.high_array)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=5, max_size=5)
    )
    def test_property_unit_points_map_inside(self, unit_point):
        point = HEAT2D_BOUNDS.scale_from_unit(np.array(unit_point))
        assert HEAT2D_BOUNDS.contains(point, atol=1e-9)
