"""Tests for grids and trajectory containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.grid import Grid1D, Grid2D
from repro.solvers.trajectory import TimeStepSample, Trajectory


class TestGrid1D:
    def test_spacing_and_coordinates(self):
        grid = Grid1D(n_points=5, length=2.0)
        assert grid.dx == pytest.approx(0.5)
        np.testing.assert_allclose(grid.coordinates, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(n_points=2)
        with pytest.raises(ValueError):
            Grid1D(n_points=5, length=0.0)


class TestGrid2D:
    def test_basic_properties(self):
        grid = Grid2D(n=4, length=3.0)
        assert grid.shape == (4, 4)
        assert grid.n_total == 16
        assert grid.dx == pytest.approx(1.0)

    def test_coordinates_meshgrid(self):
        grid = Grid2D(n=3)
        x1, x2 = grid.coordinates
        assert x1.shape == (3, 3)
        assert x1[0, 0] == 0.0 and x1[-1, 0] == 1.0
        assert x2[0, -1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(n=2)
        with pytest.raises(ValueError):
            Grid2D(n=4, length=-1.0)


class TestTimeStepSample:
    def test_flattening_and_key(self):
        sample = TimeStepSample(3, [1.0, 2.0], 7, np.ones((2, 2)))
        assert sample.field.shape == (4,)
        assert sample.key == (3, 7)
        assert sample.parameters.dtype == np.float64


class TestTrajectory:
    def test_append_and_iterate(self):
        traj = Trajectory(simulation_id=1, parameters=np.array([1.0]))
        traj.append(0, np.zeros(4))
        traj.append(1, np.ones(4))
        assert len(traj) == 2
        samples = list(traj)
        assert samples[0].timestep == 0 and samples[1].timestep == 1
        assert all(s.simulation_id == 1 for s in samples)

    def test_append_enforces_increasing_timesteps(self):
        traj = Trajectory(simulation_id=0, parameters=np.array([1.0]))
        traj.append(0, np.zeros(2))
        with pytest.raises(ValueError):
            traj.append(0, np.zeros(2))

    def test_as_array(self):
        traj = Trajectory(simulation_id=0, parameters=np.array([1.0]))
        traj.append(0, np.zeros(3))
        traj.append(1, np.ones(3))
        assert traj.as_array().shape == (2, 3)

    def test_as_array_empty(self):
        assert Trajectory(0, np.array([1.0])).as_array().size == 0

    def test_final_field(self):
        traj = Trajectory(simulation_id=0, parameters=np.array([1.0]))
        with pytest.raises(ValueError):
            _ = traj.final_field
        traj.append(0, np.full(2, 7.0))
        np.testing.assert_array_equal(traj.final_field, [7.0, 7.0])
