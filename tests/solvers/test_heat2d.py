"""Tests for the 2-D heat solvers (Appendix B.1 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.analytic import steady_state_2d
from repro.solvers.heat2d import (
    Heat2DConfig,
    Heat2DExplicitSolver,
    Heat2DImplicitSolver,
    apply_dirichlet_boundaries,
)

temps = st.floats(min_value=100.0, max_value=500.0, allow_nan=False)


class TestConfig:
    def test_defaults_match_paper(self):
        config = Heat2DConfig()
        assert config.grid_size == 64
        assert config.n_timesteps == 100
        assert config.dt == pytest.approx(0.01)
        assert config.alpha == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Heat2DConfig(grid_size=2)
        with pytest.raises(ValueError):
            Heat2DConfig(n_timesteps=0)
        with pytest.raises(ValueError):
            Heat2DConfig(dt=0.0)
        with pytest.raises(ValueError):
            Heat2DConfig(alpha=-1.0)


class TestBoundaries:
    def test_apply_dirichlet(self):
        field = np.zeros((4, 4))
        apply_dirichlet_boundaries(field, 1.0, 2.0, 3.0, 4.0)
        assert np.all(field[0, 1:-1] == 1.0)
        assert np.all(field[-1, 1:-1] == 2.0)
        assert np.all(field[1:-1, 0] == 3.0)
        assert np.all(field[1:-1, -1] == 4.0)
        assert np.all(field[1:-1, 1:-1] == 0.0)


class TestImplicitSolver:
    @pytest.fixture(scope="class")
    def solver(self):
        return Heat2DImplicitSolver(Heat2DConfig(grid_size=10, n_timesteps=15))

    def test_interface_sizes(self, solver):
        assert solver.field_size == 100
        assert solver.parameter_dim == 5

    def test_trajectory_length_and_shape(self, solver):
        traj = solver.solve([300.0, 100.0, 500.0, 200.0, 400.0])
        assert len(traj) == 16  # t = 0 .. 15
        assert traj.as_array().shape == (16, 100)

    def test_initial_field(self, solver):
        field = solver.initial_field([250.0, 100.0, 500.0, 200.0, 400.0])
        assert field[3, 3] == 250.0
        assert np.all(field[0, 1:-1] == 100.0)

    def test_constant_temperature_is_stationary(self, solver):
        traj = solver.solve([350.0] * 5)
        np.testing.assert_allclose(traj.final_field, 350.0, rtol=1e-10)

    def test_maximum_principle(self, solver):
        params = [450.0, 120.0, 480.0, 130.0, 470.0]
        fields = solver.solve(params).as_array()
        assert fields.min() >= min(params) - 1e-8
        assert fields.max() <= max(params) + 1e-8

    def test_monotone_approach_to_boundary_mean(self, solver):
        # Starting hot with cold boundaries, the interior mean must decrease.
        params = [500.0, 100.0, 100.0, 100.0, 100.0]
        fields = solver.solve(params).as_array()
        interior_means = fields.reshape(-1, 10, 10)[:, 1:-1, 1:-1].mean(axis=(1, 2))
        assert np.all(np.diff(interior_means) < 1e-9)

    def test_symmetry_under_parameter_symmetry(self, solver):
        # Swapping the x1=0 / x1=L boundary temperatures mirrors the field.
        a = solver.solve([300.0, 150.0, 450.0, 250.0, 250.0]).final_field.reshape(10, 10)
        b = solver.solve([300.0, 450.0, 150.0, 250.0, 250.0]).final_field.reshape(10, 10)
        np.testing.assert_allclose(a, b[::-1, :], rtol=1e-10)

    def test_long_run_converges_to_analytic_steady_state(self):
        config = Heat2DConfig(grid_size=20, n_timesteps=400)
        solver = Heat2DImplicitSolver(config)
        params = [200.0, 100.0, 500.0, 300.0, 400.0]
        final = solver.solve(params).final_field.reshape(20, 20)
        analytic = steady_state_2d(config.grid.coordinates, *params[1:])
        interior = (slice(2, -2), slice(2, -2))
        assert np.abs(final[interior] - analytic[interior]).max() < 10.0  # Kelvin, coarse grid

    def test_32_grid_after_600_steps_within_5_kelvin_of_steady_state(self):
        config = Heat2DConfig(grid_size=32, n_timesteps=600)
        params = [300.0, 100.0, 500.0, 200.0, 400.0]
        final = Heat2DImplicitSolver(config).solve(params).final_field.reshape(32, 32)
        analytic = steady_state_2d(config.grid.coordinates, *params[1:])
        interior = (slice(2, -2), slice(2, -2))
        assert np.abs(final[interior] - analytic[interior]).max() < 5.0

    def test_steady_state_solver_matches_analytic(self):
        config = Heat2DConfig(grid_size=24, n_timesteps=1)
        solver = Heat2DImplicitSolver(config)
        params = [200.0, 100.0, 500.0, 300.0, 400.0]
        numeric = solver.steady_state(params).reshape(24, 24)
        analytic = steady_state_2d(config.grid.coordinates, *params[1:])
        interior = (slice(2, -2), slice(2, -2))
        assert np.abs(numeric[interior] - analytic[interior]).max() < 5.0

    def test_parameter_validation(self, solver):
        with pytest.raises(ValueError):
            solver.solve([1.0, 2.0])
        with pytest.raises(ValueError):
            solver.solve([np.nan] * 5)

    def test_deterministic(self, solver):
        params = [222.0, 111.0, 333.0, 444.0, 155.0]
        np.testing.assert_array_equal(
            solver.solve(params).final_field, solver.solve(params).final_field
        )

    @settings(max_examples=10, deadline=None)
    @given(temps, temps, temps, temps, temps)
    def test_property_maximum_principle(self, t0, t1, t2, t3, t4):
        solver = Heat2DImplicitSolver(Heat2DConfig(grid_size=6, n_timesteps=4))
        fields = solver.solve([t0, t1, t2, t3, t4]).as_array()
        lo, hi = min(t0, t1, t2, t3, t4), max(t0, t1, t2, t3, t4)
        assert fields.min() >= lo - 1e-7
        assert fields.max() <= hi + 1e-7


class TestExplicitSolver:
    def test_substeps_guarantee_stability(self):
        solver = Heat2DExplicitSolver(Heat2DConfig(grid_size=16, n_timesteps=5))
        assert solver.substeps >= 1
        fields = solver.solve([500.0, 100.0, 100.0, 100.0, 100.0]).as_array()
        assert np.all(np.isfinite(fields))
        assert fields.max() <= 500.0 + 1e-8

    def test_agrees_with_implicit_solver(self):
        config = Heat2DConfig(grid_size=12, n_timesteps=20)
        params = [400.0, 150.0, 350.0, 250.0, 200.0]
        implicit = Heat2DImplicitSolver(config).solve(params).final_field
        explicit = Heat2DExplicitSolver(config).solve(params).final_field
        # Both schemes are first-order in time; on this coarse grid they agree
        # to a few Kelvin against a 100-500 K dynamic range.
        assert np.abs(implicit - explicit).max() < 5.0

    def test_interface_sizes(self):
        solver = Heat2DExplicitSolver(Heat2DConfig(grid_size=8, n_timesteps=3))
        assert solver.field_size == 64
        assert solver.parameter_dim == 5


class TestFusedStepBitIdentity:
    """steps() uses out=-buffered fused arithmetic; it must replay the
    reference sub-step (_step_once) bit-for-bit at every time step."""

    def test_fused_steps_match_reference_substeps_exactly(self):
        config = Heat2DConfig(grid_size=12, n_timesteps=7, dt=0.01)
        solver = Heat2DExplicitSolver(config)
        params = [250.0, 100.0, 200.0, 300.0, 400.0]
        boundary = (100.0, 200.0, 300.0, 400.0)
        reference = solver.initial_field(params)
        for step, field in enumerate(solver.steps(params)):
            if step > 0:
                for _ in range(solver.substeps):
                    reference = solver._step_once(reference, boundary)
            np.testing.assert_array_equal(field, reference.reshape(-1))
