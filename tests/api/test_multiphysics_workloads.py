"""The multi-physics workload family through the registry and the session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OnlineTrainingConfig, TrainingSession, workload_names
from repro.sampling.bounds import (
    ADVECTION1D_BOUNDS,
    ADVECTION2D_BOUNDS,
    BURGERS_BOUNDS,
    FISHER_BOUNDS,
    ParameterBounds,
)
from repro.solvers.advection import AdvectionDiffusion1DSolver, AdvectionDiffusion2DSolver
from repro.solvers.burgers import Burgers1DSolver
from repro.solvers.reaction_diffusion import FisherKPPSolver

NEW_WORKLOADS = ["advection1d", "advection2d", "burgers", "fisher"]


def tiny_config(workload: str, **overrides) -> OnlineTrainingConfig:
    from repro.solvers.heat2d import Heat2DConfig

    kwargs = dict(
        workload=workload,
        heat=Heat2DConfig(grid_size=8, n_timesteps=6),
        n_simulations=12,
        hidden_size=8,
        batch_size=16,
        job_limit=4,
        timesteps_per_tick=2,
        train_iterations_per_tick=2,
        reservoir_capacity=150,
        reservoir_watermark=20,
        max_iterations=40,
        validation_period=20,
        n_validation_trajectories=3,
        seed=11,
    )
    kwargs.update(overrides)
    return OnlineTrainingConfig(**kwargs)


class TestRegistry:
    def test_all_families_are_registered(self):
        names = workload_names()
        for name in NEW_WORKLOADS:
            assert name in names

    def test_factories_build_the_right_solver(self):
        expected = {
            "advection1d": AdvectionDiffusion1DSolver,
            "advection2d": AdvectionDiffusion2DSolver,
            "burgers": Burgers1DSolver,
            "fisher": FisherKPPSolver,
        }
        for name, cls in expected.items():
            workload = tiny_config(name).build_workload()
            assert workload.solver_class is cls
            assert isinstance(workload.build_solver(), cls)

    def test_resolution_derives_from_heat_knobs(self):
        workload = tiny_config("burgers").build_workload()
        assert workload.output_dim == 8
        assert workload.n_timesteps == 6
        assert tiny_config("advection2d").build_workload().output_dim == 64

    def test_workload_options_override_discretisation(self):
        config = tiny_config("fisher", workload_options={"n_points": 20, "dt": 0.02})
        workload = config.build_workload()
        assert workload.output_dim == 20
        assert workload.solver_config.dt == 0.02

    def test_cfl_violating_options_raise_the_solver_error(self):
        config = tiny_config("advection1d", workload_options={"n_points": 256, "dt": 0.05})
        with pytest.raises(ValueError, match="CFL violation"):
            config.build_workload()


class TestDeclaredGeometry:
    @pytest.mark.parametrize("name", workload_names())
    def test_declared_geometry_matches_the_solver(self, name):
        workload = tiny_config(name).build_workload()
        solver = workload.build_solver()
        assert workload.output_dim == solver.field_size
        assert workload.n_timesteps == solver.n_timesteps
        first_field = next(iter(solver.steps(workload.bounds.center)))
        assert len(first_field) == workload.output_dim


class TestBoundsResolution:
    def test_default_heat2d_bounds_resolve_to_canonical_boxes(self):
        canonical = {
            "advection1d": ADVECTION1D_BOUNDS,
            "advection2d": ADVECTION2D_BOUNDS,
            "burgers": BURGERS_BOUNDS,
            "fisher": FISHER_BOUNDS,
        }
        for name, bounds in canonical.items():
            assert tiny_config(name).build_workload().bounds == bounds

    def test_custom_bounds_are_honoured(self):
        custom = ParameterBounds(low=(0.9, 0.3, 0.3), high=(1.1, 0.5, 0.35))
        workload = tiny_config("burgers", bounds=custom).build_workload()
        assert workload.bounds == custom

    def test_wrong_dimensional_bounds_rejected(self):
        bad = ParameterBounds(low=(0.0, 0.0), high=(1.0, 1.0))
        with pytest.raises(ValueError, match="takes 4 parameters"):
            tiny_config("advection2d", bounds=bad).build_workload()


class TestScalers:
    def test_output_range_is_the_field_range_not_the_parameter_range(self):
        scalers = tiny_config("advection1d").build_workload().build_scalers()
        assert scalers.output_scaler.low[0] == 0.0
        assert scalers.output_scaler.high[0] == ADVECTION1D_BOUNDS.high[0]

        scalers = tiny_config("burgers").build_workload().build_scalers()
        assert scalers.output_scaler.low[0] == BURGERS_BOUNDS.low[1]
        assert scalers.output_scaler.high[0] == BURGERS_BOUNDS.high[0]

        scalers = tiny_config("fisher").build_workload().build_scalers()
        assert (scalers.output_scaler.low[0], scalers.output_scaler.high[0]) == (0.0, 1.0)

    def test_encoded_fields_land_in_unit_range(self):
        for name in NEW_WORKLOADS:
            workload = tiny_config(name).build_workload()
            solver = workload.build_solver()
            scalers = workload.build_scalers()
            params = workload.bounds.center
            for field in solver.steps(params):
                encoded = scalers.encode_output(field)
                assert encoded.min() >= -1e-9, name
                assert encoded.max() <= 1.0 + 1e-9, name


class TestEndToEnd:
    @pytest.mark.parametrize("workload", NEW_WORKLOADS)
    def test_session_trains_on_each_workload(self, workload):
        config = tiny_config(workload)
        session = TrainingSession(config)
        result = session.run()
        assert result.workload == workload
        assert result.history.train_losses, workload
        assert np.isfinite(result.final_validation_loss)

    def test_config_roundtrip_preserves_workload(self):
        config = tiny_config("burgers", workload_options={"nu": 0.02})
        rebuilt = OnlineTrainingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.build_workload().solver_config.nu == 0.02

    @pytest.mark.parametrize("workload", ["advection1d", "burgers", "fisher"])
    def test_runs_are_deterministic(self, workload):
        first = TrainingSession(tiny_config(workload)).run()
        second = TrainingSession(tiny_config(workload)).run()
        assert first.history.train_losses == second.history.train_losses
        assert first.history.validation_losses == second.history.validation_losses
        np.testing.assert_array_equal(first.executed_parameters, second.executed_parameters)
