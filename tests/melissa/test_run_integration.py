"""End-to-end integration tests of the on-line training driver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.breed.samplers import ParameterSource
from repro.api import OnlineTrainingConfig, TrainingSession, run_online_training
from repro.sampling.bounds import HEAT2D_BOUNDS


class TestConfigValidation:
    def test_method_checked(self, tiny_heat_config):
        with pytest.raises(ValueError):
            OnlineTrainingConfig(method="bogus", heat=tiny_heat_config)

    def test_counts_checked(self, tiny_heat_config):
        with pytest.raises(ValueError):
            OnlineTrainingConfig(heat=tiny_heat_config, n_simulations=0)
        with pytest.raises(ValueError):
            OnlineTrainingConfig(heat=tiny_heat_config, batch_size=0)
        with pytest.raises(ValueError):
            OnlineTrainingConfig(heat=tiny_heat_config, max_iterations=0)
        with pytest.raises(ValueError):
            OnlineTrainingConfig(
                heat=tiny_heat_config, reservoir_watermark=100, reservoir_capacity=50
            )

    def test_surrogate_config_derived(self, tiny_run_config):
        surrogate = tiny_run_config.surrogate_config
        assert surrogate.input_dim == 6
        assert surrogate.output_dim == tiny_run_config.heat.grid_size ** 2

    def test_build_helpers(self, tiny_run_config):
        solver = tiny_run_config.build_workload().build_solver()
        assert solver.field_size == tiny_run_config.heat.grid_size ** 2
        assert tiny_run_config.build_sampler().name == "Breed"
        assert replace(tiny_run_config, method="random").build_sampler().name == "Random"


class TestBreedRun:
    @pytest.fixture(scope="class")
    def breed_result(self, tiny_solver):
        from repro.breed.samplers import BreedConfig
        from repro.solvers.heat2d import Heat2DConfig

        config = OnlineTrainingConfig(
            method="breed",
            heat=Heat2DConfig(grid_size=6, n_timesteps=5),
            breed=BreedConfig(sigma=25.0, period=10, window=30, r_start=0.5, r_end=0.7, r_breakpoint=2),
            n_simulations=24,
            hidden_size=8,
            n_hidden_layers=1,
            batch_size=16,
            job_limit=4,
            timesteps_per_tick=1,
            train_iterations_per_tick=2,
            reservoir_capacity=120,
            reservoir_watermark=24,
            max_iterations=60,
            validation_period=20,
            n_validation_trajectories=3,
            seed=5,
        )
        return run_online_training(config, solver=tiny_solver)

    def test_runs_to_iteration_budget(self, breed_result):
        assert breed_result.history.train_iterations[-1] == 60
        assert len(breed_result.history.train_losses) == 60

    def test_validation_evaluated(self, breed_result):
        assert len(breed_result.history.validation_losses) >= 2
        assert np.isfinite(breed_result.final_validation_loss)

    def test_steering_happened(self, breed_result):
        assert len(breed_result.steering_records) >= 1
        assert breed_result.launcher_summary["overwrites"] >= 1
        sources = set(breed_result.parameter_sources)
        assert sources & {ParameterSource.PROPOSAL, ParameterSource.MIX_UNIFORM}

    def test_executed_parameters_stay_in_bounds(self, breed_result):
        assert HEAT2D_BOUNDS.contains_all(breed_result.executed_parameters)
        assert breed_result.executed_parameters.shape == (24, 5)
        assert len(breed_result.parameter_sources) == 24

    def test_uniform_fraction_in_unit_interval(self, breed_result):
        assert 0.0 <= breed_result.uniform_fraction() <= 1.0

    def test_sample_statistics_recorded(self, breed_result):
        stats = breed_result.history.sample_statistics
        assert len(stats) == 60 * 16  # iterations x batch size
        assert all(s.deviation >= 0.0 for s in stats)

    def test_summaries_consistent(self, breed_result):
        assert breed_result.server_summary["iterations"] == 60.0
        assert breed_result.launcher_summary["total"] == 24
        assert breed_result.reservoir_summary["received"] > 0
        assert breed_result.transport_bytes > 0
        assert breed_result.n_ticks > 0

    def test_training_reduces_loss(self, breed_result):
        losses = breed_result.history.train_losses
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_overfit_gap_finite(self, breed_result):
        assert np.isfinite(breed_result.overfit_gap)


class TestRandomRun:
    def test_random_never_steers(self, tiny_run_config, tiny_solver):
        config = replace(tiny_run_config, method="random")
        result = run_online_training(config, solver=tiny_solver)
        assert result.method == "Random"
        assert result.steering_records == []
        assert result.launcher_summary["overwrites"] == 0
        assert set(result.parameter_sources) == {ParameterSource.INITIAL_UNIFORM}
        assert result.uniform_fraction() == 1.0


class TestReproducibility:
    def test_same_seed_same_curves(self, tiny_run_config, tiny_solver):
        a = run_online_training(tiny_run_config, solver=tiny_solver)
        b = run_online_training(tiny_run_config, solver=tiny_solver)
        np.testing.assert_allclose(a.history.train_losses, b.history.train_losses)
        np.testing.assert_array_equal(a.executed_parameters, b.executed_parameters)

    def test_different_seed_different_curves(self, tiny_run_config, tiny_solver):
        a = run_online_training(tiny_run_config, solver=tiny_solver)
        b = run_online_training(replace(tiny_run_config, seed=99), solver=tiny_solver)
        assert not np.allclose(a.history.train_losses, b.history.train_losses)


class TestEdgeCases:
    def test_watermark_never_reached_terminates(self, tiny_solver):
        from repro.solvers.heat2d import Heat2DConfig

        config = OnlineTrainingConfig(
            method="random",
            heat=Heat2DConfig(grid_size=6, n_timesteps=5),
            n_simulations=2,                      # 12 samples total
            reservoir_capacity=200,
            reservoir_watermark=100,              # unreachable
            batch_size=8,
            job_limit=2,
            max_iterations=50,
            n_validation_trajectories=0,
            seed=1,
        )
        result = run_online_training(config, solver=tiny_solver)
        assert result.history.train_iterations == []
        assert result.launcher_summary["finished"] == 2

    def test_ledger_records_framework_events(self, tiny_run_config, tiny_solver):
        session = TrainingSession(tiny_run_config, solver=tiny_solver)
        result = session.run()
        launcher = session.launcher
        submitted = launcher.submitted_tick >= 0
        started = launcher.started_tick >= 0
        finished = launcher.completed_tick >= 0
        assert submitted.any() and started.any() and finished.any()
        summary = result.launcher_summary
        assert finished.sum() == summary["finished"]
        assert started.sum() == summary["running"] + summary["finished"]
        assert submitted.sum() == summary["submitted"] + started.sum()
        # each event happens once, in lifecycle order
        assert (launcher.submitted_tick[started] <= launcher.eligible_tick[started]).all()
        assert (launcher.eligible_tick[started] <= launcher.started_tick[started]).all()
        assert (launcher.started_tick[finished] <= launcher.completed_tick[finished]).all()

    def test_shared_validation_set_reused(self, tiny_run_config, tiny_solver, tiny_scalers):
        from repro.surrogate.validation import build_validation_set

        validation = build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=2)
        result = run_online_training(tiny_run_config, solver=tiny_solver, validation_set=validation)
        assert np.isfinite(result.final_validation_loss)
