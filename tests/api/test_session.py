"""End-to-end tests of TrainingSession: phases, hooks and new workloads."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import OnlineTrainingConfig, TrainingSession, run_online_training
from repro.breed.samplers import BreedConfig
from repro.sampling.bounds import HEAT1D_BOUNDS


def _make_heat1d_config() -> OnlineTrainingConfig:
    """The canonical fast 1-D workload configuration with steering enabled."""
    return OnlineTrainingConfig(
        workload="heat1d",
        breed=BreedConfig(sigma=25.0, period=15, window=40, r_start=0.5, r_end=0.7, r_breakpoint=2),
        workload_options={"n_points": 16, "n_timesteps": 8},
        n_simulations=24,
        hidden_size=8,
        batch_size=16,
        job_limit=4,
        timesteps_per_tick=2,
        train_iterations_per_tick=2,
        reservoir_capacity=200,
        reservoir_watermark=30,
        max_iterations=120,
        validation_period=30,
        n_validation_trajectories=4,
        seed=11,
    )


@pytest.fixture
def heat1d_config() -> OnlineTrainingConfig:
    return _make_heat1d_config()


class TestHeat1DEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        return TrainingSession(_make_heat1d_config()).run()

    def test_completes_iteration_budget(self, result):
        assert result.history.train_iterations[-1] == 120
        assert result.workload == "heat1d"

    def test_validation_loss_decreases(self, result):
        losses = result.history.validation_losses
        assert len(losses) >= 3
        assert losses[-1] < losses[0]
        assert np.isfinite(losses[-1])

    def test_parameters_respect_1d_bounds(self, result):
        assert result.executed_parameters.shape == (24, 3)
        assert HEAT1D_BOUNDS.contains_all(result.executed_parameters)

    def test_model_geometry_matches_workload(self, result):
        assert result.model.config.input_dim == 4
        assert result.model.config.output_dim == 16

    def test_steering_happened(self, result):
        assert len(result.steering_records) >= 1

    def test_steering_seconds_cover_every_record(self, result):
        # each record carries the running total when it was applied
        elapsed = [record.elapsed_seconds for record in result.steering_records]
        assert 0.0 < elapsed[0] and elapsed == sorted(elapsed)
        assert result.steering_seconds >= elapsed[-1]
        assert result.server_summary["steering_seconds"] == result.steering_seconds


class TestAnalyticScenario:
    def test_analytic_end_to_end(self):
        config = OnlineTrainingConfig(
            workload="analytic",
            workload_options={"n_points": 12, "n_timesteps": 6},
            n_simulations=10,
            hidden_size=8,
            batch_size=16,
            job_limit=4,
            reservoir_capacity=120,
            reservoir_watermark=20,
            timesteps_per_tick=2,
            train_iterations_per_tick=2,
            max_iterations=50,
            validation_period=20,
            n_validation_trajectories=3,
            seed=4,
        )
        result = TrainingSession(config).run()
        assert result.workload == "analytic"
        assert result.history.train_iterations[-1] == 50
        assert np.isfinite(result.final_validation_loss)


class TestWrapperEquivalence:
    def test_run_online_training_equals_session_run(self, heat1d_config):
        a = run_online_training(heat1d_config)
        b = TrainingSession(heat1d_config).run()
        np.testing.assert_array_equal(a.executed_parameters, b.executed_parameters)
        np.testing.assert_allclose(a.history.train_losses, b.history.train_losses)
        np.testing.assert_allclose(a.history.validation_losses, b.history.validation_losses)
        assert a.n_ticks == b.n_ticks
        assert a.transport_bytes == b.transport_bytes

    def test_heat2d_default_workload_reproducible(self):
        config = OnlineTrainingConfig(
            n_simulations=12,
            hidden_size=8,
            batch_size=16,
            job_limit=4,
            reservoir_capacity=120,
            reservoir_watermark=24,
            max_iterations=30,
            validation_period=15,
            n_validation_trajectories=2,
            seed=5,
            heat=replace(OnlineTrainingConfig().heat, grid_size=6, n_timesteps=5),
        )
        a = run_online_training(config)
        b = run_online_training(config)
        np.testing.assert_allclose(a.history.train_losses, b.history.train_losses)


class TestPhases:
    def test_manual_phase_stepping(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        started = session.submit()
        assert started, "first submit must start at least one client"
        produced = session.produce()
        assert produced > 0
        received = session.receive()
        assert received == produced
        # Below the watermark no training happens yet.
        assert session.train() == [] or session.server.ready
        assert not session.should_stop()

    def test_tick_drives_all_phases(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        alive = True
        while alive and session.n_ticks < 1000:
            alive = session.tick()
        assert session.server.iteration == heat1d_config.max_iterations
        result = session.result()
        assert result.n_ticks == session.n_ticks


class TestHooks:
    def test_on_tick_called_every_tick(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        ticks = []
        session.add_hook("tick", lambda s: ticks.append(s.n_ticks))
        result = session.run()
        assert ticks == list(range(1, result.n_ticks + 1))

    def test_on_validation_sees_every_point(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        seen = []
        session.add_hook("validation", lambda s, iteration, loss: seen.append((iteration, loss)))
        result = session.run()
        assert [it for it, _ in seen] == list(result.history.validation_iterations)
        assert [loss for _, loss in seen] == list(result.history.validation_losses)

    def test_on_steering_sees_every_record(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        seen = []
        session.add_hook("steering", lambda s, record: seen.append(record))
        result = session.run()
        assert len(seen) == len(result.steering_records) >= 1
        assert [r.iteration for r in seen] == [r.iteration for r in result.steering_records]

    def test_unknown_hook_event_rejected(self, heat1d_config):
        session = TrainingSession(heat1d_config)
        with pytest.raises(KeyError):
            session.add_hook("bogus", lambda s: None)


class TestFinalPoint:
    """The final validation point is evaluated unless a periodic one saw the same model."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """One entry per validation-set evaluation the server makes."""
        import repro.melissa.server as server_module

        calls = []
        evaluate = server_module.validation_loss

        def spy(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(server_module, "validation_loss", spy)
        return calls

    def test_a_final_point_on_the_last_periodic_one_reuses_its_loss(
        self, heat1d_config, evaluations, tmp_path
    ):
        from repro.checkpoint import restore_session, save_session

        assert heat1d_config.max_iterations % heat1d_config.validation_period == 0
        session = TrainingSession(heat1d_config)
        while session.tick():
            pass
        snapshot = save_session(session, tmp_path)  # at the final tick
        result = session.result()
        assert len(evaluations) == 4  # iterations 30, 60, 90, 120 — and not 120 again
        assert result.history.validation_iterations == [30, 60, 90, 120, 120]
        assert result.history.validation_losses[-1] == result.history.validation_losses[-2]

        restored = restore_session(snapshot).run()
        assert len(evaluations) == 4
        assert restored.history.validation_iterations == result.history.validation_iterations
        assert restored.history.validation_losses == result.history.validation_losses

    def test_a_final_point_past_the_last_periodic_one_is_evaluated(self, heat1d_config, evaluations):
        result = TrainingSession(replace(heat1d_config, max_iterations=100)).run()
        assert len(evaluations) == 4
        assert result.history.validation_iterations == [30, 60, 90, 100]


class TestStudyRunnerIntegration:
    @pytest.mark.parametrize("workload", ["heat1d", "analytic"])
    def test_study_runner_drives_new_workloads(self, workload):
        from repro.workflow.study import StudyRunner

        base = OnlineTrainingConfig(
            workload=workload,
            workload_options={"n_points": 12, "n_timesteps": 6},
            n_simulations=8,
            hidden_size=8,
            batch_size=16,
            job_limit=4,
            reservoir_capacity=120,
            reservoir_watermark=20,
            timesteps_per_tick=2,
            train_iterations_per_tick=2,
            max_iterations=30,
            validation_period=15,
            n_validation_trajectories=2,
            seed=1,
        )
        runner = StudyRunner(base_config=base, study_name=workload)
        results = runner.run_all([{"hidden_size": 8}, {"method": "random"}])
        assert len(results) == 2
        for run in results.runs:
            assert np.isfinite(run.metric("final_validation_loss"))

    def test_workload_override_through_apply_overrides(self):
        from repro.workflow.study import apply_overrides

        base = OnlineTrainingConfig()
        config = apply_overrides(base, {"workload": "heat1d", "sigma_decrement": 0.5})
        assert config.workload == "heat1d"
        # sigma_decrement is a BreedConfig field that the old field-by-field
        # rebuild silently dropped; dataclasses.replace keeps it.
        assert config.breed.sigma_decrement == 0.5
        assert config.breed.period == base.breed.period

    def test_workload_override_gets_its_own_solver(self):
        """A per-run workload override must not inherit the base's solver."""
        from repro.workflow.study import StudyRunner

        base = OnlineTrainingConfig(
            heat=replace(OnlineTrainingConfig().heat, grid_size=6, n_timesteps=5),
            n_simulations=8,
            hidden_size=8,
            batch_size=16,
            job_limit=4,
            reservoir_capacity=120,
            reservoir_watermark=20,
            timesteps_per_tick=2,
            train_iterations_per_tick=2,
            max_iterations=20,
            validation_period=10,
            n_validation_trajectories=2,
            seed=1,
        )
        runner = StudyRunner(base_config=base, study_name="mixed")
        record, result = runner.run_one(
            "mixed:heat1d", {"workload": "heat1d", "workload_options": {"n_points": 10, "n_timesteps": 4}}
        )
        assert result.workload == "heat1d"
        assert result.executed_parameters.shape[1] == 3
        assert np.isfinite(record.metric("final_validation_loss"))


class TestBoundsPlumbing:
    def test_custom_3dim_bounds_respected_by_1d_workloads(self):
        from repro.sampling.bounds import ParameterBounds

        custom = ParameterBounds(low=(200.0,) * 3, high=(300.0,) * 3, names=("T0", "Tl", "Tr"))
        for name in ("heat1d", "analytic"):
            config = OnlineTrainingConfig(workload=name, bounds=custom)
            assert config.build_workload().bounds == custom

    def test_default_5dim_bounds_fall_back_to_heat1d_box(self):
        config = OnlineTrainingConfig(workload="heat1d")
        assert config.build_workload().bounds == HEAT1D_BOUNDS

    def test_explicit_wrong_dim_bounds_rejected_loudly(self):
        from repro.sampling.bounds import ParameterBounds

        custom_5d = ParameterBounds(low=(150.0,) * 5, high=(450.0,) * 5)
        with pytest.raises(ValueError, match="3 parameters"):
            OnlineTrainingConfig(workload="heat1d", bounds=custom_5d).build_workload()

    def test_heat2d_rejects_wrong_dim_bounds_at_build_time(self):
        from repro.sampling.bounds import ParameterBounds

        custom_3d = ParameterBounds(low=(200.0,) * 3, high=(300.0,) * 3)
        with pytest.raises(ValueError, match="'heat2d' takes 5 parameters"):
            OnlineTrainingConfig(workload="heat2d", bounds=custom_3d).build_workload()

    def test_heat2d_honours_a_custom_5dim_box(self):
        from repro.sampling.bounds import ParameterBounds

        custom_5d = ParameterBounds(low=(150.0,) * 5, high=(450.0,) * 5)
        assert OnlineTrainingConfig(bounds=custom_5d).build_workload().bounds == custom_5d

    def test_result_workload_reports_registry_key(self):
        from repro.api import register_workload
        from repro.api.workloads import Workload
        from repro.sampling.bounds import HEAT1D_BOUNDS
        from repro.solvers.heat1d import Heat1DConfig, Heat1DImplicitSolver

        register_workload(
            "test-key-echo",
            lambda config: Workload(
                HEAT1D_BOUNDS, Heat1DImplicitSolver, Heat1DConfig(n_points=8, n_timesteps=4), 8
            ),
            overwrite=True,
        )
        config = OnlineTrainingConfig(
            workload="test-key-echo",
            n_simulations=4,
            batch_size=8,
            job_limit=2,
            reservoir_capacity=60,
            reservoir_watermark=10,
            max_iterations=5,
            n_validation_trajectories=0,
            seed=0,
        )
        result = TrainingSession(config).run()
        assert result.workload == "test-key-echo"

    def test_custom_bounds_drive_sampling(self):
        from repro.sampling.bounds import ParameterBounds

        custom = ParameterBounds(low=(200.0,) * 3, high=(300.0,) * 3)
        config = OnlineTrainingConfig(
            workload="heat1d",
            bounds=custom,
            workload_options={"n_points": 8, "n_timesteps": 4},
            n_simulations=6,
            batch_size=8,
            job_limit=2,
            reservoir_capacity=60,
            reservoir_watermark=10,
            max_iterations=10,
            validation_period=5,
            n_validation_trajectories=2,
            seed=0,
        )
        result = TrainingSession(config).run()
        assert custom.contains_all(result.executed_parameters)
