"""Tests for the steering samplers (Random / Breed) and the controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.breed.controller import BreedController
from repro.breed.samplers import (
    BreedConfig,
    BreedSampler,
    ParameterSource,
    RandomSampler,
    ResampleDecision,
)
from repro.sampling.bounds import HEAT2D_BOUNDS


class FakeLauncher:
    """Minimal SteeringTarget double recording applied updates."""

    def __init__(self, steerable):
        self.steerable = list(steerable)
        self.updates = {}

    def steerable_simulation_ids(self):
        return list(self.steerable)

    def update_parameters(self, simulation_id, parameters, source):
        self.updates[simulation_id] = (np.asarray(parameters), source)


def feed_losses(sampler, n_sims=10, iteration=1):
    """Push one batch of synthetic per-sample losses into a sampler."""
    rng = np.random.default_rng(0)
    sampler.observe_batch(
        iteration=iteration,
        simulation_ids=list(range(n_sims)),
        timesteps=[0] * n_sims,
        sample_losses=rng.random(n_sims).tolist(),
        parameters=[rng.uniform(100, 500, 5) for _ in range(n_sims)],
    )


class TestRandomSampler:
    def test_initial_parameters_uniform_in_bounds(self, rng):
        sampler = RandomSampler(HEAT2D_BOUNDS)
        params = sampler.initial_parameters(50, rng)
        assert params.shape == (50, 5)
        assert HEAT2D_BOUNDS.contains_all(params)

    def test_never_resamples(self, rng):
        sampler = RandomSampler(HEAT2D_BOUNDS)
        assert not sampler.should_resample(100)
        assert sampler.resample(5, 100, rng) is None

    def test_name(self):
        assert RandomSampler(HEAT2D_BOUNDS).name == "Random"


class TestBreedConfig:
    def test_defaults_match_paper_study1(self):
        config = BreedConfig()
        assert config.sigma == 10.0
        assert config.period == 300
        assert config.window == 200
        assert (config.r_start, config.r_end, config.r_breakpoint) == (0.5, 0.7, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BreedConfig(period=0)
        with pytest.raises(ValueError):
            BreedConfig(window=0)
        with pytest.raises(ValueError):
            BreedConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            BreedConfig(r_start=2.0)


class TestBreedSampler:
    @pytest.fixture
    def sampler(self):
        return BreedSampler(HEAT2D_BOUNDS, BreedConfig(sigma=20.0, period=10, window=50))

    def test_initial_parameters_registered(self, sampler, rng):
        params = sampler.initial_parameters(20, rng)
        assert params.shape == (20, 5)
        assert all(sid in sampler.tracker for sid in range(20))

    def test_should_resample_periodicity(self, sampler, rng):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        assert not sampler.should_resample(0)
        assert not sampler.should_resample(5)
        assert sampler.should_resample(10)
        assert sampler.should_resample(20)

    def test_should_not_resample_without_observations(self, rng):
        sampler = BreedSampler(HEAT2D_BOUNDS, BreedConfig(period=10))
        sampler.initial_parameters(20, rng)
        assert not sampler.should_resample(10)

    def test_observed_records_are_walked_only_at_a_period_boundary(self, sampler, rng, monkeypatch):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        walks = []
        observed_ids = sampler.tracker.observed_ids
        monkeypatch.setattr(
            sampler.tracker, "observed_ids", lambda: walks.append(1) or observed_ids()
        )
        decisions = [sampler.should_resample(iteration) for iteration in range(1, 61)]
        assert len(walks) == 60 // sampler.config.period
        assert [i + 1 for i, fire in enumerate(decisions) if fire] == [10, 20, 30, 40, 50, 60]

    def test_resample_returns_decision(self, sampler, rng):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        decision = sampler.resample(7, iteration=10, rng=rng)
        assert isinstance(decision, ResampleDecision)
        assert len(decision) == 7
        assert HEAT2D_BOUNDS.contains_all(decision.parameters)
        assert set(decision.sources) <= {ParameterSource.PROPOSAL, ParameterSource.MIX_UNIFORM}
        assert decision.resampling_index == 0
        assert sampler.resampling_count == 1

    def test_double_trigger_guard_same_iteration(self, sampler, rng):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        assert sampler.should_resample(10)
        sampler.resample(5, 10, rng)
        assert not sampler.should_resample(10)
        feed_losses(sampler, iteration=15)
        assert sampler.should_resample(20)

    def test_resample_zero_pending_returns_none(self, sampler, rng):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        assert sampler.resample(0, 10, rng) is None

    def test_mixing_ratio_progresses(self, rng):
        sampler = BreedSampler(
            HEAT2D_BOUNDS, BreedConfig(period=5, window=50, r_start=0.0, r_end=1.0, r_breakpoint=2)
        )
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        first = sampler.resample(200, 5, rng)
        feed_losses(sampler, iteration=7)
        second = sampler.resample(200, 10, rng)
        feed_losses(sampler, iteration=12)
        third = sampler.resample(200, 15, rng)
        # r grows 0 -> 0.5 -> 1, so the uniform fraction must drop.
        frac = [
            sum(1 for s in d.sources if s == ParameterSource.MIX_UNIFORM) / len(d)
            for d in (first, second, third)
        ]
        assert frac[0] > frac[1] > frac[2]
        assert frac[2] == 0.0

    def test_decisions_history_recorded(self, sampler, rng):
        sampler.initial_parameters(10, rng)
        feed_losses(sampler)
        sampler.resample(4, 10, rng)
        assert len(sampler.decisions) == 1

    def test_name(self, sampler):
        assert sampler.name == "Breed"


class TestResampleDecision:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResampleDecision(parameters=np.zeros((2, 5)), sources=["proposal"], iteration=0, resampling_index=0)


class TestBreedController:
    def _controller(self, period=10):
        sampler = BreedSampler(HEAT2D_BOUNDS, BreedConfig(sigma=20.0, period=period, window=50))
        rng = np.random.default_rng(3)
        sampler.initial_parameters(30, rng)
        return BreedController(sampler=sampler, rng=rng), sampler

    def test_no_steer_before_period(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[20, 21, 22])
        assert controller.maybe_steer(5, launcher) is None
        assert launcher.updates == {}

    def test_steer_applies_updates_to_launcher(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[20, 21, 22, 23])
        record = controller.maybe_steer(10, launcher)
        assert record is not None
        assert record.n_applied == 4
        assert set(launcher.updates) == {20, 21, 22, 23}
        for params, source in launcher.updates.values():
            assert HEAT2D_BOUNDS.contains(params)
            assert source in (ParameterSource.PROPOSAL, ParameterSource.MIX_UNIFORM)

    def test_steer_with_no_pending_simulations(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[])
        assert controller.maybe_steer(10, launcher) is None

    def test_records_and_steering_time_accumulate(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[25, 26])
        controller.maybe_steer(5, launcher)  # between periods: not timed
        assert (controller.steering_seconds, controller.steering_count) == (0.0, 0)
        controller.maybe_steer(10, launcher)
        first = controller.steering_seconds
        assert first > 0.0 and controller.steering_count == 1
        assert controller.records[-1].elapsed_seconds == first
        controller.maybe_steer(15, launcher)
        assert (controller.steering_seconds, controller.steering_count) == (first, 1)
        feed_losses(sampler, iteration=15)
        controller.maybe_steer(20, launcher)
        assert controller.steering_seconds > first and controller.steering_count == 2
        assert controller.n_steering_events == 2
        state = controller.state_dict()
        assert state["steering_total_seconds"] == controller.steering_seconds
        assert state["steering_count"] == 2
        restored, _ = self._controller()
        restored.load_state_dict(state)
        assert (restored.steering_seconds, restored.steering_count) == (controller.steering_seconds, 2)

    def test_steering_time_counts_a_decision_with_no_steerable_simulation(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        assert controller.maybe_steer(10, FakeLauncher(steerable=[])) is None
        assert controller.steering_count == 1 and controller.steering_seconds > 0.0
        assert controller.records == []

    def test_steering_time_counts_an_empty_decision(self):
        class TriggeringRandom(RandomSampler):
            def should_resample(self, iteration):
                return True

        rng = np.random.default_rng(0)
        sampler = TriggeringRandom(HEAT2D_BOUNDS)
        sampler.initial_parameters(4, rng)
        controller = BreedController(sampler=sampler, rng=rng)
        launcher = FakeLauncher(steerable=[2, 3])
        assert controller.maybe_steer(1, launcher) is None
        assert controller.steering_count == 1 and controller.steering_seconds > 0.0
        assert controller.records == [] and launcher.updates == {}

    def test_steering_time_counts_a_raising_decision(self):
        class BrokenLauncher(FakeLauncher):
            def steerable_simulation_ids(self):
                raise RuntimeError("launcher gone")

        controller, sampler = self._controller()
        feed_losses(sampler)
        with pytest.raises(RuntimeError, match="launcher gone"):
            controller.maybe_steer(10, BrokenLauncher(steerable=[]))
        assert controller.steering_count == 1 and controller.steering_seconds > 0.0
        assert controller.records == []

    def test_observe_batch_forwards_to_sampler(self):
        controller, sampler = self._controller()
        controller.observe_batch(1, [0, 1], [0, 0], [0.1, 0.9])
        assert len(sampler.tracker.observed_ids()) == 2

    def test_random_sampler_never_steers(self):
        rng = np.random.default_rng(0)
        sampler = RandomSampler(HEAT2D_BOUNDS)
        sampler.initial_parameters(10, rng)
        controller = BreedController(sampler=sampler, rng=rng)
        launcher = FakeLauncher(steerable=[5, 6])
        for iteration in range(1, 100):
            assert controller.maybe_steer(iteration, launcher) is None
        assert launcher.updates == {}

    def test_tracker_parameters_updated_after_steer(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[28])
        controller.maybe_steer(10, launcher)
        applied, _ = launcher.updates[28]
        np.testing.assert_array_equal(sampler.tracker.parameters(28), applied)
