"""Tests for the steering samplers (Random / Breed) and the controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.breed import samplers
from repro.breed.acquisition import loss_deviations
from repro.breed.controller import BreedController
from repro.breed.samplers import BreedConfig, BreedSampler, ParameterSource, RandomSampler
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.multinomial import effective_sample_size, entropy, normalize_weights
from repro.sampling.uniform import uniform_in_bounds


class FakeLauncher:
    """Minimal launcher double recording applied updates."""

    def __init__(self, steerable, n_simulations=30):
        self.steerable = list(steerable)
        self.updates = {}
        self.parameters = uniform_in_bounds(n_simulations, HEAT2D_BOUNDS, np.random.default_rng(7))

    def steerable_simulation_ids(self):
        return list(self.steerable)

    def update_parameters(self, simulation_id, parameters, source):
        self.updates[simulation_id] = (np.asarray(parameters), source)
        self.parameters[simulation_id] = parameters

    def executed_parameters(self):
        return self.parameters.copy(), ["initial_uniform"] * len(self.parameters)


def feed_losses(sampler, n_sims=10):
    """Push one batch of synthetic per-sample losses, as Eq. 4 deviations, into a sampler."""
    rng = np.random.default_rng(0)
    _, _, deviations = loss_deviations(rng.random(n_sims))
    sampler.observe_batch(list(range(n_sims)), [0] * n_sims, deviations)


class TestRandomSampler:
    def test_initial_parameters_uniform_in_bounds(self, rng):
        sampler = RandomSampler(HEAT2D_BOUNDS)
        params = sampler.initial_parameters(50, rng)
        assert params.shape == (50, 5)
        assert HEAT2D_BOUNDS.contains_all(params)

    def test_never_resamples(self, rng):
        sampler = RandomSampler(HEAT2D_BOUNDS)
        assert not sampler.should_resample(100)
        assert sampler.resample(5, 100, rng, sampler.initial_parameters(10, rng)) is None

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

    def test_initial_parameters_only_draw(self, sampler, rng):
        params = sampler.initial_parameters(20, rng)
        assert params.shape == (20, 5) and HEAT2D_BOUNDS.contains_all(params)
        assert sampler.tracker.state_dict()["records"] == []

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

    def test_the_queue_is_folded_only_at_a_period_boundary(self, sampler, rng, monkeypatch):
        sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        folds = []
        fold = sampler.tracker._fold
        monkeypatch.setattr(sampler.tracker, "_fold", lambda: folds.append(1) or fold())
        decisions = [sampler.should_resample(iteration) for iteration in range(1, 61)]
        assert len(folds) == 60 // sampler.config.period
        assert [i + 1 for i, fire in enumerate(decisions) if fire] == [10, 20, 30, 40, 50, 60]

    def test_resample_returns_parameters_sources_and_diagnostics(self, sampler, rng):
        params = sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        resampled = sampler.resample(7, iteration=10, rng=rng, parameters=params)
        assert resampled.parameters.shape == (7, 5) and len(resampled) == 7
        assert HEAT2D_BOUNDS.contains_all(resampled.parameters)
        assert set(resampled.sources) <= {ParameterSource.PROPOSAL, ParameterSource.MIX_UNIFORM}
        assert resampled.diagnostics["resampling_index"] == 0
        assert resampled.diagnostics["concentrate_probability"] == sampler.config.concentrate_probability(0)
        assert sampler.resampling_count == 1

    def test_a_result_whose_parameters_and_sources_disagree_is_refused(self):
        with pytest.raises(ValueError):
            samplers.Resampled(np.zeros((2, 5)), [ParameterSource.PROPOSAL], {"resampling_index": 0})

    def test_window_locations_are_the_callers_parameter_rows(self, sampler, rng, monkeypatch):
        params = sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        seen = {}
        amis_step = samplers.amis_step
        monkeypatch.setattr(
            samplers, "amis_step", lambda *args: seen.update(args=args) or amis_step(*args)
        )
        sampler.resample(5, 10, rng, params)
        ids, q_values = sampler.tracker.window(sampler.config.window)
        _, _, locations, passed_q_values, *_ = seen["args"]
        assert np.array_equal(locations, params[ids])
        assert np.array_equal(passed_q_values, q_values)

    def test_resample_zero_pending_returns_none(self, sampler, rng):
        params = sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        assert sampler.resample(0, 10, rng, params) is None

    def test_mixing_ratio_progresses(self, rng):
        sampler = BreedSampler(
            HEAT2D_BOUNDS, BreedConfig(period=5, window=50, r_start=0.0, r_end=1.0, r_breakpoint=2)
        )
        params = sampler.initial_parameters(20, rng)
        feed_losses(sampler)
        first = sampler.resample(200, 5, rng, params)
        feed_losses(sampler)
        second = sampler.resample(200, 10, rng, params)
        feed_losses(sampler)
        third = sampler.resample(200, 15, rng, params)
        # r grows 0 -> 0.5 -> 1, so the uniform fraction must drop.
        frac = [r.sources.count(ParameterSource.MIX_UNIFORM) / len(r) for r in (first, second, third)]
        assert frac[0] > frac[1] > frac[2]
        assert frac[2] == 0.0

    def test_name(self, sampler):
        assert sampler.name == "Breed"


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

    def test_a_record_holds_the_weight_diagnostics_of_its_window(self):
        controller, sampler = self._controller()
        feed_losses(sampler)
        _, q_values = sampler.tracker.window(sampler.config.window)
        record = controller.maybe_steer(10, FakeLauncher(steerable=[20, 21, 22]))
        weights = normalize_weights(q_values)
        assert record.window_size == len(q_values) == 10
        assert record.ess == effective_sample_size(weights)
        assert record.weight_entropy == entropy(weights)
        assert record.max_weight_share == weights.max()
        assert record.concentrate_probability == sampler.config.r_start
        assert record.n_fallbacks == 0 and record.sigma_min == record.sigma_median == 20.0

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
        feed_losses(sampler)
        controller.maybe_steer(20, launcher)
        assert controller.steering_seconds > first and controller.steering_count == 2
        assert len(controller.records) == 2
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
        controller.observe_batch([0, 1], [0, 0], [0.0, 1.0])
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

    def test_a_steering_reads_the_launchers_current_parameters(self, monkeypatch):
        controller, sampler = self._controller()
        feed_losses(sampler)
        launcher = FakeLauncher(steerable=[28, 29])
        controller.maybe_steer(10, launcher)
        first = {sim_id: params.copy() for sim_id, (params, _) in launcher.updates.items()}
        passed = []
        resample = sampler.resample
        monkeypatch.setattr(
            sampler, "resample", lambda *args: passed.append(args[3].copy()) or resample(*args)
        )
        feed_losses(sampler)
        controller.maybe_steer(20, launcher)
        # the second steering's window reads the rows the first one applied
        assert set(first) == {28, 29} and len(passed) == 1
        for sim_id, params in first.items():
            assert np.array_equal(passed[0][sim_id], params)
