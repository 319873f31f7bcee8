"""Tests for the loss-deviation acquisition metric (Eqs. 4-6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed.acquisition import LossDeviationTracker, SampleLossObservation

loss_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=32
)


def make_observation(sim_id=0, t=0, i=0, loss=1.0, mean=0.5, std=0.5):
    return SampleLossObservation(
        simulation_id=sim_id, timestep=t, iteration=i, sample_loss=loss, batch_mean=mean, batch_std=std
    )


class TestSampleLossObservation:
    def test_deviation_positive_part(self):
        assert make_observation(loss=1.0, mean=0.5, std=0.5).deviation() == pytest.approx(1.0)
        assert make_observation(loss=0.2, mean=0.5, std=0.5).deviation() == 0.0

    def test_deviation_zero_std_is_finite(self):
        assert np.isfinite(make_observation(loss=1.0, mean=0.0, std=0.0).deviation())


class TestLossDeviationTracker:
    def test_register_and_contains(self):
        tracker = LossDeviationTracker()
        tracker.register_parameters(3, np.array([1.0, 2.0]))
        assert 3 in tracker
        assert 4 not in tracker
        assert len(tracker) == 1

    def test_observe_unknown_simulation_requires_parameters(self):
        tracker = LossDeviationTracker()
        with pytest.raises(KeyError):
            tracker.observe(make_observation(sim_id=9))
        tracker.observe(make_observation(sim_id=9), parameters=np.array([1.0]))
        assert 9 in tracker

    def test_q_value_single_observation(self):
        tracker = LossDeviationTracker()
        tracker.register_parameters(0, np.zeros(2))
        deviation = tracker.observe(make_observation(loss=1.5, mean=0.5, std=0.5))
        assert deviation == pytest.approx(2.0)
        assert tracker.q_value(0) == pytest.approx(2.0)

    def test_q_value_averages_across_timesteps(self):
        tracker = LossDeviationTracker()
        tracker.register_parameters(0, np.zeros(2))
        tracker.observe(make_observation(t=0, loss=1.5, mean=0.5, std=0.5))  # delta = 2
        tracker.observe(make_observation(t=1, loss=0.5, mean=0.5, std=0.5))  # delta = 0
        assert tracker.q_value(0) == pytest.approx(1.0)

    def test_q_value_averages_across_repeated_batches(self):
        tracker = LossDeviationTracker()
        tracker.register_parameters(0, np.zeros(2))
        tracker.observe(make_observation(t=0, i=0, loss=1.5, mean=0.5, std=0.5))  # 2
        tracker.observe(make_observation(t=0, i=1, loss=1.0, mean=0.5, std=0.5))  # 1
        assert tracker.q_value(0) == pytest.approx(1.5)

    def test_q_value_unknown_simulation_is_zero(self):
        assert LossDeviationTracker().q_value(42) == 0.0

    def test_observe_batch_returns_batch_statistics(self):
        tracker = LossDeviationTracker()
        losses = [1.0, 2.0, 3.0]
        mean, std = tracker.observe_batch(
            iteration=5,
            simulation_ids=[0, 1, 2],
            timesteps=[0, 0, 0],
            sample_losses=losses,
            parameters=[np.zeros(2)] * 3,
        )
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(np.std(losses))
        assert len(tracker.observed_ids()) == 3

    def test_observe_empty_batch(self):
        tracker = LossDeviationTracker()
        assert tracker.observe_batch(0, [], [], []) == (0.0, 0.0)

    def test_only_above_mean_samples_have_positive_q(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch(
            iteration=0,
            simulation_ids=[0, 1],
            timesteps=[0, 0],
            sample_losses=[0.1, 0.9],
            parameters=[np.zeros(2), np.ones(2)],
        )
        assert tracker.q_value(0) == 0.0
        assert tracker.q_value(1) > 0.0

    def test_window_ordering_by_recency(self):
        tracker = LossDeviationTracker()
        for sim_id in range(5):
            tracker.observe_batch(
                iteration=sim_id,
                simulation_ids=[sim_id],
                timesteps=[0],
                sample_losses=[1.0],
                parameters=[np.full(2, sim_id, dtype=float)],
            )
        locations, q_values, ids = tracker.window(3)
        assert ids == [4, 3, 2]          # most recently updated first
        assert locations.shape == (3, 2)
        assert q_values.shape == (3,)

    def test_window_smaller_population(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch(0, [0], [0], [1.0], parameters=[np.zeros(2)])
        locations, q_values, ids = tracker.window(10)
        assert len(ids) == 1

    def test_window_empty(self):
        locations, q_values, ids = LossDeviationTracker().window(5)
        assert ids == [] and locations.size == 0 and q_values.size == 0

    def test_window_invalid_size(self):
        with pytest.raises(ValueError):
            LossDeviationTracker().window(0)

    def test_registered_but_unobserved_excluded_from_window(self):
        tracker = LossDeviationTracker()
        tracker.register_parameters(0, np.zeros(2))
        tracker.observe_batch(0, [1], [0], [1.0], parameters=[np.ones(2)])
        _, _, ids = tracker.window(10)
        assert ids == [1]

    def test_all_q_values(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch(0, [0, 1], [0, 0], [0.2, 0.8], parameters=[np.zeros(2), np.ones(2)])
        q = tracker.all_q_values()
        assert set(q) == {0, 1}

    @given(loss_lists)
    @settings(max_examples=40, deadline=None)
    def test_property_q_values_non_negative(self, losses):
        tracker = LossDeviationTracker()
        tracker.observe_batch(
            iteration=0,
            simulation_ids=list(range(len(losses))),
            timesteps=[0] * len(losses),
            sample_losses=losses,
            parameters=[np.zeros(1)] * len(losses),
        )
        assert all(q >= 0.0 for q in tracker.all_q_values().values())

    @given(loss_lists)
    @settings(max_examples=40, deadline=None)
    def test_property_below_mean_samples_have_zero_q(self, losses):
        tracker = LossDeviationTracker()
        arr = np.array(losses)
        tracker.observe_batch(
            iteration=0,
            simulation_ids=list(range(len(losses))),
            timesteps=[0] * len(losses),
            sample_losses=losses,
            parameters=[np.zeros(1)] * len(losses),
        )
        for sim_id, loss in enumerate(arr):
            if loss <= arr.mean():
                assert tracker.q_value(sim_id) == 0.0
