"""Tests for the loss-deviation acquisition metric (Eqs. 4-6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed.acquisition import EPSILON, LossDeviationTracker, loss_deviations

loss_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=32
)


def observe_losses(tracker, simulation_ids, timesteps, losses):
    """Feed one batch of losses through Eq. 4 into ``tracker``."""
    _, _, deviations = loss_deviations(losses)
    tracker.observe_batch(simulation_ids, timesteps, deviations)


class TestLossDeviations:
    def test_deviation_positive_part(self):
        # μ = 1, σ = 0.5: δ = (1.5 − 1) / 0.5 for the top sample, 0 below the mean
        _, _, deviations = loss_deviations([0.5, 1.0, 1.5])
        sigma = np.std([0.5, 1.0, 1.5])
        assert deviations.tolist() == [0.0, 0.0, 0.5 / sigma]

    def test_returns_batch_mean_and_population_std(self):
        losses = [1.0, 2.0, 3.0]
        mean, std, deviations = loss_deviations(losses)
        assert mean == 2.0
        assert std == np.std(losses, ddof=0)
        assert deviations.shape == (3,)

    def test_deviation_zero_std_is_finite(self):
        mean, std, deviations = loss_deviations([2.0, 2.0])
        assert (mean, std) == (2.0, 0.0)
        assert np.all(np.isfinite(deviations)) and deviations.tolist() == [0.0, 0.0]

    def test_epsilon_floors_a_tiny_std(self):
        losses = np.array([1.0, 1.0 + 1e-15])
        mean, std, deviations = loss_deviations(losses)
        assert 0.0 < std < EPSILON
        assert deviations[1] == (losses[1] - mean) / EPSILON


class TestLossDeviationTracker:
    def test_q_value_single_observation(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([0], [0], [2.0])
        assert tracker.q_value(0) == 2.0

    def test_q_value_averages_across_timesteps(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([0, 0], [0, 1], [2.0, 0.0])
        assert tracker.q_value(0) == 1.0

    def test_q_value_averages_across_repeated_batches(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([0], [0], [2.0])
        tracker.observe_batch([0], [0], [1.0])
        assert tracker.q_value(0) == 1.5

    def test_repeated_pair_in_one_batch_is_one_mean(self):
        # Eq. 5 averages every occurrence; Eq. 6 then sees one time step, not two
        tracker = LossDeviationTracker()
        tracker.observe_batch([0, 0, 0], [4, 4, 7], [2.0, 1.0, 0.0])
        assert tracker.q_value(0) == 0.75
        record = tracker.state_dict()["records"][0]
        assert record["timesteps"].tolist() == [4, 7]
        assert record["counts"].tolist() == [2, 1]

    def test_q_value_unknown_simulation_is_zero(self):
        assert LossDeviationTracker().q_value(42) == 0.0

    def test_rows_are_simulation_ids_and_grow_to_the_largest_one(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([40, 3], [0, 0], [1.0, 0.5])
        assert tracker.observed_ids() == [3, 40]
        assert (tracker.q_value(40), tracker.q_value(39), tracker.q_value(1000)) == (1.0, 0.0, 0.0)
        # only observed rows are written, and no parameters: the caller owns them
        records = tracker.state_dict()["records"]
        assert [record["simulation_id"] for record in records] == [3, 40]
        assert set(records[0]) == {"simulation_id", "last_update_order", "timesteps", "means", "counts"}

    def test_observe_batch_counts_observations(self):
        tracker = LossDeviationTracker()
        observe_losses(tracker, [0, 1, 2], [0, 0, 0], [1.0, 2.0, 3.0])
        assert len(tracker.observed_ids()) == 3
        assert tracker.n_observations == 3

    def test_observe_empty_batch(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([], [], [])
        assert tracker.n_observations == 0 and tracker.observed_ids() == []

    def test_only_above_mean_samples_have_positive_q(self):
        tracker = LossDeviationTracker()
        observe_losses(tracker, [0, 1], [0, 0], [0.1, 0.9])
        assert tracker.q_value(0) == 0.0
        assert tracker.q_value(1) > 0.0

    def test_window_ordering_by_recency(self):
        tracker = LossDeviationTracker()
        for sim_id in range(5):
            tracker.observe_batch([sim_id], [0], [1.0])
        ids, q_values = tracker.window(3)
        assert ids.tolist() == [4, 3, 2]          # most recently updated first
        assert q_values.shape == (3,)

    def test_window_recency_is_a_simulations_last_sample_in_the_batch(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([0, 1, 2, 0], [0, 0, 0, 1], [1.0, 1.0, 1.0, 1.0])
        assert tracker.window(3)[0].tolist() == [0, 2, 1]

    def test_window_smaller_population(self):
        tracker = LossDeviationTracker()
        tracker.observe_batch([0], [0], [1.0])
        ids, q_values = tracker.window(10)
        assert ids.tolist() == [0] and q_values.tolist() == [1.0]

    def test_window_empty(self):
        ids, q_values = LossDeviationTracker().window(5)
        assert ids.size == 0 and q_values.size == 0
        # the caller's locations, parameters[ids], are an empty (0, d) window
        assert np.zeros((4, 2))[ids].shape == (0, 2)

    def test_window_invalid_size(self):
        with pytest.raises(ValueError):
            LossDeviationTracker().window(0)

    def test_all_q_values(self):
        tracker = LossDeviationTracker()
        observe_losses(tracker, [0, 1], [0, 0], [0.2, 0.8])
        q = tracker.all_q_values()
        assert set(q) == {0, 1}

    def test_many_rows_and_time_steps_grow_the_columns(self):
        tracker = LossDeviationTracker()
        ids = np.repeat(np.arange(40), 30)
        timesteps = np.tile(np.arange(30), 40)
        tracker.observe_batch(ids, timesteps, np.ones(ids.size))
        assert tracker.n_observations == 1200
        assert all(q == 1.0 for q in tracker.all_q_values().values())
        assert tracker.state_dict()["records"][39]["timesteps"].tolist() == list(range(30))

    @given(loss_lists)
    @settings(max_examples=40, deadline=None)
    def test_property_q_values_non_negative(self, losses):
        tracker = LossDeviationTracker()
        observe_losses(tracker, list(range(len(losses))), [0] * len(losses), losses)
        assert all(q >= 0.0 for q in tracker.all_q_values().values())

    @given(loss_lists)
    @settings(max_examples=40, deadline=None)
    def test_property_below_mean_samples_have_zero_q(self, losses):
        tracker = LossDeviationTracker()
        arr = np.array(losses)
        observe_losses(tracker, list(range(len(losses))), [0] * len(losses), losses)
        for sim_id, loss in enumerate(arr):
            if loss <= arr.mean():
                assert tracker.q_value(sim_id) == 0.0
