"""Tests for the solver clients and the launcher: job limit, start jitter, steering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed.samplers import ParameterSource
from repro.melissa.client import SolverClient
from repro.melissa.launcher import Launcher
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds


@pytest.fixture
def params():
    return [300.0, 100.0, 500.0, 200.0, 400.0]


class TestSolverClient:
    def test_streams_full_trajectory(self, tiny_solver, params):
        client = SolverClient(0, np.array(params), tiny_solver)
        rows = client.produce(max_steps=100)
        assert rows.shape == (tiny_solver.n_timesteps + 1, tiny_solver.field_size)
        assert client.finished
        assert client.n_produced == len(rows)

    def test_incremental_production(self, tiny_solver, params):
        client = SolverClient(1, np.array(params), tiny_solver)
        assert len(client.produce(2)) == 2 and client.n_produced == 2
        assert len(client.produce(2)) == 2 and client.n_produced == 4
        assert not client.finished

    def test_payload_matches_direct_solve(self, tiny_solver, params):
        client = SolverClient(0, np.array(params), tiny_solver)
        rows = client.produce(100)
        reference = tiny_solver.solve(params)
        np.testing.assert_allclose(rows[-1], reference.final_field)

    def test_produce_after_finish_returns_empty(self, tiny_solver, params):
        client = SolverClient(0, np.array(params), tiny_solver)
        client.produce(100)
        assert client.produce(5).shape == (0, tiny_solver.field_size)

    def test_an_exact_fit_finishes_on_the_next_call(self, tiny_solver, params):
        """``finished`` is set by the first short block, as the session's scheduling expects."""
        client = SolverClient(0, np.array(params), tiny_solver)
        assert len(client.produce(tiny_solver.n_timesteps + 1)) == tiny_solver.n_timesteps + 1
        assert not client.finished
        assert len(client.produce(3)) == 0 and client.finished

    def test_invalid_max_steps(self, tiny_solver, params):
        with pytest.raises(ValueError):
            SolverClient(0, np.array(params), tiny_solver).produce(0)


def make_launcher(tiny_solver, n_simulations=12, job_limit=3, delay=0, seed=0):
    rng = np.random.default_rng(seed)
    params = uniform_in_bounds(n_simulations, HEAT2D_BOUNDS, rng)
    return Launcher(params, tiny_solver, job_limit, rng, max_start_delay=delay)


class TestLauncherSubmission:
    def test_budget_and_initial_state(self, tiny_solver):
        launcher = make_launcher(tiny_solver)
        assert launcher.budget == 12
        assert launcher.summary()["pending"] == 12
        assert launcher.highest_submitted_id == -1

    def test_empty_budget_rejected(self, tiny_solver):
        with pytest.raises(ValueError):
            Launcher(np.empty((0, 5)), tiny_solver, 1, np.random.default_rng(0))

    def test_invalid_construction(self, tiny_solver):
        with pytest.raises(ValueError, match="job_limit"):
            make_launcher(tiny_solver, job_limit=0)
        with pytest.raises(ValueError, match="max_start_delay"):
            make_launcher(tiny_solver, delay=-1)

    def test_submit_respects_job_limit(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=3)
        submitted = launcher.submit_available()
        assert submitted == [0, 1, 2]
        assert launcher.highest_submitted_id == 2
        # No further submissions until something finishes.
        assert launcher.submit_available() == []

    def test_start_and_finish_lifecycle(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=2)
        launcher.submit_available()
        clients = launcher.advance()
        assert len(clients) == 2
        assert launcher.summary()["running"] == 2
        launcher.mark_finished(clients[0].simulation_id)
        assert launcher.summary()["finished"] == 1
        # A freed slot allows the next submission.
        assert launcher.submit_available() == [2]

    def test_mark_finished_requires_running(self, tiny_solver):
        launcher = make_launcher(tiny_solver)
        with pytest.raises(ValueError):
            launcher.mark_finished(0)

    def test_running_clients_listing(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=2)
        launcher.submit_available()
        launcher.advance()
        assert len(launcher.running_clients()) == 2

    def test_a_finished_client_is_closed_and_dropped(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=2)
        launcher.submit_available()
        first, second = launcher.advance()
        launcher.mark_finished(first.simulation_id)
        assert first._rows is None
        assert launcher.running_clients() == [second]

    def test_all_finished(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=2, job_limit=2)
        launcher.submit_available()
        clients = launcher.advance()
        for client in clients:
            launcher.mark_finished(client.simulation_id)
        assert launcher.all_finished

    def test_ledger_ticks_record_each_event(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=1)
        launcher.submit_available()
        (client,) = launcher.advance()
        sim_id = client.simulation_id
        assert (launcher.submitted_tick[sim_id], launcher.started_tick[sim_id]) == (0, 1)
        assert launcher.completed_tick[sim_id] == -1
        launcher.mark_finished(sim_id)
        assert launcher.completed_tick[sim_id] == 1
        untouched = np.arange(launcher.budget) != sim_id
        assert (launcher.submitted_tick[untouched] == -1).all()
        assert (launcher.started_tick[untouched] == -1).all()


class TestLauncherScheduling:
    """The batch scheduler's two semantics: the job limit and the start jitter."""

    def test_submit_leaves_jobs_queued(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=3)
        launcher.submit_available()
        assert launcher.summary()["submitted"] == 3
        assert (launcher.submitted_tick[0], launcher.eligible_tick[0], launcher.started_tick[0]) == (0, 0, -1)

    def test_each_id_is_submitted_once_in_id_order(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=7, job_limit=2, delay=2)
        submitted = []
        while not launcher.all_finished:
            submitted += launcher.submit_available()
            for client in launcher.advance():
                launcher.mark_finished(client.simulation_id)
        assert submitted == list(range(7))
        assert launcher.submit_available() == []

    def test_starts_up_to_job_limit(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=5, job_limit=2)
        launcher.submit_available()
        assert len(launcher.advance()) == 2
        assert launcher.summary()["running"] == 2
        assert launcher.summary()["pending"] == 3

    def test_completion_frees_slot(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=2, job_limit=1)
        launcher.submit_available()
        launcher.advance()
        launcher.mark_finished(0)
        assert launcher.completed_tick[0] == 1
        launcher.submit_available()
        assert [client.simulation_id for client in launcher.advance()] == [1]

    def test_submitted_job_cannot_finish(self, tiny_solver):
        launcher = make_launcher(tiny_solver)
        launcher.submit_available()
        with pytest.raises(ValueError):
            launcher.mark_finished(0)

    def test_no_jobs_started_without_capacity(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=1)
        launcher.submit_available()
        launcher.advance()
        assert launcher.submit_available() == []
        assert launcher.advance() == []

    def test_start_delay_postpones_eligibility(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=20, job_limit=10, delay=5, seed=1)
        launcher.submit_available()
        first_wave = launcher.advance()
        # With delays up to 5 ticks, not every submitted job is eligible on tick 1.
        assert len(first_wave) < 10
        for _ in range(6):
            launcher.advance()
        # After the delay window has elapsed, the running set fills the limit.
        assert launcher.summary()["running"] == 10

    def test_jitter_can_reorder_start_order(self, tiny_solver):
        # With a wide delay window some seed must start a later-submitted job first.
        reordered = False
        for seed in range(20):
            launcher = make_launcher(tiny_solver, n_simulations=2, job_limit=2, delay=4, seed=seed)
            launcher.submit_available()
            for _ in range(6):
                started = launcher.advance()
                if started:
                    reordered = started[0].simulation_id == 1
                    break
            if reordered:
                break
        assert reordered

    def test_summary_counts(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=3, job_limit=1)
        launcher.submit_available()
        launcher.advance()
        launcher.mark_finished(0)
        launcher.submit_available()
        summary = launcher.summary()
        assert (summary["finished"], summary["submitted"], summary["pending"]) == (1, 1, 1)
        assert summary["total"] == 3
        assert launcher.tick == 1

    def test_running_ids(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=2)
        launcher.submit_available()
        launcher.advance()
        assert {client.simulation_id for client in launcher.running_clients()} == {0, 1}

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_running_never_exceeds_limit(self, tiny_solver, job_limit, delay, n_simulations, seed):
        launcher = make_launcher(
            tiny_solver, n_simulations=n_simulations, job_limit=job_limit, delay=delay, seed=seed
        )
        rng = np.random.default_rng(seed + 1)
        completed = 0
        for _ in range(400):
            launcher.submit_available()
            launcher.advance()
            assert launcher.summary()["running"] <= job_limit
            # Randomly complete some running jobs.
            for client in launcher.running_clients():
                if rng.random() < 0.5:
                    launcher.mark_finished(client.simulation_id)
                    completed += 1
            if completed == n_simulations:
                break
        assert completed == n_simulations and launcher.all_finished


class TestLauncherSteering:
    def test_steerable_ids_respect_k_plus_m_rule(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=12, job_limit=3)
        launcher.submit_available()           # submits 0, 1, 2 -> k = 2
        steerable = launcher.steerable_simulation_ids()
        # Rule: only pending ids >= k + m = 2 + 3 = 5 are steerable.
        assert steerable == list(range(5, 12))

    def test_steerable_before_any_submission(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=3)
        # k = -1, threshold = 2: ids 2..5 steerable.
        assert launcher.steerable_simulation_ids() == [2, 3, 4, 5]

    def test_steerable_excludes_submitted(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=2)
        launcher.submit_available()
        steerable = launcher.steerable_simulation_ids()
        assert 0 not in steerable and 1 not in steerable

    def test_update_parameters_overwrites_pending(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=8, job_limit=2)
        launcher.submit_available()
        target = launcher.steerable_simulation_ids()[0]
        new_params = np.full(5, 321.0)
        launcher.update_parameters(target, new_params, ParameterSource.PROPOSAL)
        params, sources = launcher.executed_parameters()
        np.testing.assert_array_equal(params[target], new_params)
        assert sources[target] == ParameterSource.PROPOSAL
        assert launcher.summary()["overwrites"] == 1

    def test_unknown_source_rejected(self, tiny_solver):
        """A source is one ``ParameterSource`` tag: a misspelled one would count
        as non-uniform in the Fig. 6 ``uniform`` column."""
        launcher = make_launcher(tiny_solver, n_simulations=8, job_limit=2)
        before = launcher.executed_parameters()[0].copy()
        with pytest.raises(ValueError, match="unknown parameter source 'proposl'"):
            launcher.update_parameters(7, np.full(5, 321.0), "proposl")
        np.testing.assert_array_equal(launcher.executed_parameters()[0], before)
        assert launcher.summary()["overwrites"] == 0

    def test_update_parameters_rejected_for_non_pending(self, tiny_solver):
        launcher = make_launcher(tiny_solver, job_limit=2)
        launcher.submit_available()
        with pytest.raises(ValueError):
            launcher.update_parameters(0, np.full(5, 300.0), ParameterSource.PROPOSAL)

    def test_started_client_uses_latest_parameters(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=1)
        new_params = np.full(5, 444.0)
        launcher.update_parameters(4, new_params, ParameterSource.PROPOSAL)
        # Run the first four simulations to completion so 4 eventually starts.
        started_params = None
        for _ in range(50):
            launcher.submit_available()
            for client in launcher.advance():
                if client.simulation_id == 4:
                    started_params = client.parameters
                launcher.mark_finished(client.simulation_id)
            if started_params is not None:
                break
        np.testing.assert_array_equal(started_params, new_params)

    def test_executed_parameters_and_sources(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=2)
        launcher.update_parameters(5, np.full(5, 200.0), ParameterSource.MIX_UNIFORM)
        params, sources = launcher.executed_parameters()
        assert params.shape == (6, 5)
        assert sources[5] == ParameterSource.MIX_UNIFORM
        assert sources[0] == ParameterSource.INITIAL_UNIFORM

    def test_executed_parameters_are_a_read_only_view(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=2)
        params, _ = launcher.executed_parameters()
        assert not params.flags.writeable and np.shares_memory(params, launcher.parameters)
        launcher.update_parameters(5, np.full(5, 200.0), ParameterSource.PROPOSAL)
        np.testing.assert_array_equal(params[5], np.full(5, 200.0))

    def test_summary_counts_overwrites(self, tiny_solver):
        launcher = make_launcher(tiny_solver, n_simulations=6, job_limit=2)
        launcher.update_parameters(5, np.full(5, 200.0), ParameterSource.PROPOSAL)
        launcher.update_parameters(5, np.full(5, 220.0), ParameterSource.PROPOSAL)
        summary = launcher.summary()
        assert summary["overwrites"] == 2
        assert summary["total"] == 6
