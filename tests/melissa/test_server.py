"""Tests for the training server (reception, training loop, statistics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OnlineTrainingConfig, TrainingSession, workload_names
from repro.breed.controller import BreedController
from repro.breed.samplers import BreedConfig, BreedSampler, ParameterSource, RandomSampler
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir
from repro.melissa.server import TrainingHistory, TrainingServer
from repro.nn.optim import Adam
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.model import DirectSurrogate, SurrogateConfig
from repro.surrogate.validation import build_validation_set


def make_server(
    tiny_solver,
    tiny_scalers,
    method="random",
    batch_size=8,
    watermark=6,
    capacity=64,
    with_validation=False,
    seed=0,
):
    rng = np.random.default_rng(seed)
    model = DirectSurrogate(
        SurrogateConfig(output_dim=tiny_solver.field_size, hidden_size=8, n_hidden_layers=1),
        tiny_scalers,
        rng=rng,
    )
    sampler = (
        BreedSampler(HEAT2D_BOUNDS, BreedConfig(sigma=25.0, period=5, window=20))
        if method == "breed"
        else RandomSampler(HEAT2D_BOUNDS)
    )
    sampler.initial_parameters(16, rng)
    controller = BreedController(sampler=sampler, rng=rng)
    validation = (
        build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=2)
        if with_validation
        else None
    )
    server = TrainingServer(
        model=model,
        optimizer=Adam(model.parameters(), lr=1e-3),
        reservoir=Reservoir(capacity=capacity, watermark=watermark, rng=rng),
        controller=controller,
        batch_size=batch_size,
        validation_set=validation,
        validation_period=5,
    )
    return server


def feed_trajectory(server, tiny_solver, sim_id=0, params=(300.0, 100.0, 500.0, 200.0, 400.0)):
    """Hand the server one whole trajectory as a block; returns how many rows it stored."""
    params = np.array(params)
    return server.receive([(sim_id, 0, np.array(list(tiny_solver.steps(params))))], [params])


class TestReception:
    def test_receive_normalises_and_stores(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers)
        accepted = feed_trajectory(server, tiny_solver)
        assert accepted == tiny_solver.n_timesteps + 1
        assert len(server.reservoir) == accepted
        entry = server.reservoir.entries()[0]
        assert entry.x.shape == (6,)
        assert np.all((entry.x >= 0.0) & (entry.x <= 1.0))

    def test_backpressure_when_reservoir_saturated(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, capacity=4, watermark=2)
        # The block stops where the buffer fills with unseen samples ...
        assert feed_trajectory(server, tiny_solver, sim_id=0) == 4
        # ... and stores nothing more until training has seen some of them.
        assert server.receive([(1, 0, np.full((2, tiny_solver.field_size), 300.0))], [np.full(5, 300.0)]) == 0
        assert server.summary()["samples_received"] == server.reservoir.n_received == 4
        assert server.reservoir.n_rejected == 0


@pytest.mark.parametrize("workload", workload_names())
def test_block_receive_equals_per_sample_encodes(workload):
    """One encode per block gives the bits one encode per time step gave, on every workload."""
    config = OnlineTrainingConfig(
        workload=workload, heat=Heat2DConfig(grid_size=8, n_timesteps=6), n_validation_trajectories=1
    )
    session = TrainingSession(config)
    try:
        params = session.launcher.parameters[0]
        trajectory = np.array(list(session.solver.steps(params)))
        assert session.server.receive([(3, 2, trajectory[2:])], [params]) == len(trajectory) - 2
        scalers = session.model.scalers
        entries = session.reservoir.entries()
        assert [(e.simulation_id, e.timestep) for e in entries] == [(3, t) for t in range(2, len(trajectory))]
        for entry in entries:
            assert np.array_equal(entry.x, scalers.encode_input(params, entry.timestep))
            assert np.array_equal(entry.y, scalers.encode_output(trajectory[entry.timestep]))
    finally:
        session.close()


class TestTraining:
    def test_not_ready_before_watermark(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, watermark=50)
        feed_trajectory(server, tiny_solver)
        assert not server.ready
        assert server.train_iteration() is None
        assert server.iteration == 0

    def test_train_iteration_records_history(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers)
        feed_trajectory(server, tiny_solver)
        loss = server.train_iteration()
        assert loss is not None and np.isfinite(loss)
        assert server.iteration == 1
        assert server.history.train_losses == [loss]
        assert server.history.train_iterations == [1]

    def test_loss_decreases_over_many_iterations(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, batch_size=16)
        for sim_id in range(3):
            feed_trajectory(server, tiny_solver, sim_id=sim_id)
        losses = [server.train_iteration() for _ in range(120)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_validation_runs_periodically(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, with_validation=True)
        feed_trajectory(server, tiny_solver)
        for _ in range(10):
            server.train_iteration()
        assert server.history.validation_iterations == [5, 10]
        assert all(np.isfinite(v) for v in server.history.validation_losses)

    def test_evaluate_validation_on_demand(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, with_validation=True)
        value = server.evaluate_validation()
        assert value is not None and np.isfinite(value)
        assert make_server(tiny_solver, tiny_scalers).evaluate_validation() is None

    def test_losses_feed_breed_tracker(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, method="breed")
        feed_trajectory(server, tiny_solver, sim_id=0)
        server.train_iteration()
        sampler = server.controller.sampler
        assert len(sampler.tracker.observed_ids()) >= 1  # type: ignore[attr-defined]

    def test_sample_statistics_recorded(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, batch_size=4)
        feed_trajectory(server, tiny_solver)
        server.train_iteration()
        stats = server.history.sample_statistics
        assert len(stats) == 4
        row = stats[0]
        assert row.iteration == 1
        assert np.isfinite(row.sample_loss) and row.deviation >= 0.0
        assert stats.uniform.all()  # no launcher says otherwise

    def test_statistics_rows_equal_the_per_sample_loop(self, tiny_solver, tiny_scalers):
        # The rows are computed vectorised; the loop they replaced is the reference.
        server = make_server(tiny_solver, tiny_scalers, batch_size=8)
        launcher = Launcher(np.full((2, 5), 300.0), tiny_solver, job_limit=1, rng=np.random.default_rng(0))
        proposal = (200.0, 300.0, 400.0, 100.0, 500.0)
        launcher.update_parameters(1, np.array(proposal), ParameterSource.PROPOSAL)
        feed_trajectory(server, tiny_solver, sim_id=0)
        feed_trajectory(server, tiny_solver, sim_id=1, params=proposal)
        for _ in range(3):
            server.train_iteration(launcher)
        stats = server.history.sample_statistics
        for iteration, batch_loss in zip(server.history.train_iterations, server.history.train_losses):
            rows = stats[stats.iteration == iteration]
            std = float(rows.sample_loss.std())
            sigma = std if std > 1e-12 else 1e-12
            assert list(rows.batch_loss) == [batch_loss] * 8
            assert list(rows.deviation) == [
                max(float(loss) - batch_loss, 0.0) / sigma for loss in rows.sample_loss
            ]
            assert list(rows.uniform) == [sid != 1 for sid in rows.simulation_id]

    def test_statistics_longer_than_a_chunk_read_and_restore_in_order(
        self, tiny_solver, tiny_scalers, monkeypatch
    ):
        import repro.melissa.server as server_module

        monkeypatch.setattr(server_module, "_CHUNK_ROWS", 10)
        server = make_server(tiny_solver, tiny_scalers, batch_size=4)
        feed_trajectory(server, tiny_solver)
        for _ in range(3):
            server.train_iteration()  # the third batch does not fit the first chunk's last 2 rows
        assert len(server.history.statistic_chunks) == 2
        assert list(server.history.sample_statistics.iteration) == [1] * 4 + [2] * 4 + [3] * 4
        assert len(server.history.statistic_chunks) == 1  # merged once
        server.train_iteration()
        stats = server.history.sample_statistics
        assert list(stats.iteration) == [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4
        restored = TrainingHistory()
        restored.load_state_dict(server.history.state_dict())
        assert restored.sample_statistics.tolist() == stats.tolist()

    def test_state_holds_the_iteration_and_the_history_only(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers)
        feed_trajectory(server, tiny_solver)
        server.train_iteration()
        state = server.state_dict()
        assert set(state) == {"iteration", "history"}
        # the counters and flags older snapshots also carry are ignored
        old = dict(
            state, n_samples_received=7, uniform_flag_ids=np.array([0]), uniform_flag_values=np.array([False])
        )
        restored = make_server(tiny_solver, tiny_scalers)
        restored.load_state_dict(old)
        assert restored.iteration == 1
        assert restored.history.sample_statistics.tolist() == server.history.sample_statistics.tolist()

    def test_summary_keys(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers)
        feed_trajectory(server, tiny_solver)
        server.train_iteration()
        summary = server.summary()
        assert {"iterations", "samples_received", "final_train_loss", "steering_events"} <= set(summary)

    def test_invalid_construction(self, tiny_solver, tiny_scalers):
        with pytest.raises(ValueError):
            make_server(tiny_solver, tiny_scalers, batch_size=0)


class TestHistory:
    def test_as_arrays_and_finals(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers, with_validation=True)
        feed_trajectory(server, tiny_solver)
        for _ in range(6):
            server.train_iteration()
        train_iters, train_losses, val_iters, val_losses = server.history.as_arrays()
        assert train_iters.shape == train_losses.shape == (6,)
        assert val_iters.shape == val_losses.shape
        assert server.history.final_train_loss() == train_losses[-1]
        assert server.history.final_validation_loss() == val_losses[-1]

    def test_empty_history_nan_finals(self, tiny_solver, tiny_scalers):
        server = make_server(tiny_solver, tiny_scalers)
        assert np.isnan(server.history.final_train_loss())
        assert np.isnan(server.history.final_validation_loss())
