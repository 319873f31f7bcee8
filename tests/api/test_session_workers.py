"""Where the solver runs changes no output bit: pooled vs inline sessions.

Each side of the selection is forced by what the code observes —
``os.sched_getaffinity`` — never by an option: two CPUs and a trajectory of
at least ``MIN_TRAJECTORY_FLOATS`` floats fork solver workers, one CPU keeps
the solver on the training process.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.api.session import OnlineTrainingResult, TrainingSession
from repro.breed.samplers import BreedConfig
from repro.checkpoint import restore_session, save_session
from repro.api import OnlineTrainingConfig
from repro.melissa.launcher import PENDING, Launcher
from repro.melissa.workers import MIN_TRAJECTORY_FLOATS, SolverWorkerError, SolverWorkers
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.validation import _sum_share, validation_loss

#: short runs on trajectories big enough for the size rule: the paper's own
#: heat2d grid, heat1d, and one 1-D nonlinear workload
SHAPES = {
    "heat2d": dict(heat=Heat2DConfig(grid_size=64, n_timesteps=100)),
    "heat1d": dict(heat=Heat2DConfig(grid_size=512, n_timesteps=63)),
    # explicit scheme: the time step that keeps 128 points inside the CFL limit
    "burgers": dict(heat=Heat2DConfig(grid_size=128, n_timesteps=255), workload_options={"dt": 0.002}),
}


def make_config(workload: str, method: str, **overrides) -> OnlineTrainingConfig:
    fields = dict(
        workload=workload,
        method=method,
        breed=BreedConfig(sigma=25.0, period=5, window=20, r_start=0.5, r_end=0.7, r_breakpoint=2),
        n_simulations=16,
        hidden_size=8,
        n_hidden_layers=1,
        batch_size=16,
        job_limit=4,
        timesteps_per_tick=3,
        train_iterations_per_tick=2,
        reservoir_capacity=200,
        reservoir_watermark=30,
        max_iterations=24,
        validation_period=8,
        n_validation_trajectories=3,
        seed=11,
        **SHAPES[workload],
    )
    fields.update(overrides)
    return OnlineTrainingConfig(**fields)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process believes it may use."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


def session_on(cpus, n_cpus: int, config: OnlineTrainingConfig, **kwargs) -> TrainingSession:
    cpus(n_cpus)
    session = TrainingSession(config, **kwargs)
    assert (session._workers is not None) == (n_cpus > 1)
    return session


def assert_same_run(a: OnlineTrainingResult, b: OnlineTrainingResult) -> None:
    assert a.history.train_iterations == b.history.train_iterations
    assert a.history.train_losses == b.history.train_losses
    assert a.history.validation_iterations == b.history.validation_iterations
    assert a.history.validation_losses == b.history.validation_losses
    assert np.array_equal(a.executed_parameters, b.executed_parameters)
    assert a.parameter_sources == b.parameter_sources
    assert a.transport_bytes == b.transport_bytes
    assert a.n_ticks == b.n_ticks
    assert a.launcher_summary == b.launcher_summary
    assert a.reservoir_summary == b.reservoir_summary
    assert [(r.iteration, r.simulation_ids, r.n_applied) for r in a.steering_records] == [
        (r.iteration, r.simulation_ids, r.n_applied) for r in b.steering_records
    ]
    weights_a, weights_b = a.model.state_dict(), b.model.state_dict()
    assert weights_a.keys() == weights_b.keys()
    assert all(np.array_equal(weights_a[key], weights_b[key]) for key in weights_a)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


#: 21 trajectories × 101 rows: three 1024-row validation batches, split across the workers
SPLIT = dict(n_validation_trajectories=21)


@pytest.fixture
def dispatched(monkeypatch):
    """Names of the functions sessions hand to their solver workers (``start``, which ``run`` calls)."""
    names = []
    start = SolverWorkers.start

    def recorded(self, function, shares, *args, **kwargs):
        names.append(function.__name__)
        return start(self, function, shares, *args, **kwargs)

    monkeypatch.setattr(SolverWorkers, "start", recorded)
    return names


@pytest.mark.parametrize(
    "workload, overrides",
    [(name, {}) for name in sorted(SHAPES)] + [("heat2d", SPLIT)],
    ids=[*sorted(SHAPES), "heat2d-split-validation"],
)
@pytest.mark.parametrize("method", ["breed", "random"])
def test_pooled_run_equals_inline_run(workload, overrides, method, cpus, dispatched):
    config = make_config(workload, method, **overrides)
    solver = config.build_workload().build_solver()
    assert solver.field_size * (solver.n_timesteps + 1) >= MIN_TRAJECTORY_FLOATS

    pooled_session = session_on(cpus, 2, config)
    pooled = pooled_session.run()
    assert no_child_left()
    # the build, then one evaluation on the workers every 8 of 24 iterations,
    # the last of which the final point reuses (a one-batch set as one share)
    assert dispatched == ["_fill_share"] + ["_sum_share"] * 3
    inline_session = session_on(cpus, 1, config)
    inline = inline_session.run()

    assert_same_run(pooled, inline)
    assert pooled.history.train_iterations[-1] == config.max_iterations
    assert len(pooled.history.validation_losses) == 4
    if method == "breed":
        assert pooled.steering_records  # the comparison covers steered parameters
    assert np.array_equal(pooled_session.validation_set.inputs, inline_session.validation_set.inputs)
    assert np.array_equal(pooled_session.validation_set.targets, inline_session.validation_set.targets)


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["inline", "pooled"])
def test_steering_touches_only_simulations_never_observed(n_cpus, cpus, monkeypatch):
    """Every steered simulation is pending and has no tracker statistics yet:
    the tracker can leave a simulation's parameters to the launcher and
    never has statistics to discard when they change."""
    config = make_config("heat1d", "breed", n_simulations=32, timesteps_per_tick=32, max_iterations=60)
    session = session_on(cpus, n_cpus, config)
    steered = []
    update = Launcher.update_parameters

    def checked(launcher, simulation_id, parameters, source):
        assert launcher.state[simulation_id] == PENDING
        assert simulation_id not in session.sampler.tracker.observed_ids()
        steered.append(simulation_id)
        update(launcher, simulation_id, parameters, source)

    monkeypatch.setattr(Launcher, "update_parameters", checked)
    result = session.run()
    assert steered == [sim_id for record in result.steering_records for sim_id in record.simulation_ids]
    # steered simulations went on to run and be trained on, under their new parameters
    assert set(steered) & set(session.sampler.tracker.observed_ids())


@pytest.mark.parametrize(
    "saved_on, restored_on", [(2, 1), (1, 2)], ids=["pooled-to-inline", "inline-to-pooled"]
)
def test_snapshot_crosses_the_selection(saved_on, restored_on, cpus, tmp_path):
    config = make_config("heat2d", "breed")
    live = session_on(cpus, saved_on, config)
    try:
        for _ in range(7):  # mid-run: clients part-way through their trajectories
            live.tick()
        assert any(
            0 < client.n_produced <= 100 and not client.finished
            for client in live.launcher.running_clients()
        )
        snapshot = save_session(live, tmp_path)
        reference = live.run()
    finally:
        live.close()

    cpus(restored_on)
    restored_session = restore_session(snapshot, config=config)
    assert (restored_session._workers is not None) == (restored_on > 1)
    assert_same_run(restored_session.run(), reference)
    assert no_child_left()


def test_restoring_into_a_running_pooled_session_hands_the_rings_back(cpus, tmp_path):
    """``load_state_dict`` on a live session re-dispatches every running client."""
    config = make_config("heat2d", "random")
    reference = session_on(cpus, 1, config).run()
    session = session_on(cpus, 2, config)
    for _ in range(5):
        session.tick()
    state = session.state_dict()
    for _ in range(4):
        session.tick()
    session.load_state_dict(state)  # back to tick 5: job_limit rings, all re-used
    assert_same_run(session.run(), reference)


@pytest.mark.parametrize("overrides", [{}, SPLIT], ids=["one-batch", "split-validation"])
def test_shared_inputs_given_to_a_pooled_session_are_used_as_they_are(overrides, cpus, dispatched):
    config = make_config("heat2d", "breed", **overrides)
    built = session_on(cpus, 1, config)
    shared = session_on(cpus, 2, config, solver=built.solver, validation_set=built.validation_set)
    assert shared.validation_set is built.validation_set
    assert shared._workers._arena.size == 0  # nothing reserved for a set that exists
    assert shared._workers.handle(built.validation_set.targets) is not None  # inherited at the fork
    assert_same_run(shared.run(), built.run())
    assert dispatched == ["_sum_share"] * 3


def test_result_after_close_evaluates_inline_with_the_live_value(cpus, dispatched):
    # 20 iterations: the final point is not the last periodic one (16) again
    session = session_on(cpus, 2, make_config("heat2d", "random", max_iterations=20, **SPLIT))
    while session.tick():
        pass
    live = validation_loss(session.model, session.validation_set, workers=session._workers)
    assert dispatched.count("_sum_share") == 3  # two periodic points, then the live value
    session.close()
    assert session.result().final_validation_loss == live
    assert dispatched.count("_sum_share") == 3  # the final point ran on this process
    assert no_child_left()


class TestLifecycle:
    def test_no_child_is_left_when_run_raises(self, cpus):
        session = session_on(cpus, 2, make_config("heat2d", "random"))
        pids = session._workers.pids

        def explode(_):
            raise RuntimeError("hook failed")

        session.add_hook("tick", explode)
        with pytest.raises(RuntimeError, match="hook failed"):
            session.run()
        assert session._workers.pids == [] and len(pids) == 2
        assert no_child_left()

    def test_no_child_is_left_when_the_constructor_raises(self, cpus, monkeypatch):
        import repro.api.session as session_module

        def explode(*args, workers=None, **kwargs):
            assert workers is not None and len(workers.pids) == 2
            raise RuntimeError("validation set failed")

        monkeypatch.setattr(session_module, "validation_set_for_workload", explode)
        cpus(2)
        with pytest.raises(RuntimeError, match="validation set failed"):
            TrainingSession(make_config("heat2d", "random"))
        assert no_child_left()

    def test_close_is_idempotent_and_a_closed_session_still_reports(self, cpus):
        session = session_on(cpus, 2, make_config("heat2d", "random"))
        session.tick()
        session.close()
        session.close()
        assert no_child_left()
        assert session.result().n_ticks == 1
        assert session.state_dict()["n_ticks"] == 1
        with pytest.raises(SolverWorkerError, match="gone"):
            session.tick()

    def test_a_killed_worker_fails_the_session_by_name(self, cpus):
        session = session_on(cpus, 2, make_config("heat2d", "random", max_iterations=10_000))
        session.tick()
        os.kill(session._workers.pids[0], signal.SIGKILL)
        with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
            session.run()
        assert no_child_left()

    def test_a_worker_killed_mid_evaluation_fails_the_session_by_name(self, cpus, monkeypatch):
        import repro.surrogate.validation as validation_module

        session = session_on(cpus, 2, make_config("heat2d", "random", **SPLIT))
        # resolved by name when the share is dispatched, so the workers run it
        monkeypatch.setattr(validation_module, "_sum_share", _killed_mid_share)
        with pytest.raises(SolverWorkerError, match="was killed by signal 9 mid-work"):
            session.run()
        assert 8 <= session.server.iteration < 16  # after the first point, before the next
        assert no_child_left()


def _killed_mid_share(solver, view, pickled_model, inputs_handle, targets_handle, starts, batch_size):
    view(inputs_handle)[starts[0]]  # the set is there; then the worker dies
    os.kill(os.getpid(), signal.SIGKILL)


def _slow_sum_share(*share):
    """``_sum_share`` at a fifth of a second a batch: its point stays pending for ticks."""
    for batch in _sum_share(*share):
        time.sleep(0.2)
        yield batch


@pytest.fixture
def slow_points(monkeypatch):
    import repro.surrogate.validation as validation_module

    # resolved by name when the share is dispatched, so the workers run it
    monkeypatch.setattr(validation_module, "_sum_share", _slow_sum_share)


def tick_until_pending(session: TrainingSession) -> int:
    """Tick until a validation point is in flight on the workers; its iteration."""
    while session.server._pending is None:
        assert session.tick()
    return session.server._pending[0]


class TestPendingPoint:
    """A validation point the workers evaluate while the session trains on."""

    def test_a_snapshot_taken_while_a_point_is_pending_restores_equal_to_live(self, cpus, tmp_path):
        config = make_config("heat2d", "breed", **SPLIT)
        live = session_on(cpus, 2, config)
        try:
            assert tick_until_pending(live) == 8
            snapshot = save_session(live, tmp_path)
            assert live.server._pending is None  # finished into the snapshot's history
            reference = live.run()
        finally:
            live.close()
        restored = restore_session(snapshot, config=config)
        assert restored.server.history.validation_iterations == [8]
        assert_same_run(restored.run(), reference)
        assert no_child_left()

    def test_a_point_is_recorded_and_hooked_once_its_shares_replied_while_training_goes_on(
        self, cpus, slow_points
    ):
        session = session_on(cpus, 2, make_config("heat2d", "random", **SPLIT))
        fired = []
        session.add_hook("validation", lambda s, it, loss: fired.append((it, s.server.iteration)))
        try:
            assert tick_until_pending(session) == 8
            while not fired and session.server.iteration < 16:
                time.sleep(0.6)  # share 0 is two 0.2 s batches, share 1 one
                session.tick()  # polls: dispatches share 1, then records the point
        finally:
            session.close()
        assert len(fired) == 1 and fired[0][0] == 8
        assert 8 < fired[0][1] < 16  # fired iterations later, before the next point

    def test_close_with_a_point_pending_leaves_no_child_and_result_reports_it(self, cpus):
        config = make_config("heat2d", "random", **SPLIT)
        session = session_on(cpus, 2, config)
        assert tick_until_pending(session) == 8
        session.close()
        assert no_child_left()
        result = session.result()
        inline = session_on(cpus, 1, config)
        for _ in range(session.n_ticks):
            inline.tick()
        expected = inline.result()
        assert result.history.validation_iterations[0] == 8
        assert result.history.validation_iterations == expected.history.validation_iterations
        assert result.history.validation_losses == expected.history.validation_losses

    def test_a_worker_killed_mid_share_fails_the_session_by_name_within_two_seconds(
        self, cpus, slow_points
    ):
        session = session_on(cpus, 2, make_config("heat2d", "random", max_iterations=10_000, **SPLIT))
        killed = []

        def kill_the_evaluating_worker(s: TrainingSession) -> None:
            if s.server._pending is not None and not killed:
                os.kill(s._workers.pids[0], signal.SIGKILL)  # worker 0 has share 0
                killed.append(time.monotonic())

        session.add_hook("tick", kill_the_evaluating_worker)
        with pytest.raises(SolverWorkerError, match="was killed by signal 9"):
            session.run()
        assert killed and time.monotonic() - killed[0] < 2.0
        assert no_child_left()

    def test_a_validation_period_shorter_than_an_evaluation_gives_the_inline_history(self, cpus):
        config = make_config("heat2d", "breed", validation_period=1, max_iterations=12, **SPLIT)
        pooled_session = session_on(cpus, 2, config)
        pooled = pooled_session.run()
        assert pooled_session.server.validation_wait_seconds > 0  # a new point waited for the last
        assert pooled.history.validation_iterations == [*range(1, 13), 12]
        assert_same_run(pooled, session_on(cpus, 1, config).run())


class TestObservability:
    @pytest.fixture(autouse=True)
    def telemetry_reset(self):
        yield
        telemetry.disable()

    def test_gauge_and_wait_counter_leave_the_outputs_alone(self, cpus):
        config = make_config("heat2d", "breed")
        dark = session_on(cpus, 2, config).run()

        telemetry.configure(metrics=True)
        lit = session_on(cpus, 2, config).run()
        assert_same_run(lit, dark)
        text = telemetry.metrics().render_prometheus()
        assert "repro_solver_workers 2" in text
        counters = telemetry.metrics().counter_values()
        assert 0.0 <= counters.get("repro_solver_wait_seconds_total", 0.0) < 60.0
        assert "# TYPE repro_solver_wait_seconds_total counter" in text

        session_on(cpus, 1, config)
        assert "repro_solver_workers 0" in telemetry.metrics().render_prometheus()

    def test_the_validation_wait_is_counted(self, cpus):
        telemetry.configure(metrics=True)
        config = make_config("heat2d", "random", validation_period=1, max_iterations=12, **SPLIT)
        session = session_on(cpus, 2, config)
        result = session.run()
        counters = telemetry.metrics().counter_values()
        waited = session.server.validation_wait_seconds
        assert waited > 0 and counters["repro_validation_wait_seconds_total"] == pytest.approx(waited)
        assert counters["repro_session_validations_total"] == len(result.history.validation_losses) == 13
        assert "# TYPE repro_validation_wait_seconds_total counter" in telemetry.metrics().render_prometheus()


def test_no_option_selects_the_path():
    """The selection is observed, not configured: no field, parameter or variable names it."""
    import inspect

    names = set(OnlineTrainingConfig.__dataclass_fields__) | set(
        inspect.signature(TrainingSession.__init__).parameters
    )
    assert not any("worker" in name or "inline" in name or "pool" in name for name in names)
    config = make_config("heat2d", "breed")
    assert config.digest() == replace(config).digest()
