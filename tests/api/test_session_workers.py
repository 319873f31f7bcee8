"""Where the solver runs changes no output bit: pooled vs inline sessions.

Each side of the selection is forced by what the code observes —
``os.sched_getaffinity`` — never by an option: two CPUs and a trajectory of
at least ``MIN_TRAJECTORY_FLOATS`` floats fork solver workers, one CPU keeps
the solver on the training process.
"""

from __future__ import annotations

import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.api.session import OnlineTrainingResult, TrainingSession
from repro.breed.samplers import BreedConfig
from repro.checkpoint import restore_session, save_session
from repro.api import OnlineTrainingConfig
from repro.melissa.workers import MIN_TRAJECTORY_FLOATS, SolverWorkerError, SolverWorkers
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.validation import validation_loss

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
    """Names of the functions sessions hand to their solver workers' ``run``."""
    names = []
    run = SolverWorkers.run

    def recorded(self, function, shares):
        names.append(function.__name__)
        return run(self, function, shares)

    monkeypatch.setattr(SolverWorkers, "run", recorded)
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
    # the build; with three batches also one split evaluation every 8 of 24
    # iterations and the final one (a one-batch set is evaluated inline)
    assert dispatched == ["_fill_share"] + ["_sum_share"] * (4 if overrides else 0)
    inline_session = session_on(cpus, 1, config)
    inline = inline_session.run()

    assert_same_run(pooled, inline)
    assert pooled.history.train_iterations[-1] == config.max_iterations
    assert len(pooled.history.validation_losses) == 4
    if method == "breed":
        assert pooled.steering_records  # the comparison covers steered parameters
    assert np.array_equal(pooled_session.validation_set.inputs, inline_session.validation_set.inputs)
    assert np.array_equal(pooled_session.validation_set.targets, inline_session.validation_set.targets)


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
    assert dispatched == ["_sum_share"] * (4 if overrides else 0)


def test_result_after_close_evaluates_inline_with_the_live_value(cpus, dispatched):
    session = session_on(cpus, 2, make_config("heat2d", "random", **SPLIT))
    while session.tick():
        pass
    live = validation_loss(session.model, session.validation_set, workers=session._workers)
    assert dispatched.count("_sum_share") == 4  # three periodic points, then the live value
    session.close()
    assert session.result().final_validation_loss == live
    assert dispatched.count("_sum_share") == 4  # the final point ran on this process
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
        assert session.server.iteration == 8  # the first validation point
        assert no_child_left()


def _killed_mid_share(solver, view, pickled_model, inputs_handle, targets_handle, starts, batch_size):
    view(inputs_handle)[starts[0]]  # the set is there; then the worker dies
    os.kill(os.getpid(), signal.SIGKILL)


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


def test_no_option_selects_the_path():
    """The selection is observed, not configured: no field, parameter or variable names it."""
    import inspect

    names = set(OnlineTrainingConfig.__dataclass_fields__) | set(
        inspect.signature(TrainingSession.__init__).parameters
    )
    assert not any("worker" in name or "inline" in name or "pool" in name for name in names)
    config = make_config("heat2d", "breed")
    assert config.digest() == replace(config).digest()
