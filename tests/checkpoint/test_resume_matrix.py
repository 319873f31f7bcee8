"""The headline guarantee: kill-and-resume is *bit-identical*.

A run interrupted at an arbitrary tick and restored from its snapshot must
reproduce the uninterrupted run's metrics and series bit-for-bit, across
every registered workload — the heat family (heat2d / heat1d / analytic) and
the multi-physics family (advection1d / advection2d / burgers / fisher) —
and steering samplers (breed / random).  Wall-clock quantities (steering
seconds) are measurement, not state, and are the only exclusion.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api.session import OnlineTrainingResult, TrainingSession
from repro.checkpoint import (
    CheckpointPolicy,
    list_snapshots,
    restore_session,
    resume_or_start,
    save_session,
)
from repro.melissa.reservoir import Reservoir


def _drive_to_completion(session: TrainingSession) -> OnlineTrainingResult:
    while session.n_ticks < session.config.max_ticks:
        if not session.tick():
            break
    return session.result()


def assert_bit_identical(resumed: OnlineTrainingResult, reference: OnlineTrainingResult) -> None:
    assert resumed.history.train_losses == reference.history.train_losses
    assert resumed.history.train_iterations == reference.history.train_iterations
    assert resumed.history.validation_losses == reference.history.validation_losses
    assert resumed.history.validation_iterations == reference.history.validation_iterations
    np.testing.assert_array_equal(resumed.executed_parameters, reference.executed_parameters)
    assert resumed.parameter_sources == reference.parameter_sources
    assert resumed.n_ticks == reference.n_ticks
    assert resumed.method == reference.method
    assert resumed.workload == reference.workload
    assert resumed.transport_bytes == reference.transport_bytes
    assert resumed.transport_dropped == reference.transport_dropped
    assert resumed.launcher_summary == reference.launcher_summary
    assert resumed.reservoir_summary == reference.reservoir_summary
    assert [
        (r.iteration, r.resampling_index, r.simulation_ids, r.sources, r.n_requested, r.n_applied)
        for r in resumed.steering_records
    ] == [
        (r.iteration, r.resampling_index, r.simulation_ids, r.sources, r.n_requested, r.n_applied)
        for r in reference.steering_records
    ]
    # model weights: the final surrogate must be the same network
    for key, value in reference.model.state_dict().items():
        np.testing.assert_array_equal(resumed.model.state_dict()[key], value)


@pytest.mark.parametrize(
    "workload",
    ["heat2d", "heat1d", "analytic", "advection1d", "advection2d", "burgers", "fisher"],
)
@pytest.mark.parametrize("method", ["breed", "random"])
def test_kill_and_resume_matrix(workload, method, make_config, tmp_path):
    config = make_config(workload=workload, method=method, seed=7)
    reference = TrainingSession(config).run()

    killed = TrainingSession(config)
    for _ in range(9):  # die mid-run, well past the watermark
        killed.tick()
    snapshot = save_session(killed, tmp_path)
    del killed

    resumed_session = restore_session(snapshot)
    resumed = _drive_to_completion(resumed_session)
    assert_bit_identical(resumed, reference)


@pytest.mark.parametrize("kill_tick", [1, 5, 14])
def test_arbitrary_kill_points(kill_tick, make_config, tmp_path):
    config = make_config(workload="heat2d", method="breed", seed=3)
    reference = TrainingSession(config).run()

    killed = TrainingSession(config)
    for _ in range(kill_tick):
        if not killed.tick():
            break
    snapshot = save_session(killed, tmp_path)
    resumed = _drive_to_completion(restore_session(snapshot))
    assert_bit_identical(resumed, reference)


def test_double_interruption(make_config, tmp_path):
    """Two successive crashes: snapshot → resume → snapshot → resume."""
    config = make_config(seed=11)
    reference = TrainingSession(config).run()

    first = TrainingSession(config)
    for _ in range(4):
        first.tick()
    resumed_once = restore_session(save_session(first, tmp_path / "a"))
    for _ in range(5):
        resumed_once.tick()
    resumed_twice = restore_session(save_session(resumed_once, tmp_path / "b"))
    assert_bit_identical(_drive_to_completion(resumed_twice), reference)


def test_double_interruption_through_an_adopted_buffer(make_config, tmp_path, monkeypatch):
    """Restore a full reservoir, tick, save, restore again, finish: the live run's bits.

    The first restore adopts the loaded rows as the reservoir's buffer; the
    ticks after it write into that buffer, and the second snapshot is
    written from it.
    """
    config = make_config(seed=11, reservoir_capacity=24, reservoir_watermark=12)
    reference = TrainingSession(config).run()

    first = TrainingSession(config)
    while not first.reservoir.is_full:
        assert first.tick()
    for _ in range(3):  # evictions under way before the first kill
        first.tick()
    allocations = []
    allocate = Reservoir._allocate
    monkeypatch.setattr(
        Reservoir, "_allocate", lambda self, *dims: allocations.append(dims) or allocate(self, *dims)
    )
    resumed_once = restore_session(save_session(first, tmp_path / "a"))
    del first
    evicted = resumed_once.reservoir.n_evicted
    for _ in range(5):
        resumed_once.tick()
    assert resumed_once.reservoir.n_evicted > evicted  # rows written into the adopted buffer
    resumed_twice = restore_session(save_session(resumed_once, tmp_path / "b"))
    assert allocations == []  # both restores adopted the loaded rows
    assert_bit_identical(_drive_to_completion(resumed_twice), reference)


def test_a_kept_state_survives_evictions_and_rewinds_the_session(make_config):
    """``state_dict()`` exports the reservoir's live rows; later writes must not reach them."""
    config = make_config(seed=11, reservoir_capacity=24, reservoir_watermark=12)
    reference = TrainingSession(config).run()

    session = TrainingSession(config)
    while not session.reservoir.is_full:
        assert session.tick()
    state = session.state_dict()
    rows = session.state_dict()["reservoir"]["ys"][5:9]  # a slice outliving its own tree
    expected, expected_rows = copy.deepcopy(state), rows.copy()
    evicted = session.reservoir.n_evicted
    for _ in range(10):
        session.tick()
    assert session.reservoir.n_evicted > evicted  # rows were overwritten in the buffer
    for key in ("xs", "ys", "simulation_ids", "timesteps", "seen_counts"):
        np.testing.assert_array_equal(state["reservoir"][key], expected["reservoir"][key])
    np.testing.assert_array_equal(rows, expected_rows)
    session.load_state_dict(state)
    assert_bit_identical(_drive_to_completion(session), reference)


def test_policy_driven_crash_resume(make_config, tmp_path):
    """End-to-end through the periodic policy and ``resume_or_start``."""
    config = make_config(seed=13, checkpoint_dir=str(tmp_path), checkpoint_every=8)
    reference = TrainingSession(make_config(seed=13)).run()

    class SimulatedCrash(RuntimeError):
        pass

    session = TrainingSession(config)
    policy = CheckpointPolicy(directory=tmp_path, every_n_batches=8).attach(session)

    def crash(s: TrainingSession) -> None:
        if s.server.iteration >= 30:
            raise SimulatedCrash

    session.on_tick.append(crash)
    with pytest.raises(SimulatedCrash):
        session.run()
    assert policy.n_saved >= 1
    del session

    resumed_session = resume_or_start(config)
    assert 0 < resumed_session.server.iteration < config.max_iterations
    resumed = _drive_to_completion(resumed_session)
    assert_bit_identical(resumed, reference)


def test_restore_at_final_tick_adds_no_extra_tick(make_config, tmp_path):
    """A snapshot taken at the run's terminal tick resumes to the same end."""
    config = make_config(seed=19)
    reference = TrainingSession(config).run()

    finished = TrainingSession(config)
    while finished.tick():
        pass
    assert finished.n_ticks == reference.n_ticks
    snapshot = save_session(finished, tmp_path)
    resumed_session = restore_session(snapshot)
    resumed = resumed_session.run()  # must terminate without another tick
    assert_bit_identical(resumed, reference)


def test_sample_statistics_survive_resume(make_config, tmp_path):
    """record_sample_statistics=True (the Fig. 6 payload) also resumes exactly."""
    config = make_config(seed=17, record_sample_statistics=True)
    reference = TrainingSession(config).run()

    killed = TrainingSession(config)
    for _ in range(7):
        killed.tick()
    resumed = _drive_to_completion(restore_session(save_session(killed, tmp_path)))
    assert_bit_identical(resumed, reference)
    assert [
        (s.iteration, s.simulation_id, s.timestep, s.sample_loss, s.uniform, s.batch_loss, s.deviation)
        for s in resumed.history.sample_statistics
    ] == [
        (s.iteration, s.simulation_id, s.timestep, s.sample_loss, s.uniform, s.batch_loss, s.deviation)
        for s in reference.history.sample_statistics
    ]


class TestUnreadableArchive:
    """A truncated ``arrays.npz`` (a disk filled mid-copy, a torn backup) costs
    the ticks since the snapshot before it, never the run."""

    @staticmethod
    def _crashed_run(config, directory):
        class SimulatedCrash(RuntimeError):
            pass

        session = TrainingSession(config)
        CheckpointPolicy(directory=directory, every_n_batches=8).attach(session)

        def crash(s: TrainingSession) -> None:
            if s.server.iteration >= 30:
                raise SimulatedCrash

        session.on_tick.append(crash)
        with pytest.raises(SimulatedCrash):
            session.run()
        return list_snapshots(directory)

    @staticmethod
    def _truncate(snapshot):
        archive = snapshot / "arrays.npz"
        data = archive.read_bytes()
        archive.write_bytes(data[: len(data) // 2])

    def test_resume_skips_a_truncated_newest_archive(self, make_config, tmp_path, caplog):
        config = make_config(seed=13, checkpoint_dir=str(tmp_path), checkpoint_every=8)
        reference = TrainingSession(make_config(seed=13)).run()
        snapshots = self._crashed_run(config, tmp_path)
        assert len(snapshots) >= 2
        self._truncate(snapshots[-1])

        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            resumed_session = resume_or_start(config)
        skipped = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(skipped) == 1
        assert snapshots[-1].name in skipped[0].getMessage()
        assert "arrays.npz" in skipped[0].getMessage()
        assert resumed_session.n_ticks == int(snapshots[-2].name.split("-")[1])
        assert_bit_identical(resumed_session.run(), reference)

    def test_every_archive_unreadable_starts_fresh(self, make_config, tmp_path, caplog):
        config = make_config(seed=13, checkpoint_dir=str(tmp_path), checkpoint_every=8)
        snapshots = self._crashed_run(config, tmp_path)
        for snapshot in snapshots:
            self._truncate(snapshot)

        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            session = resume_or_start(config)
        assert session.n_ticks == 0 and session.server.iteration == 0
        skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(skipped) == len(snapshots)
        for snapshot, message in zip(reversed(snapshots), skipped):  # newest first
            assert snapshot.name in message

    def test_a_save_at_the_skipped_tick_rewrites_it(self, make_config, tmp_path):
        config = make_config(seed=13, checkpoint_dir=str(tmp_path), checkpoint_every=8)
        snapshots = self._crashed_run(config, tmp_path)
        skipped = snapshots[-1]
        self._truncate(skipped)

        session = resume_or_start(config)
        while session.n_ticks < int(skipped.name.split("-")[1]):
            session.tick()
        assert save_session(session, tmp_path) == skipped
        rewritten = restore_session(skipped, config=config)
        assert rewritten.n_ticks == session.n_ticks
        assert rewritten.server.iteration == session.server.iteration
        session.close()
        rewritten.close()
