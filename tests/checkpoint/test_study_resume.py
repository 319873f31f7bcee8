"""Mid-run resume through the study engine: ``run_all`` re-enters runs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import TrainingSession
from repro.checkpoint import latest_snapshot, list_snapshots, save_session
from repro.experiments.overhead import NEGLIGIBLE_SHARE, OverheadResult
from repro.workflow.executor import RunSpec, TIMING_METRICS, execute_spec
from repro.workflow.study import StudyRunner, path_safe_name


CONFIGS = [
    {"_name": "breed8", "method": "breed", "hidden_size": 8},
    {"_name": "rand8", "method": "random", "hidden_size": 8},
]


def _runner(make_config) -> StudyRunner:
    return StudyRunner(base_config=make_config(), study_name="ckpt")


def assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.name == b.name
        assert a.series == b.series
        for key, value in a.metrics.items():
            if key not in TIMING_METRICS:
                assert b.metrics[key] == value, (a.name, key)


class TestRunSpecCheckpointing:
    def test_spec_checkpoint_fields_reach_the_config(self, make_config, tmp_path):
        spec = RunSpec(
            name="r",
            config=make_config().to_dict(),
            overrides={"method": "random"},
            checkpoint_dir=str(tmp_path),
            checkpoint_every=10,
        )
        config = spec.build_config()
        assert config.checkpoint_dir == str(tmp_path)
        assert config.checkpoint_every == 10
        # plumbing is excluded from the run fingerprint
        bare = RunSpec(name="r", config=make_config().to_dict(), overrides={"method": "random"})
        assert config.digest() == bare.build_config().digest()

    def test_execute_spec_writes_and_reuses_snapshots(self, make_config, tmp_path, caplog):
        spec = RunSpec(
            name="r",
            config=make_config().to_dict(),
            overrides={},
            checkpoint_dir=str(tmp_path / "snaps"),
            checkpoint_every=10,
        )
        reference, _ = execute_spec(RunSpec(name="r", config=make_config().to_dict()))
        # first execution snapshots itself while running
        record, _ = execute_spec(spec)
        assert list_snapshots(tmp_path / "snaps")
        assert record.series == reference.series

        # a partially-run snapshot in the dir is re-entered, not restarted
        partial = TrainingSession(spec.build_config())
        for _ in range(6):
            partial.tick()
        save_session(partial, tmp_path / "snaps")
        with caplog.at_level("INFO", logger="repro.checkpoint"):
            resumed_record, _ = execute_spec(spec)
        assert "resuming session" in caplog.text
        assert resumed_record.series == reference.series


    def test_resumed_run_wall_time_covers_its_snapshotted_segment(self, make_config, tmp_path):
        # The controller carries the steering total across a restore; the
        # run's wall time must too, or the steering share of a resumed run
        # divides a whole run's steering by one segment's time.
        spec = RunSpec(
            name="r",
            config=make_config().to_dict(),
            overrides={},
            checkpoint_dir=str(tmp_path / "snaps"),
            checkpoint_every=10,
        )
        partial = TrainingSession(spec.build_config())
        while not partial.controller.records:
            assert partial.tick(), "the run ended before its first steering"
        # as if the first segment had steered for 4 s out of 100 s
        partial.controller.steering_seconds = 4.0
        partial.earlier_wall_seconds = 100.0 - (partial.wall_seconds - partial.earlier_wall_seconds)
        save_session(partial, tmp_path / "snaps")
        record, _ = execute_spec(spec)
        steering, elapsed = record.metrics["steering_seconds"], record.metrics["elapsed_seconds"]
        assert 100.0 <= elapsed < 160.0
        # the second segment steered within its own wall time
        assert 0.0 <= steering - 4.0 <= elapsed - 100.0
        assert OverheadResult.steering_share(record) < NEGLIGIBLE_SHARE  # ≈ 4 / 100

    def test_snapshots_without_a_wall_time_restore_with_none_earlier(self, make_config):
        session = TrainingSession(make_config())
        session.tick()
        state = session.state_dict()
        assert state["wall_seconds"] > 0.0
        restored = TrainingSession(make_config())
        restored.load_state_dict(state)
        assert restored.earlier_wall_seconds == state["wall_seconds"]
        del state["wall_seconds"]
        restored.load_state_dict(state)
        assert restored.earlier_wall_seconds == 0.0


class TestStudyRunnerResume:
    def test_interrupted_study_reenters_partial_runs(self, make_config, tmp_path, caplog):
        jsonl = tmp_path / "study.runs.jsonl"
        reference = _runner(make_config).run_all(CONFIGS, name_key="_name")

        # First invocation "crashed": run 0 completed (checkpointed in the
        # JSONL), run 1 died mid-run leaving only session snapshots behind.
        _runner(make_config).run_all(
            CONFIGS[:1], name_key="_name", checkpoint=jsonl, checkpoint_every=10
        )
        specs = _runner(make_config).build_specs(CONFIGS, name_key="_name")
        snapshot_root = tmp_path / "study.runs.jsonl.snapshots"
        run1_dir = StudyRunner._run_snapshot_dir(snapshot_root, 1, specs[1].name)
        partial = TrainingSession(specs[1].build_config())
        for _ in range(7):
            partial.tick()
        save_session(partial, run1_dir)

        with caplog.at_level("INFO", logger="repro.checkpoint"):
            resumed = _runner(make_config).run_all(
                CONFIGS, name_key="_name", resume=jsonl, checkpoint_every=10
            )
        assert "resuming session" in caplog.text
        assert_records_identical(reference, resumed)

    def test_completed_study_resumes_without_rerunning(self, make_config, tmp_path):
        jsonl = tmp_path / "study.runs.jsonl"
        first = _runner(make_config).run_all(
            CONFIGS, name_key="_name", checkpoint=jsonl, checkpoint_every=10
        )
        content = jsonl.read_text()
        again = _runner(make_config).run_all(
            CONFIGS, name_key="_name", resume=jsonl, checkpoint_every=10
        )
        assert jsonl.read_text() == content  # nothing re-executed or appended
        assert_records_identical(first, again)

    def test_checkpoint_every_needs_an_anchor(self, make_config):
        with pytest.raises(ValueError, match="snapshot"):
            _runner(make_config).run_all(CONFIGS, name_key="_name", checkpoint_every=10)

    def test_snapshot_free_study_unchanged(self, make_config, tmp_path):
        # Determinism contract: enabling snapshots must not change results.
        plain = _runner(make_config).run_all(CONFIGS, name_key="_name")
        snapped = _runner(make_config).run_all(
            CONFIGS,
            name_key="_name",
            checkpoint=tmp_path / "s.jsonl",
            checkpoint_every=5,
        )
        assert_records_identical(plain, snapped)

    def test_run_snapshot_dir_is_sanitised_and_stable(self, tmp_path):
        dir_a = StudyRunner._run_snapshot_dir(tmp_path, 3, "fig3b:sigma=2.5/odd name")
        assert dir_a.name == "0003-fig3b_sigma=2.5_odd_name"
        assert StudyRunner._run_snapshot_dir(tmp_path, 3, "fig3b:sigma=2.5/odd name") == dir_a


@pytest.mark.parametrize(
    "name, expected",
    [
        ("plain-run_1.0+x", "plain-run_1.0+x"),
        ("a  //b", "a_b"),
        ("\u03bb=0.1", "_=0.1"),
    ],
)
def test_path_safe_name_is_stable(name, expected):
    """Snapshot and campaign node directories are named by it: old roots must resume."""
    assert path_safe_name(name) == expected


def test_executed_parameters_identical_after_study_resume(make_config, tmp_path):
    """A run re-entered from its study snapshot ends with the same weights and parameters."""
    spec = _runner(make_config).build_specs(CONFIGS[:1], name_key="_name")[0]
    ref_record, reference = execute_spec(spec)

    run_dir = StudyRunner._run_snapshot_dir(tmp_path / "one.jsonl.snapshots", 0, spec.name)
    partial = TrainingSession(spec.build_config())
    for _ in range(5):
        partial.tick()
    save_session(partial, run_dir)

    resumed_spec = replace(spec, checkpoint_dir=str(run_dir), checkpoint_every=10)
    res_record, resumed = execute_spec(resumed_spec)
    for key, value in reference.model.state_dict().items():
        np.testing.assert_array_equal(resumed.model.state_dict()[key], value)
    assert res_record.executed_parameters == ref_record.executed_parameters
    assert res_record.parameter_sources == ref_record.parameter_sources
