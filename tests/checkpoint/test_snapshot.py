"""The ``SessionSnapshot`` on-disk format: encoding, atomicity, retention."""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.api.session import TrainingSession
from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointPolicy,
    SnapshotError,
    SnapshotMismatchError,
    decode_state,
    encode_state,
    latest_snapshot,
    list_snapshots,
    load_manifest,
    restore_session,
    resume_or_start,
    save_session,
)


class TestStateEncoding:
    def test_roundtrip_scalars_arrays_and_nesting(self):
        state = {
            "n": 3,
            "pi": 3.14159,
            "flag": True,
            "nothing": None,
            "name": "run",
            "vector": np.arange(5, dtype=np.float64),
            "nested": {"ints": np.arange(4, dtype=np.int64), "items": [1, "two", None]},
            "list_of_arrays": [np.ones(2), np.zeros((2, 3))],
        }
        encoded, arrays = encode_state(state)
        # the encoded tree must survive a JSON round trip
        encoded = json.loads(json.dumps(encoded))
        decoded = decode_state(encoded, arrays)
        assert decoded["n"] == 3 and decoded["pi"] == 3.14159
        assert decoded["flag"] is True and decoded["nothing"] is None
        np.testing.assert_array_equal(decoded["vector"], state["vector"])
        np.testing.assert_array_equal(decoded["nested"]["ints"], state["nested"]["ints"])
        np.testing.assert_array_equal(decoded["list_of_arrays"][1], np.zeros((2, 3)))

    def test_numpy_scalars_become_python_scalars(self):
        encoded, _ = encode_state({"a": np.int64(7), "b": np.float64(0.5), "c": np.bool_(True)})
        assert encoded == {"a": 7, "b": 0.5, "c": True}
        assert type(encoded["a"]) is int and type(encoded["b"]) is float

    def test_unsupported_type_names_the_path(self):
        with pytest.raises(TypeError, match=r"\$\.outer\.bad"):
            encode_state({"outer": {"bad": object()}})

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            encode_state({"outer": {3: "x"}})

    def test_reserved_sentinel_key_rejected(self):
        with pytest.raises(TypeError, match="__ndarray__"):
            encode_state({"__ndarray__": "nope"})

    def test_float_bits_survive_json(self):
        value = float(np.nextafter(0.1, 1.0))
        encoded, _ = encode_state({"x": value})
        assert json.loads(json.dumps(encoded))["x"] == value

    def test_arrays_die_with_their_last_reference(self):
        # A snapshot's arrays are copies of the session state (125 MiB of
        # reservoir at the paper preset): no reference cycle may keep them
        # alive until the cycle collector happens to run.
        array = np.zeros(4)
        alive = weakref.ref(array)
        gc.disable()
        try:
            encoded, arrays = encode_state({"reservoir": {"ys": array}})
            del array, encoded, arrays
            assert alive() is None
        finally:
            gc.enable()


class TestSnapshotDirectory:
    def _session(self, make_config, **kw) -> TrainingSession:
        session = TrainingSession(make_config(**kw))
        for _ in range(6):
            session.tick()
        return session

    def test_save_creates_manifest_and_arrays(self, make_config, tmp_path):
        session = self._session(make_config)
        path = save_session(session, tmp_path)
        assert path.name == f"step-{session.n_ticks:08d}"
        manifest = load_manifest(path)
        assert manifest["schema"] == SCHEMA_VERSION
        assert manifest["fingerprint"] == session.config.digest()
        assert manifest["n_ticks"] == session.n_ticks
        assert manifest["iteration"] == session.server.iteration
        assert (path / "arrays.npz").exists()

    def test_latest_pointer_and_scan_fallback(self, make_config, tmp_path):
        session = self._session(make_config)
        first = save_session(session, tmp_path)
        session.tick()
        second = save_session(session, tmp_path)
        assert latest_snapshot(tmp_path) == second
        (tmp_path / "latest.json").write_text("not json{")
        assert latest_snapshot(tmp_path) == second  # fallback: directory scan
        assert list_snapshots(tmp_path) == [first, second]

    def test_retention_prunes_oldest(self, make_config, tmp_path):
        session = self._session(make_config)
        for _ in range(4):
            session.tick()
            save_session(session, tmp_path, keep=2)
        snapshots = list_snapshots(tmp_path)
        assert len(snapshots) == 2
        assert latest_snapshot(tmp_path) == snapshots[-1]

    def test_save_is_idempotent_per_tick(self, make_config, tmp_path):
        session = self._session(make_config)
        first = save_session(session, tmp_path)
        again = save_session(session, tmp_path)
        assert first == again
        assert len(list_snapshots(tmp_path)) == 1

    def test_save_replaces_foreign_snapshot_at_same_tick(self, make_config, tmp_path):
        # Stale directory reuse: a leftover step-N dir from a *different*
        # configuration must be replaced, not trusted — otherwise the latest
        # pointer would advertise our fingerprint over a foreign snapshot and
        # every later restore would fail the mismatch check.
        stale = self._session(make_config, seed=1)
        save_session(stale, tmp_path)
        current = self._session(make_config, seed=2)
        assert current.n_ticks == stale.n_ticks  # same step name
        path = save_session(current, tmp_path)
        assert load_manifest(path)["fingerprint"] == current.config.digest()
        restored = restore_session(path, config=current.config)
        assert restored.n_ticks == current.n_ticks

    def test_prune_removes_stale_latest_tmp_files(self, make_config, tmp_path):
        session = self._session(make_config)
        save_session(session, tmp_path)
        orphan = tmp_path / "latest.json.tmp-99999"  # a crashed writer's leftover
        orphan.write_text("{}")
        session.tick()
        save_session(session, tmp_path, keep=2)
        assert not orphan.exists()
        assert (tmp_path / "latest.json").exists()

    def test_no_tmp_dirs_left_behind(self, make_config, tmp_path):
        session = self._session(make_config)
        save_session(session, tmp_path, keep=1)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_incomplete_snapshot_is_invisible(self, make_config, tmp_path):
        session = self._session(make_config)
        save_session(session, tmp_path)
        # Simulate a torn write: a step dir without a manifest.
        torn = tmp_path / "step-99999999"
        torn.mkdir()
        assert latest_snapshot(tmp_path).name != "step-99999999"

    def test_missing_directory_has_no_snapshot(self, tmp_path):
        assert latest_snapshot(tmp_path / "absent") is None
        assert list_snapshots(tmp_path / "absent") == []

    def test_compressed_snapshot_is_no_larger_than_plain(self, make_config, tmp_path):
        session = self._session(make_config)
        plain = save_session(session, tmp_path / "plain")
        compressed = save_session(session, tmp_path / "compressed", compressed=True)
        size = lambda root: sum(f.stat().st_size for f in root.rglob("*") if f.is_file())  # noqa: E731
        assert size(compressed) <= size(plain)
        assert restore_session(compressed).n_ticks == session.n_ticks


class TestRestore:
    def test_restore_requires_matching_fingerprint(self, make_config, tmp_path):
        session = TrainingSession(make_config(seed=1))
        for _ in range(4):
            session.tick()
        path = save_session(session, tmp_path)
        with pytest.raises(SnapshotMismatchError):
            restore_session(path, config=make_config(seed=2))

    def test_restore_uses_embedded_config_when_unspecified(self, make_config, tmp_path):
        config = make_config(seed=9, workload="analytic")
        session = TrainingSession(config)
        for _ in range(4):
            session.tick()
        path = save_session(session, tmp_path)
        restored = restore_session(path)
        assert restored.config == config
        assert restored.n_ticks == session.n_ticks

    def test_restore_rejects_unknown_schema(self, make_config, tmp_path):
        session = TrainingSession(make_config())
        session.tick()
        path = save_session(session, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema"] = SCHEMA_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="schema version"):
            restore_session(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: b"",
            lambda data: b"not an archive",
            lambda data: data[: len(data) // 2],
            lambda data: data[:-200] + bytes(b ^ 0xFF for b in data[-200:-190]) + data[-190:],
        ],
        ids=["empty", "not-an-archive", "truncated", "flipped-bytes"],
    )
    def test_restore_unreadable_arrays_rejected(self, make_config, tmp_path, damage):
        session = TrainingSession(make_config())
        session.tick()
        path = save_session(session, tmp_path)
        archive = path / "arrays.npz"
        archive.write_bytes(damage(archive.read_bytes()))
        with pytest.raises(SnapshotError, match="arrays.npz"):
            restore_session(path)

    def test_restore_missing_arrays_rejected(self, make_config, tmp_path):
        session = TrainingSession(make_config())
        session.tick()
        path = save_session(session, tmp_path)
        (path / "arrays.npz").unlink()
        with pytest.raises(SnapshotError, match="arrays.npz"):
            restore_session(path)


class TestResumeOrStart:
    def test_starts_fresh_without_snapshots(self, make_config, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path / "empty"))
        session = resume_or_start(config)
        assert session.n_ticks == 0

    def test_resumes_latest_matching_snapshot(self, make_config, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path))
        session = TrainingSession(config)
        for _ in range(5):
            session.tick()
        save_session(session, tmp_path)
        resumed = resume_or_start(config)
        assert resumed.n_ticks == 5

    def test_mismatching_snapshot_starts_fresh(self, make_config, tmp_path, caplog):
        stale = TrainingSession(make_config(seed=1, checkpoint_dir=str(tmp_path)))
        stale.tick()
        save_session(stale, tmp_path)
        config = make_config(seed=2, checkpoint_dir=str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            session = resume_or_start(config)
        assert session.n_ticks == 0
        assert "different configuration" in caplog.text

    def test_foreign_newest_snapshot_falls_back_to_an_older_match(
        self, make_config, tmp_path, caplog
    ):
        config = make_config(seed=2, checkpoint_dir=str(tmp_path))
        ours = TrainingSession(config)
        for _ in range(3):
            ours.tick()
        save_session(ours, tmp_path)
        stale = TrainingSession(make_config(seed=1))
        for _ in range(6):
            stale.tick()
        save_session(stale, tmp_path)  # newest by name and by pointer
        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            session = resume_or_start(config)
        assert session.n_ticks == 3
        assert caplog.text.count("different configuration") == 1

    def test_corrupt_newest_manifest_falls_back(self, make_config, tmp_path, caplog):
        config = make_config(checkpoint_dir=str(tmp_path))
        session = TrainingSession(config)
        for _ in range(3):
            session.tick()
        save_session(session, tmp_path)
        for _ in range(2):
            session.tick()
        newest = save_session(session, tmp_path)
        (newest / "manifest.json").write_text("{ torn")
        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            resumed = resume_or_start(config)
        assert resumed.n_ticks == 3
        assert newest.name in caplog.text and "corrupt" in caplog.text

    def test_latest_pointer_target_is_tried_before_newer_names(
        self, make_config, tmp_path, caplog
    ):
        # Stale directory reuse: a foreign run left higher-numbered snapshots,
        # and this run's save moved the pointer to its own lower tick.
        foreign = TrainingSession(make_config(seed=1))
        for _ in range(6):
            foreign.tick()
        save_session(foreign, tmp_path)
        config = make_config(seed=2, checkpoint_dir=str(tmp_path))
        ours = TrainingSession(config)
        for _ in range(2):
            ours.tick()
        save_session(ours, tmp_path)
        assert latest_snapshot(tmp_path).name == "step-00000002"
        with caplog.at_level("WARNING", logger="repro.checkpoint"):
            assert resume_or_start(config).n_ticks == 2
        assert caplog.text == ""  # the foreign step-00000006 was never tried

    def test_manifest_names_the_configured_workload(self, make_config, tmp_path):
        session = TrainingSession(make_config(workload="heat1d"))
        session.tick()
        assert session.workload_name == "heat1d"
        assert load_manifest(save_session(session, tmp_path))["workload"] == "heat1d"


class TestPolicy:
    def test_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(directory=tmp_path, every_n_batches=0)  # no period at all
        with pytest.raises(ValueError, match="every_n_batches"):
            CheckpointPolicy(directory=tmp_path, every_n_batches=-3)
        with pytest.raises(ValueError):
            CheckpointPolicy(directory=tmp_path, every_n_batches=5, keep=0)

    def test_nothing_is_saved_before_the_first_batch_period(self, make_config, tmp_path):
        # The period counts training batches: while the reservoir fills below
        # its watermark no batch runs, so no snapshot is written.
        session = TrainingSession(make_config(reservoir_watermark=120))
        policy = CheckpointPolicy(directory=tmp_path, every_n_batches=1).attach(session)
        for _ in range(5):
            session.tick()
        assert session.server.iteration == 0
        assert policy.n_saved == 0 and list_snapshots(tmp_path) == []

    def test_policy_snapshots_on_batch_period(self, make_config, tmp_path):
        session = TrainingSession(make_config())
        policy = CheckpointPolicy(directory=tmp_path, every_n_batches=10).attach(session)
        session.run()
        assert policy.n_saved >= 2
        assert latest_snapshot(tmp_path) == policy.last_path
        assert len(list_snapshots(tmp_path)) <= policy.keep

    def test_attached_policy_does_not_resave_restored_state(self, make_config, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every=10)
        session = TrainingSession(config)
        for _ in range(8):
            session.tick()
        save_session(session, tmp_path)
        restored = resume_or_start(config)
        policy = CheckpointPolicy(directory=tmp_path, every_n_batches=10).attach(restored)
        assert not policy.should_save(restored)

    @pytest.mark.parametrize("every", [10, 100])
    def test_snapshotting_leaves_the_run_unchanged(self, every, tmp_path):
        """Snapshots are an observer: every 10 or every 100 batches, same history."""
        from dataclasses import replace

        from repro.experiments.base import base_config

        config = replace(
            base_config("smoke", method="breed", seed=0),
            n_simulations=32,
            max_iterations=200,
            n_validation_trajectories=4,
        )
        reference = TrainingSession(config).run()
        observed = TrainingSession(
            replace(config, checkpoint_dir=str(tmp_path), checkpoint_every=every)
        ).run()
        assert list_snapshots(tmp_path)
        assert observed.history.train_losses == reference.history.train_losses
        assert observed.history.validation_losses == reference.history.validation_losses

    def test_session_run_attaches_policy_from_config(self, make_config, tmp_path):
        config = make_config(
            checkpoint_dir=str(tmp_path / "auto"), checkpoint_every=10, checkpoint_keep=2
        )
        TrainingSession(config).run()
        snapshots = list_snapshots(tmp_path / "auto")
        assert 1 <= len(snapshots) <= 2
