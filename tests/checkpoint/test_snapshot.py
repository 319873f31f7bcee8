"""The ``SessionSnapshot`` on-disk format: encoding, atomicity, retention."""

from __future__ import annotations

import gc
import json
import mmap
import os
import weakref
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import TrainingSession
from repro.checkpoint import snapshot
from repro.experiments.base import base_config
from repro.service import ServiceClient, StudyService
from repro.solvers.heat2d import Heat2DConfig
from repro.workflow.study import StudyRunner
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

    def test_small_arrays_share_one_pool_per_dtype(self):
        state = {
            "ids": np.arange(3),
            "scalar": np.array(2.5),
            "mixed": [np.ones(2), np.arange(4.0).reshape(2, 2)],
            "flags": np.zeros(0, dtype=bool),
        }
        encoded, arrays = encode_state(state)
        assert sorted(arrays) == ["a00000", "pool-bool", "pool-float64", "pool-int64"]
        assert encoded["scalar"] == {"__ndarray__": ["pool-float64", 0, []]}
        assert encoded["mixed"] == [
            {"__ndarray__": ["pool-float64", 1, [2]]},
            {"__ndarray__": "a00000"},
        ]
        np.testing.assert_array_equal(arrays["pool-float64"], [2.5, 1.0, 1.0])
        decoded = decode_state(json.loads(json.dumps(encoded)), arrays)
        assert decoded["scalar"].shape == () and decoded["scalar"] == 2.5
        assert decoded["flags"].dtype == bool and decoded["flags"].shape == (0,)
        np.testing.assert_array_equal(decoded["ids"], [0, 1, 2])
        # copied out of its pool, so no restored component pins the pool
        assert decoded["mixed"][0].base is None
        assert decoded["mixed"][1] is arrays["a00000"]

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

    def test_archive_has_one_member_per_pool_and_per_array_of_rank_two(self, tmp_path):
        config = replace(base_config("smoke", method="breed", seed=0), n_validation_trajectories=4)
        session = TrainingSession(config)
        while not session.controller.records or not session.reservoir.n_evicted:
            assert session.tick(), "the run ended before its first steering and eviction"
        leaves = list(_array_leaves(session.state_dict()))
        pools = {f"pool-{array.dtype.name}.npy" for array in leaves if array.ndim <= 1}
        n_large = sum(array.ndim > 1 for array in leaves)
        path = save_session(session, tmp_path)
        with zipfile.ZipFile(path / "arrays.npz") as archive:
            names = archive.namelist()
        assert len(leaves) > 100  # tracker and launcher records: one member each in schema 1
        assert len(names) == len(pools) + n_large
        assert pools <= set(names)
        assert load_manifest(path)["n_arrays"] == len(names)

    def test_save_syncs_the_snapshot_before_the_rename_and_the_directory_after(
        self, make_config, tmp_path, monkeypatch
    ):
        session = self._session(make_config)
        events = []
        real_fsync, real_rename = os.fsync, os.rename

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def rename(source, target):
            events.append(("rename", os.fspath(target)))
            real_rename(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", rename)
        path = save_session(session, tmp_path)
        inode = lambda p: p.stat().st_ino  # noqa: E731  (a rename keeps the inode)
        assert events == [
            ("fsync", inode(path / "arrays.npz")),
            ("fsync", inode(path / "manifest.json")),
            ("fsync", inode(path)),
            ("rename", os.fspath(path)),
            ("fsync", inode(tmp_path)),
            ("fsync", inode(tmp_path / "latest.json")),
        ]

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


def _array_leaves(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for item in tree.values():
            yield from _array_leaves(item)
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _array_leaves(item)


def _buffers_left_to_the_collector(run) -> list:
    """Run ``run()`` with the collector saving its garbage; the arrays and mmaps that garbage holds.

    Arrays are not tracked by the collector, so the sweep follows every
    untracked object the garbage refers to (tuples and dicts of atoms are
    untracked too).
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        buffers = []
        seen = set()
        pending = list(gc.garbage)
        while pending:
            item = pending.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, (np.ndarray, mmap.mmap)):
                buffers.append(item)
            for referent in gc.get_referents(item):
                if isinstance(referent, (np.ndarray, mmap.mmap)) or not gc.is_tracked(referent):
                    pending.append(referent)
        return buffers
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestNoCycleHoldsASnapshotBuffer:
    """A snapshot's buffers are freed by reference counting alone, never by the collector."""

    @staticmethod
    def _spy(monkeypatch, name, arrays_of):
        """Wrap ``snapshot.<name>``; returns weak references to the arrays each call produced."""
        refs = []
        real = getattr(snapshot, name)

        def spy(*args):
            result = real(*args)
            refs.extend(weakref.ref(array) for array in arrays_of(result).values())
            return result

        monkeypatch.setattr(snapshot, name, spy)
        return refs

    def test_encoded_arrays_die_when_save_returns(self, make_config, tmp_path, monkeypatch):
        session = TrainingSession(make_config())
        for _ in range(8):
            session.tick()
        refs = self._spy(monkeypatch, "encode_state", lambda result: result[1])
        gc.disable()
        try:
            save_session(session, tmp_path)
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_loaded_arrays_die_when_restore_returns(self, make_config, tmp_path, monkeypatch):
        session = TrainingSession(make_config())
        for _ in range(8):
            session.tick()
        assert not session.pending_blocks  # pending rows would rightly keep viewing theirs
        path = save_session(session, tmp_path)
        refs = self._spy(monkeypatch, "_load_arrays", lambda result: result)
        gc.disable()
        try:
            restored = restore_session(path)
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert restored.n_ticks == session.n_ticks

    def test_pooled_save_and_restore_leave_no_buffer_to_the_collector(
        self, make_config, tmp_path, monkeypatch
    ):
        # Solver workers share buffers with mmap; the collector's garbage must
        # hold none of them, nor any array.  Arrays are not tracked by the
        # collector, so the check follows every untracked object the garbage
        # refers to (tuples and dicts of atoms are untracked too).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = make_config(heat=Heat2DConfig(grid_size=64, n_timesteps=100))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            session = TrainingSession(config)
            assert session._workers is not None
            for _ in range(6):
                session.tick()
            restored = restore_session(save_session(session, tmp_path))
            assert restored._workers is not None
            restored.run()
            session.close()
            restored.close()
            del session, restored
            gc.collect()
            buffers = []
            seen = set()
            pending = list(gc.garbage)
            while pending:
                item = pending.pop()
                if id(item) in seen:
                    continue
                seen.add(id(item))
                if isinstance(item, (np.ndarray, mmap.mmap)):
                    buffers.append(item)
                for referent in gc.get_referents(item):
                    if isinstance(referent, (np.ndarray, mmap.mmap)) or not gc.is_tracked(referent):
                        pending.append(referent)
            assert buffers == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize("backend", ["serial", "process", "shm"])
    def test_a_checkpointed_study_leaves_no_buffer_to_the_collector(
        self, backend, make_config, tmp_path
    ):
        configurations = [{"method": "breed"}, {"method": "random"}]

        def run():
            runner = StudyRunner(
                base_config=make_config(), study_name="gc", backend=backend, max_workers=2
            )
            records = runner.run_all(
                configurations, checkpoint=tmp_path / "gc.runs.jsonl", checkpoint_every=10
            )
            assert len(records) == 2

        assert _buffers_left_to_the_collector(run) == []

    # serial runs the job in this process; the default forks study workers,
    # which leaves this process the driver's side to check
    @pytest.mark.parametrize("backend", ["serial", None])
    def test_a_service_job_leaves_no_buffer_to_the_collector(self, backend, make_config, tmp_path):
        config = make_config()

        def run():
            service = StudyService(tmp_path / "svc", port=0, n_workers=1, checkpoint_every=10)
            service.start()
            try:
                client = ServiceClient(service.url, timeout=30.0)
                job = client.submit("gc", config.to_dict(), [{"hidden_size": 8}], backend=backend)
                assert client.wait(job["id"], timeout=120.0)["state"] == "done"
            finally:
                service.stop()

        assert _buffers_left_to_the_collector(run) == []

    def test_the_next_put_after_a_save_writes_the_live_buffer(self, make_config, tmp_path):
        # The snapshot is written from views of the live buffer; once the save
        # returns, reference counting alone has dropped them, so the reservoir
        # writes on in place instead of copying 125 MiB at the paper preset.
        session = TrainingSession(make_config())
        for _ in range(8):
            session.tick()
        reservoir = session.reservoir
        gc.disable()
        try:
            save_session(session, tmp_path)
            buffers = id(reservoir._xs), id(reservoir._ys)  # ids: holding them would force a copy
            received = reservoir.n_received
            session.tick()
            assert reservoir.n_received > received  # the tick stored rows
            assert (id(reservoir._xs), id(reservoir._ys)) == buffers
        finally:
            gc.enable()

    def test_a_full_reservoir_is_restored_into_the_loaded_rows(
        self, make_config, tmp_path, monkeypatch
    ):
        session = TrainingSession(make_config(reservoir_capacity=24, reservoir_watermark=12))
        for _ in range(40):
            if len(session.reservoir) == 24:
                break
            session.tick()
        assert session.reservoir.is_full
        path = save_session(session, tmp_path)
        owners = []  # ids of the memory the loaded members view
        real = snapshot._load_arrays

        def spy(*args):
            arrays = real(*args)
            owners.extend(id(array.base) for array in arrays.values() if array.base is not None)
            return arrays

        monkeypatch.setattr(snapshot, "_load_arrays", spy)
        restored = restore_session(path)
        reservoir = restored.reservoir
        assert id(reservoir._xs.base) in owners and id(reservoir._ys.base) in owners
        buffers = id(reservoir._xs), id(reservoir._ys)
        received = reservoir.n_received
        for _ in range(20):
            if reservoir.n_received > received:
                break
            restored.tick()
        assert reservoir.n_received > received
        assert (id(reservoir._xs), id(reservoir._ys)) == buffers  # nothing else holds the rows
        assert restored.state_dict()["reservoir"]["n_entries"] == 24


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
