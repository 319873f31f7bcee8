"""Snapshots written by earlier code restore bit-identically.

* ``BreedSampler.state_dict`` used to write ``"trigger": None`` (the state of
  an optional resampling trigger no session ever set).  It no longer writes
  the key, and ``load_state_dict`` ignores it.
* Schema-1 snapshots gave every array its own archive member; schema 2 pools
  the small ones.  ``fixtures/schema1`` holds one written by the schema-1
  writer.
* Schema-2 trees carry copies that schema 3 keeps once, with their owner,
  and schema-3 trees copies and derived fields that schema 4 no longer writes
  (:data:`RETIRED_KEYS`); loaders ignore them.  ``fixtures/schema2`` and
  ``fixtures/schema3`` hold snapshots written by the schema-2 and schema-3
  writers.
* Schema 5 writes each steering record's diagnostics; the records of older
  snapshots restore with ``None`` for them.  ``fixtures/schema4`` holds a
  snapshot written by the schema-4 writer.
* Schema 6 writes the launcher's ledger as one ``"launcher"`` subtree of
  columns; older ones wrote a ``"scheduler"`` subtree of jobs and a
  ``"launcher"`` one of per-simulation records, which still restore.
  ``fixtures/schema5`` holds a snapshot written by the schema-5 writer.
"""

from __future__ import annotations

import copy
import json
import shutil
import zipfile

import numpy as np
import pytest

from pathlib import Path

from test_resume_matrix import DIAGNOSTICS, assert_bit_identical

from repro.api.session import TrainingSession
from repro.breed.samplers import BreedConfig, BreedSampler
from repro.checkpoint import SCHEMA_VERSION, SnapshotError, load_manifest, restore_session, save_session
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.workflow.executor import RunSpec, execute_spec

SAMPLER_KEYS = {"resampling_count", "tracker"}


@pytest.fixture
def steered(make_config) -> TrainingSession:
    """A Breed session ticked past its first steering, mid-run."""
    session = TrainingSession(make_config(seed=23))
    while not session.controller.records:
        assert session.tick(), "the run ended before its first steering"
    session.tick()
    return session


def assert_same_run(a, b) -> None:
    assert a.history.train_losses == b.history.train_losses
    assert a.history.validation_losses == b.history.validation_losses
    assert np.array_equal(a.executed_parameters, b.executed_parameters)
    assert a.parameter_sources == b.parameter_sources
    assert (a.n_ticks, a.transport_bytes) == (b.n_ticks, b.transport_bytes)
    assert [(r.iteration, r.simulation_ids, r.sources) for r in a.steering_records] == [
        (r.iteration, r.simulation_ids, r.sources) for r in b.steering_records
    ]
    weights_a, weights_b = a.model.state_dict(), b.model.state_dict()
    assert all(np.array_equal(weights_a[key], weights_b[key]) for key in weights_a)


def test_sampler_state_no_longer_writes_trigger():
    sampler = BreedSampler(HEAT2D_BOUNDS)
    sampler.initial_parameters(4, np.random.default_rng(0))
    assert set(sampler.state_dict()) == SAMPLER_KEYS


def test_state_tree_with_trigger_none_restores_and_runs_bit_identical(steered, make_config):
    state = copy.deepcopy(steered.state_dict())
    assert set(state["controller"]["sampler"]) == SAMPLER_KEYS
    state["controller"]["sampler"]["trigger"] = None
    restored = TrainingSession(make_config(seed=23))
    restored.load_state_dict(state)
    assert_same_run(restored.run(), steered.run())


def test_saved_snapshot_with_trigger_none_restores_bit_identical(steered, tmp_path):
    snapshot = save_session(steered, tmp_path)
    manifest_path = snapshot / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["state"]["controller"]["sampler"]["trigger"] = None
    manifest_path.write_text(json.dumps(manifest, indent=2))
    assert_same_run(restore_session(snapshot).run(), steered.run())


#: written by the schema-1 writer from ``SCHEMA1_CONFIG`` at tick 7 (iteration 4)
SCHEMA1_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema1" / "step-00000007"
#: the smallest ``make_config`` run found whose snapshot has evictions, one
#: steering and pending rows at once: a small reservoir, a batch of 4
SCHEMA1_CONFIG = dict(
    seed=0,
    n_simulations=32,
    reservoir_capacity=30,
    reservoir_watermark=24,
    job_limit=4,
    timesteps_per_tick=2,
    batch_size=4,
    train_iterations_per_tick=1,
    breed=BreedConfig(sigma=25.0, period=4, window=30, r_start=0.5, r_end=0.7, r_breakpoint=2),
)


def test_schema1_fixture_is_what_it_claims(make_config):
    manifest = load_manifest(SCHEMA1_SNAPSHOT)
    assert manifest["schema"] == 1
    assert manifest["fingerprint"] == make_config(**SCHEMA1_CONFIG).digest()
    state = manifest["state"]
    assert state["reservoir"]["n_evicted"] > 0
    assert state["controller"]["steering_count"] == 1
    assert state["n_pending_messages"] > 0
    with zipfile.ZipFile(SCHEMA1_SNAPSHOT / "arrays.npz") as archive:
        assert len(archive.namelist()) == manifest["n_arrays"]  # one member per array


def test_schema1_snapshot_restores_and_runs_bit_identical(make_config):
    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(SCHEMA1_SNAPSHOT, config=config)
    assert restored.n_ticks == 7 and restored.pending_blocks
    assert_bit_identical(restored.run(), TrainingSession(config).run(), rows_from=5, restored=1)


def test_a_run_resumed_from_a_schema1_snapshot_publishes_no_partial_matrix(make_config, tmp_path):
    """The fixture predates the statistics columns, so the resumed run holds
    them from iteration 5 on only: its record carries no Fig. 6 matrix."""
    snapshots = tmp_path / "snapshots"
    shutil.copytree(SCHEMA1_SNAPSHOT.parent, snapshots)
    spec = RunSpec(
        name="schema1-resumed",
        config=make_config(**SCHEMA1_CONFIG).to_dict(),
        checkpoint_dir=str(snapshots),
        checkpoint_every=10_000,
    )
    record, result = execute_spec(spec)
    assert result.history.sample_statistics.iteration[0] == 5
    assert record.metrics["iterations"] == 60.0
    assert record.sample_correlations == []
    with pytest.raises(ValueError, match="schema1-resumed.*sample_correlations"):
        record.analysis("sample_correlations")


#: written by the schema-2 writer from ``SCHEMA1_CONFIG`` at tick 18 (iteration
#: 15): three steerings, pending rows, and started simulations whose
#: parameters came from the AMIS proposal
SCHEMA2_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema2" / "step-00000018"
#: written by the schema-3 writer from ``SCHEMA1_CONFIG`` at tick 24 (iteration
#: 21): five steerings, four running clients, pending rows, and steered
#: simulations both started and still pending
SCHEMA3_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema3" / "step-00000024"
#: written by the schema-4 writer from ``SCHEMA1_CONFIG`` at tick 28 (iteration
#: 25): six steerings, four running clients, pending rows, and steered
#: simulations both started and still pending
SCHEMA4_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema4" / "step-00000028"
#: written by the schema-5 writer from ``SCHEMA1_CONFIG`` at tick 29 (iteration
#: 26): six steerings, three running clients, pending rows, and steered
#: simulations pending, running and finished
SCHEMA5_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema5" / "step-00000029"
#: the keys a snapshot no longer writes, by subtree ("" is the session's own)
#: and by the first schema that writes none of them
RETIRED_KEYS = {
    "": {3: {"pending_parameters"}, 6: {"scheduler"}},
    "server": {3: {"n_samples_received", "uniform_flag_ids", "uniform_flag_values"}},
    "sampler": {3: {"decisions"}, 4: {"last_trigger_iteration"}},
    "channel": {3: {"maxsize", "max_depth", "n_dropped"}},
    "tracker record": {4: {"parameters", "n_observations"}},
    "launcher": {4: {"highest_submitted_id", "factory_created"}, 6: {"records"}},
    "launcher record": {4: {"n_updates"}},
    "client": {4: {"simulation_id", "parameters", "next_timestep"}},
}


def subtrees(state: dict) -> dict:
    """The state's subtrees by :data:`RETIRED_KEYS` name; a schema-6 tree has
    no launcher records, and so no launcher record or client subtree."""
    sampler = state["controller"]["sampler"]
    trees = {
        "": state,
        "server": state["server"],
        "sampler": sampler,
        "channel": state["transport"]["channels"][0],
        "tracker record": sampler["tracker"]["records"][0],
        "launcher": state["launcher"],
    }
    records = state["launcher"].get("records")
    if records is not None:
        trees["launcher record"] = records[0]
        trees["client"] = next(record["client"] for record in records if record["client"] is not None)
    return trees


def assert_writes_retired_keys(state: dict, schema: int) -> None:
    """Every key retired after ``schema`` is there, and none retired by it."""
    for name, tree in subtrees(state).items():
        for since, keys in RETIRED_KEYS[name].items():
            if since > schema:
                assert keys <= set(tree), (name, since)
            else:
                assert not keys & set(tree), (name, since)


def test_schema2_fixture_is_what_it_claims(make_config):
    manifest = load_manifest(SCHEMA2_SNAPSHOT)
    assert manifest["schema"] == 2
    assert manifest["fingerprint"] == make_config(**SCHEMA1_CONFIG).digest()
    state = manifest["state"]
    assert_writes_retired_keys(state, 2)
    assert [channel["name"] for channel in state["transport"]["channels"]] == ["data", "steering", "jobs"]
    assert len(state["controller"]["sampler"]["decisions"]) == state["controller"]["steering_count"] == 3
    assert state["n_pending_messages"] > 0


def test_schema2_snapshot_restores_and_runs_bit_identical(make_config):
    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(SCHEMA2_SNAPSHOT, config=config)
    assert restored.n_ticks == 18 and restored.pending_blocks
    assert not restored.server.history.sample_statistics.uniform.all()  # proposal rows already trained on
    assert_bit_identical(restored.run(), TrainingSession(config).run(), restored=3)


def test_retired_keys_are_unread(make_config, tmp_path):
    """Every retired client, launcher, sampler and tracker key of the schema-2
    fixture edited to disagree with what it copies or derives from: the run
    restores and goes on exactly as an uninterrupted one."""
    snapshot = tmp_path / SCHEMA2_SNAPSHOT.name
    shutil.copytree(SCHEMA2_SNAPSHOT, snapshot)
    manifest = json.loads((snapshot / "manifest.json").read_text())
    state = manifest["state"]
    launcher = state["launcher"]
    launcher["highest_submitted_id"] += 5
    launcher["factory_created"] = launcher["factory_created"][::-1] + [99]
    with np.load(snapshot / "arrays.npz") as archive:
        pool = archive["pool-float64"]
    other_row = {"__ndarray__": ["pool-float64", 0, [5]]}  # the pool's first five floats
    n_clients = 0
    for record in launcher["records"]:
        record["n_updates"] += 3
        client = record["client"]
        if client is not None:
            _, offset, _ = client["parameters"]["__ndarray__"]
            assert not np.array_equal(pool[offset : offset + 5], pool[:5])
            client.update(simulation_id=client["simulation_id"] + 100, parameters=other_row)
            client["next_timestep"] = client["n_produced"] + 1
            n_clients += 1
    sampler = state["controller"]["sampler"]
    sampler["last_trigger_iteration"] = manifest["iteration"]
    for record in sampler["tracker"]["records"]:
        record["parameters"] = other_row
        record["n_observations"] += 7
    (snapshot / "manifest.json").write_text(json.dumps(manifest))
    assert n_clients > 0

    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(snapshot, config=config)
    assert restored.n_ticks == 18 and restored.launcher.running_clients()
    assert_bit_identical(restored.run(), TrainingSession(config).run(), restored=3)


def test_schema3_fixture_is_what_it_claims(make_config):
    manifest = load_manifest(SCHEMA3_SNAPSHOT)
    assert manifest["schema"] == 3
    assert manifest["fingerprint"] == make_config(**SCHEMA1_CONFIG).digest()
    state = manifest["state"]
    assert_writes_retired_keys(state, 3)
    assert [channel["name"] for channel in state["transport"]["channels"]] == ["data"]
    assert state["controller"]["steering_count"] == 5 and state["n_pending_messages"] > 0
    records = state["launcher"]["records"]
    assert sum(record["state"] == "running" for record in records) == 4
    steered = [record for record in records if record["history"]]
    assert {record["state"] for record in steered} >= {"pending", "running", "finished"}
    # schema 3 lists every simulation in the tracker, observed or not
    tracker = state["controller"]["sampler"]["tracker"]["records"]
    assert len(tracker) == len(records) and min(r["n_observations"] for r in tracker) == 0


def test_schema3_snapshot_restores_and_runs_bit_identical(make_config):
    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(SCHEMA3_SNAPSHOT, config=config)
    assert restored.n_ticks == 24 and restored.pending_blocks
    assert len(restored.launcher.running_clients()) == 4
    assert_bit_identical(restored.run(), TrainingSession(config).run(), restored=5)


def test_schema4_fixture_is_what_it_claims(make_config):
    manifest = load_manifest(SCHEMA4_SNAPSHOT)
    assert manifest["schema"] == 4
    assert manifest["fingerprint"] == make_config(**SCHEMA1_CONFIG).digest()
    state = manifest["state"]
    assert_writes_retired_keys(state, 4)
    assert state["controller"]["steering_count"] == 6 and state["n_pending_messages"] > 0
    assert all(not set(DIAGNOSTICS) & set(record) for record in state["controller"]["records"])
    records = state["launcher"]["records"]
    assert sum(record["state"] == "running" for record in records) == 4
    steered = [record for record in records if record["history"]]
    assert {record["state"] for record in steered} >= {"pending", "running", "finished"}


def test_schema4_snapshot_restores_and_runs_bit_identical(make_config):
    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(SCHEMA4_SNAPSHOT, config=config)
    assert restored.n_ticks == 28 and restored.pending_blocks
    assert len(restored.launcher.running_clients()) == 4
    assert_bit_identical(restored.run(), TrainingSession(config).run(), restored=6)


def test_schema5_fixture_is_what_it_claims(make_config):
    manifest = load_manifest(SCHEMA5_SNAPSHOT)
    assert manifest["schema"] == 5
    assert manifest["fingerprint"] == make_config(**SCHEMA1_CONFIG).digest()
    state = manifest["state"]
    assert_writes_retired_keys(state, 5)
    assert state["controller"]["steering_count"] == 6 and state["n_pending_messages"] > 0
    assert all(set(DIAGNOSTICS) <= set(record) for record in state["controller"]["records"])
    records = state["launcher"]["records"]
    assert sum(record["state"] == "running" for record in records) == 3
    steered = [record for record in records if record["history"]]
    assert {record["state"] for record in steered} >= {"pending", "running", "finished"}
    jobs = [job["job_id"] for job in state["scheduler"]["jobs"]]
    assert jobs == list(range(state["launcher"]["next_to_submit"]))


def test_schema5_snapshot_restores_and_runs_bit_identical(make_config):
    config = make_config(**SCHEMA1_CONFIG)
    restored = restore_session(SCHEMA5_SNAPSHOT, config=config)
    assert restored.n_ticks == 29 and restored.pending_blocks
    assert [client.n_produced for client in restored.launcher.running_clients()] == [
        record["client"]["n_produced"]
        for record in load_manifest(SCHEMA5_SNAPSHOT)["state"]["launcher"]["records"]
        if record["state"] == "running"
    ]
    assert_bit_identical(restored.run(), TrainingSession(config).run())


@pytest.mark.parametrize(
    "fixture, n_records",
    [(SCHEMA1_SNAPSHOT, 1), (SCHEMA2_SNAPSHOT, 3), (SCHEMA3_SNAPSHOT, 5), (SCHEMA4_SNAPSHOT, 6)],
    ids=["schema1", "schema2", "schema3", "schema4"],
)
def test_records_restored_from_an_old_schema_carry_no_diagnostics(make_config, fixture, n_records):
    session = restore_session(fixture, config=make_config(**SCHEMA1_CONFIG))
    records = session.controller.records
    session.close()
    assert len(records) == n_records
    assert all(getattr(record, name) is None for record in records for name in DIAGNOSTICS)
    assert [record.resampling_index for record in records] == list(range(n_records))


def test_a_snapshot_of_a_newer_schema_is_refused(tmp_path):
    snapshot = tmp_path / SCHEMA5_SNAPSHOT.name
    shutil.copytree(SCHEMA5_SNAPSHOT, snapshot)
    manifest = json.loads((snapshot / "manifest.json").read_text())
    manifest["schema"] = 7
    (snapshot / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="schema version 7"):
        load_manifest(snapshot)


#: the keys of a schema-6 ``"launcher"`` subtree: counters, then one column per fact
LAUNCHER_KEYS = [
    "tick", "job_limit", "max_start_delay", "next_to_submit", "overwrites", "parameters", "source", "state",
    "submitted_tick", "eligible_tick", "started_tick", "completed_tick", "n_produced",
]


@pytest.mark.parametrize(
    "fixture",
    [SCHEMA2_SNAPSHOT, SCHEMA3_SNAPSHOT, SCHEMA4_SNAPSHOT, SCHEMA5_SNAPSHOT],
    ids=["schema2", "schema3", "schema4", "schema5"],
)
def test_a_new_snapshot_writes_no_retired_key(make_config, tmp_path, fixture):
    session = restore_session(fixture, config=make_config(**SCHEMA1_CONFIG))
    manifest = load_manifest(save_session(session, tmp_path))
    n_running = len(session.launcher.running_clients())
    session.close()
    assert manifest["schema"] == SCHEMA_VERSION == 6
    state = manifest["state"]
    assert all(set(DIAGNOSTICS) <= set(record) for record in state["controller"]["records"])
    assert state["n_pending_messages"] > 0 and state["controller"]["steering_count"] >= 3
    assert_writes_retired_keys(state, SCHEMA_VERSION)
    assert [channel["name"] for channel in state["transport"]["channels"]] == ["data"]
    # the tracker writes observed simulations only, and a client its progress only
    tracker = state["controller"]["sampler"]["tracker"]
    assert all(record["counts"]["__ndarray__"][2] != [0] for record in tracker["records"])
    assert len(tracker["records"]) < SCHEMA1_CONFIG["n_simulations"]
    # the ledger is a fixed number of arrays, one row per simulation, and no per-simulation list
    launcher = state["launcher"]
    assert list(launcher) == LAUNCHER_KEYS
    assert not any(isinstance(value, list) for value in launcher.values())
    assert launcher["parameters"]["__ndarray__"].startswith("a")  # its own (S, d) member
    for key in LAUNCHER_KEYS[6:-1]:
        assert launcher[key]["__ndarray__"][2] == [SCHEMA1_CONFIG["n_simulations"]], key
    assert launcher["n_produced"]["__ndarray__"][2] == [n_running] and n_running > 0
