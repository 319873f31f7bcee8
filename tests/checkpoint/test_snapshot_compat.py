"""Snapshots that still carry the retired ``trigger`` entry restore bit-identically.

``BreedSampler.state_dict`` used to write ``"trigger": None`` (the state of an
optional resampling trigger no session ever set).  It no longer writes the
key, and ``load_state_dict`` ignores it, so every snapshot written before
restores to the run it came from.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.api.session import TrainingSession
from repro.breed.samplers import BreedSampler
from repro.checkpoint import restore_session, save_session
from repro.sampling.bounds import HEAT2D_BOUNDS

SAMPLER_KEYS = {"resampling_count", "last_trigger_iteration", "tracker", "decisions"}


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
