"""The on-line loop's bookkeeping is paid per tick and per steering, not per block and per batch.

A Breed ``heat1d`` session whose small reservoir back-pressures its clients is
run with spies on the calls that carry the cost:

* ``Reservoir.put`` — one per tick that has pending rows, none otherwise;
* the rows handed to the output encoding — each stored row once, so a row
  left pending behind a full buffer is not encoded until it is stored;
* ``LossDeviationTracker._fold`` — the queued batches are folded only where
  something reads them: a steering trigger (every ``period`` iterations), a
  snapshot, and a final ``state_dict`` after the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OnlineTrainingConfig
from repro.api.session import TrainingSession
from repro.breed.acquisition import LossDeviationTracker
from repro.breed.controller import BreedController
from repro.breed.samplers import BreedConfig
from repro.melissa.reservoir import Reservoir
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.normalization import SurrogateScalers

PERIOD = 5


@pytest.fixture
def config(tmp_path):
    return OnlineTrainingConfig(
        workload="heat1d",
        method="breed",
        breed=BreedConfig(sigma=25.0, period=PERIOD, window=20),
        heat=Heat2DConfig(grid_size=16, n_timesteps=20),
        n_simulations=12,
        hidden_size=8,
        n_hidden_layers=1,
        batch_size=4,
        job_limit=4,
        timesteps_per_tick=4,
        train_iterations_per_tick=2,
        reservoir_capacity=24,
        reservoir_watermark=12,
        max_iterations=40,
        validation_period=20,
        n_validation_trajectories=1,
        checkpoint_every=7,
        checkpoint_dir=str(tmp_path / "snapshots"),
        seed=3,
    )


def spy(monkeypatch, owner, name, before=None, after=None):
    """Wrap ``owner.name``: ``before(self, *args)`` runs ahead of it, ``after(self, result)`` behind it."""
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        if before is not None:
            before(self, *args)
        result = original(self, *args, **kwargs)
        if after is not None:
            after(self, result)
        return result

    monkeypatch.setattr(owner, name, wrapper)


def test_one_put_per_tick_and_each_row_encoded_once(monkeypatch, config):
    ticks = []  # per receive: (had pending rows, puts made)
    encoded = []
    spy(monkeypatch, TrainingSession, "receive", before=lambda s: ticks.append([bool(s.pending_blocks), 0]))
    spy(monkeypatch, Reservoir, "put", before=lambda r, *args: ticks[-1].__setitem__(1, ticks[-1][1] + 1))
    spy(monkeypatch, SurrogateScalers, "encode_output_blocks", after=lambda s, out: encoded.append(len(out)))
    session = TrainingSession(config)
    stalled = 0
    while session.tick():
        stalled += bool(session.pending_blocks)
    session.close()

    assert [puts for _, puts in ticks] == [int(pending) for pending, _ in ticks]
    assert stalled > 0 and session.reservoir.n_evicted > 0  # back-pressure and eviction both happened
    assert sum(encoded) == session.reservoir.n_received


def test_the_tracker_folds_only_at_steerings_and_snapshots(monkeypatch, config):
    where = []  # what is running: "steering", "snapshot"
    folds = []  # (where, queued samples) of every fold that had work
    spy(monkeypatch, BreedController, "maybe_steer", before=lambda c, *a: where.append("steering"),
        after=lambda c, r: where.pop())
    spy(monkeypatch, TrainingSession, "state_dict", before=lambda s: where.append("snapshot"),
        after=lambda s, r: where.pop())
    spy(monkeypatch, LossDeviationTracker, "_fold",
        before=lambda t: t._queued and folds.append((where[-1] if where else None, t._queued)))

    session = TrainingSession(config)
    result = session.run()
    session.state_dict()  # the end of the run: a final snapshot folds the tail

    assert {place for place, _ in folds} == {"steering", "snapshot"}
    assert all(queued <= PERIOD * config.batch_size for place, queued in folds if place == "steering")
    steering_folds = sum(place == "steering" for place, _ in folds)
    assert steering_folds == config.max_iterations // PERIOD
    assert len(result.steering_records) > 0
    assert session.sampler.tracker._queued == 0
    assert session.sampler.tracker.n_observations == config.max_iterations * config.batch_size
    assert np.isfinite(result.final_validation_loss)
