"""A session stopped mid-stream snapshots its pending row blocks one row per entry.

The reservoir is kept small and training slow, so produced rows pile up
behind a buffer full of unseen samples and one block is only partly stored.
The snapshot layout is the one written when every pending time step was a
message of its own, and a tree in that layout restores bit-identically.  A
block holds no parameters: they are its launcher record's.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api.session import TrainingSession
from repro.checkpoint import restore_session, save_session
from repro.solvers.heat2d import Heat2DConfig

PENDING_KEYS = {"pending_simulation_ids", "pending_timesteps", "pending_payloads"}


@pytest.fixture
def config(make_config):
    return make_config(
        heat=Heat2DConfig(grid_size=6, n_timesteps=20),
        timesteps_per_tick=5,
        train_iterations_per_tick=1,
        batch_size=4,
        reservoir_capacity=24,
        reservoir_watermark=20,
        max_iterations=40,
    )


def stalled(config) -> TrainingSession:
    """A session ticked until ≥ 2 simulations have rows pending and the head block is partly stored."""
    session = TrainingSession(config)
    for _ in range(100):
        session.tick()
        blocks = session.pending_blocks
        partly_stored = blocks and blocks[0][1] % config.timesteps_per_tick != 0
        if partly_stored and len({block[0] for block in blocks}) >= 2:
            return session
    raise AssertionError("the session never stalled with a partly stored block")


def per_message_state(session: TrainingSession) -> dict:
    """The session's state with the pending rows stacked one message at a time."""
    messages = [
        (simulation_id, first + index, row)
        for simulation_id, first, rows in session.pending_blocks
        for index, row in enumerate(rows)
    ]
    state = copy.deepcopy(session.state_dict())
    state["n_pending_messages"] = len(messages)
    state["pending_simulation_ids"] = np.array([m[0] for m in messages], dtype=np.int64)
    state["pending_timesteps"] = np.array([m[1] for m in messages], dtype=np.int64)
    state["pending_payloads"] = np.stack([m[2] for m in messages], axis=0)
    return state


def assert_same_run(a, b) -> None:
    assert a.history.train_losses == b.history.train_losses
    assert a.history.validation_losses == b.history.validation_losses
    assert np.array_equal(a.executed_parameters, b.executed_parameters)
    assert (a.transport_bytes, a.n_ticks) == (b.transport_bytes, b.n_ticks)
    assert a.reservoir_summary == b.reservoir_summary
    wall_clock = {"steering_seconds"}
    assert {k: v for k, v in a.server_summary.items() if k not in wall_clock} == {
        k: v for k, v in b.server_summary.items() if k not in wall_clock
    }
    weights_a, weights_b = a.model.state_dict(), b.model.state_dict()
    assert all(np.array_equal(weights_a[key], weights_b[key]) for key in weights_a)


def test_state_holds_one_entry_per_pending_row(config):
    session = stalled(config)
    state = session.state_dict()
    n_rows = sum(len(rows) for *_, rows in session.pending_blocks)
    assert {key for key in state if "pending" in key} == PENDING_KEYS | {"n_pending_messages"}
    assert state["n_pending_messages"] == n_rows > len(session.pending_blocks)
    expected = per_message_state(session)
    for key in PENDING_KEYS:
        assert state[key].dtype == expected[key].dtype
        assert np.array_equal(state[key], expected[key])
    assert state["pending_payloads"].shape == (n_rows, 36)


def test_a_per_message_state_restores_and_runs_bit_identical(config):
    live = stalled(config)
    restored = TrainingSession(config)
    restored.load_state_dict(per_message_state(live))
    assert [(b[0], b[1], len(b[2])) for b in restored.pending_blocks] == [
        (b[0], b[1], len(b[2])) for b in live.pending_blocks
    ]
    assert_same_run(restored.run(), live.run())


def test_a_saved_stalled_session_restores_bit_identical(config, tmp_path):
    live = stalled(config)
    snapshot = save_session(live, tmp_path)
    assert_same_run(restore_session(snapshot, config=config).run(), live.run())
