"""Exact-equality oracle for the one-put-per-tick ingest.

A session hands every pending block of a tick to the server in one call; the
server encodes the rows the reservoir will take and stores them with one
``Reservoir.put`` of per-row ids and time steps.  It replaced a chain that
went block by block: ``TrainingSession.receive`` called
``TrainingServer.receive`` once per block, which encoded the block and made
one ``Reservoir.put`` of it, and the session stopped at the first block the
reservoir did not take whole.  That chain is copied below, verbatim, as the
reference.

Hypothesis drives both sides through random ticks of blocks (mixed lengths
and simulation ids, consecutive time steps per simulation) into a small
reservoir that fills, then evicts the entries random draws have marked seen,
then back-pressures part way through a tick once every entry is unseen.
After every tick and every draw the buffers, ids, time steps, seen counts,
RNG state, ``n_received``/``n_evicted`` and the pending blocks must be equal
bit for bit.  Whole sessions, inline and with solver workers, are compared
the same way tick by tick, and one snapshotted with blocks pending restores
equal to the live one.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import OnlineTrainingConfig
from repro.api.session import TrainingSession
from repro.breed.samplers import BreedConfig
from repro.checkpoint import restore_session, save_session
from repro.melissa.reservoir import Reservoir
from repro.melissa.server import TrainingServer
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.normalization import SurrogateScalers

# ---------------------------------------------------------------------------
# The reference: the per-block receive chain, verbatim
# ---------------------------------------------------------------------------


class PerBlockReservoir(Reservoir):
    """``Reservoir`` with the block ``put``: one simulation id and the block's first time step."""

    def put(self, simulation_id: int, first_timestep: int, xs: np.ndarray, ys: np.ndarray) -> int:
        """Store consecutive time steps of one simulation, in order, while :meth:`can_accept` holds.

        Row ``i`` of ``xs``/``ys`` is time step ``first_timestep + i``.  Free
        slots fill first; once full, each further row replaces a random
        already-seen entry (one RNG draw per row, over the seen entries as
        they are at that row).  Returns how many leading rows were stored: a
        buffer full of unseen entries stores no more, and the caller keeps
        the rest (clients must pause).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self._xs is None:
            self._allocate(xs.shape[1], ys.shape[1])
        assert self._xs is not None and self._ys is not None
        if xs.shape[1] != self._xs.shape[1] or ys.shape[1] != self._ys.shape[1]:
            raise ValueError(
                f"sample dimensions ({xs.shape[1]}, {ys.shape[1]}) do not match the "
                f"buffer layout ({self._xs.shape[1]}, {self._ys.shape[1]})"
            )
        stored = min(len(xs), self.capacity - self._n)
        timesteps = np.arange(first_timestep, first_timestep + stored)
        self._store(slice(self._n, self._n + stored), simulation_id, timesteps, xs[:stored], ys[:stored])
        self._n += stored
        if stored < len(xs):
            # One scan per block: a victim becomes unseen, so popping it from
            # the (sorted) seen list leaves exactly what a rescan would find,
            # and ``integers(len(seen))`` is the draw ``Generator.choice(seen)``
            # makes: victims and RNG state are those of a per-row choice.
            seen = np.flatnonzero(self._seen[: self._n] > 0).tolist()
            victims = [
                seen.pop(int(self._rng.integers(len(seen))))
                for _ in range(min(len(xs) - stored, len(seen)))
            ]
            end = stored + len(victims)
            timesteps = np.arange(first_timestep + stored, first_timestep + end)
            self._store(victims, simulation_id, timesteps, xs[stored:end], ys[stored:end])
            self.n_evicted += len(victims)
            stored = end
        self.n_received += stored
        return stored


class PerBlockServer:
    """The server's block ``receive``; ``model`` is anything with ``scalers``."""

    def __init__(self, model, reservoir: PerBlockReservoir) -> None:
        self.model = model
        self.reservoir = reservoir

    def receive(
        self, simulation_id: int, parameters: np.ndarray, first_timestep: int, rows: np.ndarray
    ) -> int:
        """Ingest a block of one simulation's time steps; returns how many rows were stored.

        Row ``i`` of ``rows`` is the field at time step ``first_timestep + i``.
        Both encodings are element-wise, so one call per block gives the bits
        one call per row gave.  Rows are stored in order while the reservoir
        accepts them; the caller keeps the rest (back-pressure).
        """
        timesteps = np.arange(first_timestep, first_timestep + len(rows), dtype=np.float64)
        x = self.model.scalers.encode_input(
            np.broadcast_to(parameters, (len(rows), parameters.shape[0])), timesteps
        )
        y = self.model.scalers.encode_output(rows)
        return self.reservoir.put(simulation_id, first_timestep, x, y)


def per_block_session_receive(self) -> int:
    """Phase 3 — drain pending blocks while the reservoir accepts their rows."""
    received = 0
    while self.pending_blocks:
        simulation_id, first_timestep, rows = self.pending_blocks[0]
        parameters = self.launcher.parameters[simulation_id]
        stored = self.server.receive(simulation_id, parameters, first_timestep, rows)
        received += stored
        if stored < len(rows):  # the reservoir is full of unseen samples
            self.pending_blocks[0] = (simulation_id, first_timestep + stored, rows[stored:])
            break
        self.pending_blocks.popleft()
    return received


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def assert_same_reservoir(got: Reservoir, want: Reservoir) -> None:
    """Rows, ids, time steps, seen counts, counters and RNG state, bit for bit."""
    n = len(want)
    assert len(got) == n
    assert (got.n_received, got.n_evicted, got.n_rejected, got.n_batches) == (
        want.n_received, want.n_evicted, want.n_rejected, want.n_batches
    )
    for column in ("_simulation_ids", "_timesteps", "_seen"):
        assert np.array_equal(getattr(got, column)[:n], getattr(want, column)[:n]), column
    if n:
        assert got._xs[:n].tobytes() == want._xs[:n].tobytes()
        assert got._ys[:n].tobytes() == want._ys[:n].tobytes()
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


def assert_same_pending(got, want) -> None:
    assert len(got) == len(want)
    for (sid, first, rows), (want_sid, want_first, want_rows) in zip(got, want):
        assert (sid, first) == (want_sid, want_first)
        assert rows.shape == want_rows.shape and rows.tobytes() == want_rows.tobytes()


SCALERS = SurrogateScalers.from_bounds(HEAT2D_BOUNDS, n_timesteps=40)
FIELD = 7

#: one tick: blocks of (simulation id, rows), then a draw of this many samples (0: none)
TICKS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)), min_size=0, max_size=5),
        st.integers(0, 8),
    ),
    min_size=1,
    max_size=25,
)


def drive(capacity: int, watermark: int, seed: int, ticks) -> dict:
    """Run both ingests through ``ticks``, comparing after each step; returns what happened."""
    payload = np.random.default_rng(seed)
    parameters = {sid: payload.uniform(100.0, 500.0, 5) for sid in range(6)}
    launcher = SimpleNamespace(parameters=np.stack(list(parameters.values())))
    model = SimpleNamespace(scalers=SCALERS)
    reservoir = Reservoir(capacity, watermark, np.random.default_rng(seed))
    server = TrainingServer(model, optimizer=None, reservoir=reservoir, controller=None, batch_size=1)
    session = SimpleNamespace(pending_blocks=deque(), launcher=launcher, server=server)
    reference = SimpleNamespace(
        pending_blocks=deque(),
        launcher=launcher,
        server=PerBlockServer(model, PerBlockReservoir(capacity, watermark, np.random.default_rng(seed))),
    )
    next_step = dict.fromkeys(parameters, 0)
    seen = {"evicted": False, "stalled_mid_tick": False}
    for blocks, draw in ticks:
        for sid, length in blocks:
            rows = payload.uniform(100.0, 500.0, (length, FIELD))
            for side in (session, reference):
                side.pending_blocks.append((sid, next_step[sid], rows))
            next_step[sid] += length
        n_pending = sum(len(rows) for *_, rows in session.pending_blocks)
        received = TrainingSession.receive(session)
        assert received == per_block_session_receive(reference)
        assert_same_reservoir(reservoir, reference.server.reservoir)
        assert_same_pending(session.pending_blocks, reference.pending_blocks)
        seen["evicted"] |= reservoir.n_evicted > 0
        seen["stalled_mid_tick"] |= 0 < received < n_pending
        if draw:
            got, want = reservoir.sample_batch(draw), reference.server.reservoir.sample_batch(draw)
            assert (got is None) == (want is None)
            assert_same_reservoir(reservoir, reference.server.reservoir)
    return seen


@settings(max_examples=120, deadline=None)
@given(
    capacity=st.integers(1, 24),
    watermark_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    ticks=TICKS,
)
@example(capacity=8, watermark_share=0.5, seed=0, ticks=[([(0, 6), (1, 6)], 3), ([(2, 4), (0, 2)], 0)])
def test_one_put_per_tick_equals_the_per_block_chain(capacity, watermark_share, seed, ticks):
    drive(capacity, max(1, round(capacity * watermark_share)), seed, ticks)


def test_the_driver_fills_evicts_and_stalls_mid_tick():
    """The phases the property test is for: a buffer that fills, evicts, then stops part way through a tick."""
    ticks = [([(0, 5), (1, 4)], 4), ([(2, 3), (3, 2)], 2), ([(4, 6), (5, 5)], 0), ([(0, 3)], 0)]
    assert drive(capacity=10, watermark=2, seed=3, ticks=ticks) == {"evicted": True, "stalled_mid_tick": True}


# ---------------------------------------------------------------------------
# Whole sessions: inline and with solver workers
# ---------------------------------------------------------------------------


class PerBlockSession(TrainingSession):
    """A session whose receive phase is the per-block chain above, on its own reservoir."""

    def receive(self) -> int:
        block_put = SimpleNamespace(put=PerBlockReservoir.put.__get__(self.reservoir))
        reference = SimpleNamespace(
            pending_blocks=self.pending_blocks,
            launcher=self.launcher,
            server=PerBlockServer(self.model, block_put),
        )
        return per_block_session_receive(reference)


def config_for(n_cpus: int) -> OnlineTrainingConfig:
    """A Breed heat1d run whose buffer stalls: small, slow to train, fed five rows per client and tick.

    Its trajectories are large enough that two CPUs fork solver workers.
    """
    return OnlineTrainingConfig(
        workload="heat1d",
        method="breed",
        breed=BreedConfig(sigma=25.0, period=5, window=20),
        heat=Heat2DConfig(grid_size=512, n_timesteps=63),
        n_simulations=10,
        hidden_size=8,
        n_hidden_layers=1,
        batch_size=4,
        job_limit=4,
        timesteps_per_tick=5,
        train_iterations_per_tick=1,
        reservoir_capacity=24,
        reservoir_watermark=20,
        max_iterations=30,
        validation_period=10,
        n_validation_trajectories=2,
        seed=n_cpus,
    )


@pytest.fixture(params=[1, 2], ids=["inline", "pooled"])
def n_cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def assert_same_session(got: TrainingSession, want: TrainingSession) -> None:
    assert got.n_ticks == want.n_ticks
    assert_same_reservoir(got.reservoir, want.reservoir)
    assert_same_pending(got.pending_blocks, want.pending_blocks)
    assert got.streams.state_dict() == want.streams.state_dict()
    assert got.server.history.train_losses == want.server.history.train_losses


def test_sessions_ingest_as_the_per_block_chain(n_cpus):
    session, reference = TrainingSession(config_for(n_cpus)), PerBlockSession(config_for(n_cpus))
    try:
        assert (session._workers is not None) == (n_cpus > 1)
        stalled = 0
        while True:
            alive, reference_alive = session.tick(), reference.tick()
            assert alive == reference_alive
            assert_same_session(session, reference)
            stalled += bool(session.pending_blocks)  # rows the buffer did not take
            if not alive:
                break
        assert stalled and session.reservoir.n_evicted > 0
        assert session.result().history.validation_losses == reference.result().history.validation_losses
    finally:
        session.close()
        reference.close()


def test_a_snapshot_with_pending_blocks_restores_equal_to_the_live_session(n_cpus, tmp_path):
    config = replace(config_for(n_cpus), max_iterations=40)
    live = TrainingSession(config)
    try:
        while not (len(live.pending_blocks) >= 2 and live.pending_blocks[0][1] % config.timesteps_per_tick):
            assert live.tick(), "the session never stalled with a partly stored block"
        restored = restore_session(save_session(live, tmp_path), config=config)
        try:
            assert_same_session(restored, live)
            alive = True
            while alive:
                alive = live.tick()
                assert restored.tick() == alive
                assert_same_session(restored, live)
        finally:
            restored.close()
    finally:
        live.close()
