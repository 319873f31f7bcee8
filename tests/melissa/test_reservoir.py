"""Tests for the reservoir buffer, including property-based invariants."""

from __future__ import annotations

import copy
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.melissa.reservoir import Reservoir


def make_reservoir(capacity=10, watermark=3, seed=0):
    return Reservoir(capacity=capacity, watermark=watermark, rng=np.random.default_rng(seed))


def put_sample(reservoir, sim_id=0, timestep=0):
    """A one-row block; returns how many rows were stored (0 or 1)."""
    return reservoir.put(sim_id, timestep, np.array([[float(sim_id), float(timestep)]]), np.zeros((1, 3)))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_reservoir(capacity=0)
        with pytest.raises(ValueError):
            make_reservoir(watermark=0)
        with pytest.raises(ValueError):
            make_reservoir(capacity=5, watermark=6)


class TestWatermark:
    def test_not_ready_before_watermark(self):
        reservoir = make_reservoir(capacity=10, watermark=3)
        put_sample(reservoir, 0)
        put_sample(reservoir, 1)
        assert not reservoir.ready_for_training
        assert reservoir.sample_batch(2) is None

    def test_ready_at_watermark(self):
        reservoir = make_reservoir(capacity=10, watermark=3)
        for i in range(3):
            put_sample(reservoir, i)
        assert reservoir.ready_for_training
        assert reservoir.sample_batch(2) is not None


class TestPutAndEviction:
    def test_accepts_until_capacity(self):
        reservoir = make_reservoir(capacity=4, watermark=1)
        for i in range(4):
            assert put_sample(reservoir, i)
        assert len(reservoir) == 4
        assert reservoir.is_full

    def test_stores_nothing_when_full_of_unseen_samples(self):
        reservoir = make_reservoir(capacity=3, watermark=1)
        for i in range(3):
            put_sample(reservoir, i)
        # Nothing has been consumed yet: back-pressure, the caller keeps the row.
        assert not reservoir.can_accept()
        assert put_sample(reservoir, 99) == 0
        assert reservoir.n_received == 3 and reservoir.n_rejected == 0
        assert len(reservoir) == 3

    def test_evicts_only_seen_samples(self):
        reservoir = make_reservoir(capacity=3, watermark=1, seed=1)
        for i in range(3):
            put_sample(reservoir, i)
        reservoir.sample_batch(2)  # marks two entries as seen
        assert reservoir.can_accept()
        assert put_sample(reservoir, 99)
        assert reservoir.n_evicted == 1
        # The surviving unseen entry must still be present.
        sim_ids = {e.simulation_id for e in reservoir.entries()}
        assert 99 in sim_ids
        assert len(sim_ids & {0, 1, 2}) == 2

    def test_size_never_exceeds_capacity(self):
        reservoir = make_reservoir(capacity=5, watermark=1)
        for i in range(20):
            put_sample(reservoir, i)
            reservoir.sample_batch(3)
            assert len(reservoir) <= 5

    def test_received_counter(self):
        reservoir = make_reservoir()
        put_sample(reservoir, 0)
        put_sample(reservoir, 1)
        assert reservoir.n_received == 2


class TestSampling:
    def test_batch_contents_and_shapes(self):
        reservoir = make_reservoir(capacity=10, watermark=2)
        for i in range(6):
            put_sample(reservoir, i, timestep=i)
        batch = reservoir.sample_batch(4)
        assert batch is not None
        assert len(batch) == 4
        assert batch.inputs.shape == (4, 2)
        assert batch.targets.shape == (4, 3)
        assert batch.simulation_ids.shape == (4,)
        # No duplicates within one batch (sampling without replacement).
        assert len(set(batch.simulation_ids.tolist())) == 4

    def test_batch_larger_than_buffer_returns_everything(self):
        reservoir = make_reservoir(capacity=10, watermark=2)
        for i in range(3):
            put_sample(reservoir, i)
        batch = reservoir.sample_batch(8)
        assert batch is not None and len(batch) == 3

    def test_seen_counts_increment(self):
        reservoir = make_reservoir(capacity=4, watermark=1)
        for i in range(4):
            put_sample(reservoir, i)
        reservoir.sample_batch(4)
        reservoir.sample_batch(4)
        assert np.all(reservoir.seen_counts() == 2)
        mean_reuse, max_reuse = reservoir.reuse_statistics()
        assert mean_reuse == 2.0 and max_reuse == 2

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            make_reservoir().sample_batch(0)

    def test_batches_counted(self):
        reservoir = make_reservoir(capacity=4, watermark=1)
        put_sample(reservoir, 0)
        reservoir.sample_batch(1)
        assert reservoir.n_batches == 1

    def test_summary_keys(self):
        summary = make_reservoir().summary()
        assert {"size", "capacity", "received", "rejected", "evicted", "batches"} <= set(summary)

    def test_reuse_statistics_empty(self):
        assert make_reservoir().reuse_statistics() == (0.0, 0)


class TestReservoirInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=20),
        n_operations=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_random_workload_invariants(self, capacity, n_operations, seed):
        rng = np.random.default_rng(seed)
        watermark = max(1, capacity // 2)
        reservoir = Reservoir(capacity=capacity, watermark=watermark, rng=np.random.default_rng(seed + 1))
        stored_total = 0
        for op in range(n_operations):
            if rng.random() < 0.6:
                k = int(rng.integers(1, 6))
                stored = reservoir.put(op, 0, np.full((k, 1), float(op)), np.zeros((k, 1)))
                assert 0 <= stored <= k
                stored_total += stored
                # A block stops short only at a buffer full of unseen samples.
                if stored < k:
                    assert len(reservoir) == capacity and reservoir.n_unseen == capacity
            else:
                batch = reservoir.sample_batch(int(rng.integers(1, 8)))
                if not reservoir.ready_for_training:
                    assert batch is None
            # Invariants.
            assert len(reservoir) <= capacity
            assert reservoir.n_unseen <= len(reservoir)
            assert reservoir.n_received == stored_total
            assert reservoir.n_rejected == 0


class _ReferenceReservoir:
    """The pre-vectorisation entry-list implementation, kept as the oracle."""

    def __init__(self, capacity, watermark, rng):
        self.capacity = capacity
        self.watermark = watermark
        self._rng = rng
        self._entries = []
        self.n_evicted = 0

    def can_accept(self):
        return len(self._entries) < self.capacity or any(e.seen_count > 0 for e in self._entries)

    def put(self, simulation_id, timestep, x, y):
        from repro.melissa.reservoir import ReservoirEntry

        entry = ReservoirEntry(simulation_id=simulation_id, timestep=timestep, x=x, y=y)
        if len(self._entries) < self.capacity:
            self._entries.append(entry)
            return True
        seen_indices = [i for i, e in enumerate(self._entries) if e.seen_count > 0]
        if not seen_indices:
            return False
        victim = int(self._rng.choice(seen_indices))
        self._entries[victim] = entry
        self.n_evicted += 1
        return True

    def put_block(self, simulation_id, first_timestep, xs, ys):
        """The per-sample ingest loop a session ran: one row at a time while the buffer accepts."""
        stored = 0
        while stored < len(xs) and self.can_accept():
            assert self.put(simulation_id, first_timestep + stored, xs[stored], ys[stored])
            stored += 1
        return stored

    def sample_batch(self, batch_size):
        if len(self._entries) < self.watermark or not self._entries:
            return None
        n = len(self._entries)
        take = min(batch_size, n)
        indices = self._rng.choice(n, size=take, replace=False)
        xs = np.stack([self._entries[i].x for i in indices], axis=0)
        ys = np.stack([self._entries[i].y for i in indices], axis=0)
        sim_ids = np.array([self._entries[i].simulation_id for i in indices], dtype=np.int64)
        steps = np.array([self._entries[i].timestep for i in indices], dtype=np.int64)
        for i in indices:
            self._entries[i].seen_count += 1
        return xs, ys, sim_ids, steps


class TestVectorisedBitIdentity:
    """SoA storage must replay the entry-list implementation bit-for-bit:
    identical RNG consumption, identical batch payloads, identical state."""

    def test_random_op_sequence_matches_reference(self):
        driver = np.random.default_rng(7)
        for seed in range(5):
            reservoir = Reservoir(capacity=12, watermark=4, rng=np.random.default_rng(seed))
            reference = _ReferenceReservoir(capacity=12, watermark=4, rng=np.random.default_rng(seed))
            for op in range(300):
                if driver.random() < 0.6:
                    x = driver.random(3)
                    y = driver.random(5)
                    assert reservoir.put(op, op % 11, x[None], y[None]) == reference.put(op, op % 11, x, y)
                else:
                    size = int(driver.integers(1, 9))
                    got = reservoir.sample_batch(size)
                    want = reference.sample_batch(size)
                    assert (got is None) == (want is None)
                    if got is not None:
                        np.testing.assert_array_equal(got.inputs, want[0])
                        np.testing.assert_array_equal(got.simulation_ids, want[2])
            # Final buffer content must agree entry by entry.
            entries = reservoir.entries()
            assert len(entries) == len(reference._entries)
            for got_entry, want_entry in zip(entries, reference._entries):
                assert got_entry.simulation_id == want_entry.simulation_id
                assert got_entry.seen_count == want_entry.seen_count
                np.testing.assert_array_equal(got_entry.x, want_entry.x)

    def test_interleaved_draws_match_reference_exactly(self):
        reservoir = Reservoir(capacity=10, watermark=3, rng=np.random.default_rng(3))
        reference = _ReferenceReservoir(capacity=10, watermark=3, rng=np.random.default_rng(3))
        payload = np.random.default_rng(9)
        for op in range(200):
            x = payload.random(4)
            y = payload.random(6)
            assert reservoir.put(op, op % 13, x[None], y[None]) == reference.put(op, op % 13, x, y)
            if op % 3 == 2:
                got = reservoir.sample_batch(4)
                want = reference.sample_batch(4)
                assert (got is None) == (want is None)
                if got is not None:
                    np.testing.assert_array_equal(got.inputs, want[0])
                    np.testing.assert_array_equal(got.targets, want[1])
                    np.testing.assert_array_equal(got.simulation_ids, want[2])
                    np.testing.assert_array_equal(got.timesteps, want[3])
        np.testing.assert_array_equal(
            reservoir.seen_counts(),
            np.array([e.seen_count for e in reference._entries], dtype=np.int64),
        )

    def test_state_dict_round_trip_preserves_layout(self):
        reservoir = make_reservoir(capacity=6, watermark=2, seed=5)
        for i in range(6):
            put_sample(reservoir, i, timestep=i)
        reservoir.sample_batch(3)
        state = reservoir.state_dict()
        clone = make_reservoir(capacity=6, watermark=2, seed=5)
        clone.load_state_dict(state)
        assert clone.state_dict().keys() == state.keys()
        for key, value in state.items():
            np.testing.assert_array_equal(clone.state_dict()[key], value)
        # The restored buffer draws identically (same rng, same layout).
        other = make_reservoir(capacity=6, watermark=2, seed=5)
        other.load_state_dict(state)
        a = clone.sample_batch(4)
        b = other.sample_batch(4)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.simulation_ids, b.simulation_ids)

    def test_mismatched_sample_dimensions_raise(self):
        reservoir = make_reservoir(capacity=4, watermark=1)
        put_sample(reservoir, 0)
        with pytest.raises(ValueError, match="buffer layout"):
            reservoir.put(1, 0, np.zeros((1, 7)), np.zeros((1, 3)))


class TestBlockPutOracle:
    """A block ``put`` equals the per-sample loop it replaced, row for row and draw for draw."""

    @staticmethod
    def pair(capacity, seed=4):
        return (
            Reservoir(capacity=capacity, watermark=1, rng=np.random.default_rng(seed)),
            _ReferenceReservoir(capacity=capacity, watermark=1, rng=np.random.default_rng(seed)),
        )

    @staticmethod
    def assert_same(reservoir, reference):
        entries = reservoir.entries()
        assert len(entries) == len(reference._entries)
        for got, want in zip(entries, reference._entries):
            assert (got.simulation_id, got.timestep, got.seen_count) == (
                want.simulation_id, want.timestep, want.seen_count
            )
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
        assert reservoir.n_evicted == reference.n_evicted
        assert reservoir._rng.bit_generator.state == reference._rng.bit_generator.state

    @staticmethod
    def block(rng, k):
        return rng.random((k, 3)), rng.random((k, 5))

    def test_filling_then_stopping_mid_block_when_every_entry_is_unseen(self):
        reservoir, reference = self.pair(capacity=10)
        payload = np.random.default_rng(1)
        for sim_id, k, want in [(0, 6, 6), (1, 6, 4), (2, 3, 0)]:
            xs, ys = self.block(payload, k)
            assert reservoir.put(sim_id, 5, xs, ys) == reference.put_block(sim_id, 5, xs, ys) == want
            self.assert_same(reservoir, reference)
        assert reservoir.n_received == 10 and reservoir.n_rejected == 0
        assert [e.timestep for e in reservoir.entries()] == [5, 6, 7, 8, 9, 10, 5, 6, 7, 8]

    def test_full_with_evictions_then_stopping_when_the_seen_entries_run_out(self):
        reservoir, reference = self.pair(capacity=8)
        payload = np.random.default_rng(2)
        xs, ys = self.block(payload, 8)
        reservoir.put(0, 0, xs, ys)
        reference.put_block(0, 0, xs, ys)
        reservoir.sample_batch(3)
        reference.sample_batch(3)  # three entries seen: three evictions possible
        xs, ys = self.block(payload, 2)
        assert reservoir.put(1, 0, xs, ys) == reference.put_block(1, 0, xs, ys) == 2
        self.assert_same(reservoir, reference)
        xs, ys = self.block(payload, 4)
        assert reservoir.put(2, 7, xs, ys) == reference.put_block(2, 7, xs, ys) == 1
        self.assert_same(reservoir, reference)
        assert reservoir.n_evicted == 3 and not reservoir.can_accept()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blocks_and_draws(self, seed):
        driver = np.random.default_rng(100 + seed)
        reservoir, reference = self.pair(capacity=16, seed=seed)
        for op in range(120):
            if driver.random() < 0.5:
                k = int(driver.integers(1, 9))
                first = int(driver.integers(0, 50))
                xs, ys = self.block(driver, k)
                assert reservoir.put(op, first, xs, ys) == reference.put_block(op, first, xs, ys)
            else:
                size = int(driver.integers(1, 9))
                got, want = reservoir.sample_batch(size), reference.sample_batch(size)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got.inputs, want[0]) and np.array_equal(got.timesteps, want[3])
            self.assert_same(reservoir, reference)


class _RowLoopReservoir(Reservoir):
    """``Reservoir`` with the row-at-a-time eviction loop ``put`` ran before it evicted per block."""

    def put(self, simulation_id, first_timestep, xs, ys):
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
        while stored < len(xs):
            seen_indices = np.flatnonzero(self._seen[: self._n] > 0)
            if seen_indices.size == 0:
                break
            victim = int(self._rng.choice(seen_indices))
            self._store(victim, simulation_id, first_timestep + stored, xs[stored], ys[stored])
            self.n_evicted += 1
            stored += 1
        self.n_received += stored
        return stored


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(1, 12), st.integers(0, 40)),
        st.tuples(st.just("draw"), st.integers(1, 10), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class TestBlockEvictionOracle:
    """Block eviction replays the row-at-a-time loop: same victims, same RNG state."""

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 16),
        watermark_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        operations=_OPERATIONS,
    )
    def test_random_puts_and_draws_match_the_row_loop(self, capacity, watermark_share, seed, operations):
        watermark = max(1, round(capacity * watermark_share))
        reservoir = Reservoir(capacity, watermark, np.random.default_rng(seed))
        oracle = _RowLoopReservoir(capacity, watermark, np.random.default_rng(seed))
        payload = np.random.default_rng(seed + 1)
        for sim_id, (kind, size, first) in enumerate(operations):
            if kind == "put":
                xs, ys = payload.random((size, 2)), payload.random((size, 3))
                assert reservoir.put(sim_id, first, xs, ys) == oracle.put(sim_id, first, xs, ys)
            else:
                got, want = reservoir.sample_batch(size), oracle.sample_batch(size)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got.inputs, want.inputs)
            # buffers, ids, time steps, seen counts and every counter
            got, want = reservoir.state_dict(), oracle.state_dict()
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in want)
            assert reservoir._rng.bit_generator.state == oracle._rng.bit_generator.state


def _full_reservoir(capacity=8, seed=0):
    """A full reservoir whose every entry is seen, and the generator of its further rows."""
    reservoir = make_reservoir(capacity=capacity, watermark=2, seed=seed)
    rows = np.random.default_rng(seed + 1)
    reservoir.put(0, 0, rows.random((capacity, 2)), rows.random((capacity, 3)))
    return reservoir, rows


def _evict_rows(reservoir, rows, simulation_id, n=3):
    """Mark every entry seen, then store ``n`` rows over seen ones."""
    reservoir.sample_batch(len(reservoir))
    assert reservoir.put(simulation_id, 0, rows.random((n, 2)), rows.random((n, 3))) == n


def _buffer_ids(reservoir):
    # ids, not the buffers: a reference held here would itself force a copy
    return id(reservoir._xs), id(reservoir._ys)


class TestRowsAreHeldOnce:
    """Exports are read-only views, full restores adopt, and a write first copies a shared buffer."""

    def test_a_kept_state_and_a_slice_of_it_survive_later_writes(self):
        reservoir, rows = _full_reservoir()
        state = reservoir.state_dict()
        expected = copy.deepcopy(state)
        part = reservoir.state_dict()["ys"][5:8]  # only the slice outlives its tree
        expected_part = part.copy()
        for simulation_id in range(1, 20):
            _evict_rows(reservoir, rows, simulation_id)
        for key, value in expected.items():
            np.testing.assert_array_equal(state[key], value)
        np.testing.assert_array_equal(part, expected_part)
        assert not np.array_equal(reservoir.state_dict()["ys"], expected["ys"])

    def test_exported_rows_are_read_only(self):
        reservoir, _ = _full_reservoir()
        state = reservoir.state_dict()
        for key in ("xs", "ys"):
            with pytest.raises(ValueError, match="read-only"):
                state[key][0, 0] = 1.0

    def test_the_buffer_is_copied_only_while_an_export_is_alive(self):
        reservoir, rows = _full_reservoir()
        private = _buffer_ids(reservoir)
        reservoir.state_dict()  # dropped at once
        for simulation_id in range(1, 10):
            _evict_rows(reservoir, rows, simulation_id)
        assert _buffer_ids(reservoir) == private
        state = reservoir.state_dict()
        _evict_rows(reservoir, rows, 10)
        copied = _buffer_ids(reservoir)
        assert copied[0] != private[0] and copied[1] != private[1]
        _evict_rows(reservoir, rows, 11)  # the copy is private: no second one
        assert _buffer_ids(reservoir) == copied
        assert state["ys"].shape == (8, 3)

    def test_a_full_restore_adopts_the_rows_np_load_hands_out(self):
        reservoir, rows = _full_reservoir()
        state = reservoir.state_dict()
        archive = io.BytesIO()
        np.savez(archive, xs=state["xs"], ys=state["ys"])
        archive.seek(0)
        with np.load(archive) as loaded:
            state = dict(state, xs=loaded["xs"], ys=loaded["ys"])
        owners = id(state["xs"].base), id(state["ys"].base)  # np.load returns reshape views
        restored = make_reservoir(capacity=8, watermark=2)
        restored.load_state_dict(state)
        del state
        assert (id(restored._xs.base), id(restored._ys.base)) == owners  # no second allocation
        adopted = _buffer_ids(restored)
        _evict_rows(restored, rows, 1)
        assert _buffer_ids(restored) == adopted  # nothing else holds the loaded rows

    def test_an_adopted_state_its_caller_keeps_never_changes(self):
        reservoir, rows = _full_reservoir()
        state = copy.deepcopy(reservoir.state_dict())
        expected = copy.deepcopy(state)
        restored = make_reservoir(capacity=8, watermark=2)
        restored.load_state_dict(state)
        assert restored._xs.base is state["xs"] and restored._ys.base is state["ys"]
        for simulation_id in range(1, 6):
            _evict_rows(restored, rows, simulation_id)
        for key, value in expected.items():
            np.testing.assert_array_equal(state[key], value)
        restored.load_state_dict(state)  # loading it a second time is as good as the first
        np.testing.assert_array_equal(restored.state_dict()["ys"], expected["ys"])

    @pytest.mark.parametrize("case", ["partial", "read-only", "float32"])
    def test_other_rows_are_copied_into_a_new_buffer(self, case):
        if case == "partial":
            reservoir = make_reservoir(capacity=8, watermark=2)
            reservoir.put(0, 0, np.ones((5, 2)), np.ones((5, 3)))
        else:
            reservoir, _ = _full_reservoir()
        state = reservoir.state_dict()  # read-only views of the live buffer
        if case != "read-only":
            state = copy.deepcopy(state)
        if case == "float32":
            state["xs"] = state["xs"].astype(np.float32)
        restored = make_reservoir(capacity=8, watermark=2)
        restored.load_state_dict(state)
        assert restored._xs.shape == (8, 2) and restored._xs.dtype == np.float64
        assert restored._xs.base is not state["xs"] and restored._xs.base is not state["xs"].base
        np.testing.assert_array_equal(restored.state_dict()["xs"], state["xs"])
