"""Tests for the reservoir buffer, including property-based invariants."""

from __future__ import annotations

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
