"""Component-level ``state_dict``/``load_state_dict`` round-trips.

Every stateful component of the training loop must restore to a state that
*behaves* bit-identically — the assertions therefore compare behaviour after
the round-trip (next random draw, next batch, next scheduler tick), not just
stored attributes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.breed.acquisition import LossDeviationTracker, loss_deviations
from repro.breed.controller import BreedController
from repro.breed.samplers import BreedConfig, BreedSampler, RandomSampler
from repro.checkpoint.snapshot import decode_state, load_manifest
from repro.melissa.client import SolverClient
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir
from repro.melissa.transport import InProcessTransport
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds
from repro.utils.rng import RngStreams


class TestRngStreams:
    def test_roundtrip_continues_identically(self):
        streams = RngStreams(seed=42)
        a = streams.get("alpha")
        b = streams.get("beta")
        a.random(10), b.random(3)  # advance both
        state = streams.state_dict()
        expected = (a.random(5).tolist(), b.random(5).tolist())

        fresh = RngStreams(seed=42)
        fresh.get("alpha").random(99)  # arbitrary position before restore
        fresh.load_state_dict(state)
        restored = (fresh.get("alpha").random(5).tolist(), fresh.get("beta").random(5).tolist())
        assert restored == expected

    def test_restore_is_in_place_for_aliased_holders(self):
        streams = RngStreams(seed=1)
        generator = streams.get("shared")  # e.g. held by the reservoir
        state = streams.state_dict()
        expected = generator.random(4).tolist()
        generator.random(100)  # drift away
        streams.load_state_dict(state)
        # The *same object* must continue from the restored state.
        assert generator.random(4).tolist() == expected

    def test_seed_mismatch_rejected(self):
        state = RngStreams(seed=1).state_dict()
        with pytest.raises(ValueError, match="root seed"):
            RngStreams(seed=2).load_state_dict(state)

    def test_state_is_json_compatible(self):
        import json

        streams = RngStreams(seed=3)
        streams.get("x").random(7)
        state = json.loads(json.dumps(streams.state_dict()))
        fresh = RngStreams(seed=3)
        fresh.load_state_dict(state)
        assert fresh.get("x").random() == streams.get("x").random()


class TestReservoir:
    def _filled(self, seed: int = 0) -> Reservoir:
        rng = np.random.default_rng(seed)
        reservoir = Reservoir(capacity=20, watermark=5, rng=rng)
        for i in range(30):
            reservoir.put(np.array([i % 7]), np.array([i]), rng.random((1, 4)), rng.random((1, 9)))
            if i % 3 == 0 and reservoir.ready_for_training:
                reservoir.sample_batch(4)
        return reservoir

    def test_roundtrip_preserves_content_and_behaviour(self):
        source = self._filled()
        state = source.state_dict()
        # Behaviour reference: next batches drawn from the source.
        rng_state = source._rng.bit_generator.state
        expected = [source.sample_batch(6).simulation_ids.tolist() for _ in range(3)]

        rng = np.random.default_rng(0)
        target = Reservoir(capacity=20, watermark=5, rng=rng)
        rng.bit_generator.state = rng_state
        target.load_state_dict(state)
        assert len(target) == int(state["n_entries"])
        assert target.n_received == source.n_received
        assert target.n_rejected == source.n_rejected
        assert target.n_evicted == source.n_evicted
        got = [target.sample_batch(6).simulation_ids.tolist() for _ in range(3)]
        assert got == expected

    def test_geometry_mismatch_rejected(self):
        state = self._filled().state_dict()
        other = Reservoir(capacity=10, watermark=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="geometry"):
            other.load_state_dict(state)

    def test_empty_reservoir_roundtrip(self):
        empty = Reservoir(capacity=8, watermark=2, rng=np.random.default_rng(0))
        target = Reservoir(capacity=8, watermark=2, rng=np.random.default_rng(1))
        target.load_state_dict(empty.state_dict())
        assert len(target) == 0 and not target.ready_for_training


class TestLauncher:
    @staticmethod
    def _launcher(solver, rng: np.random.Generator, job_limit: int = 3) -> Launcher:
        params = uniform_in_bounds(8, HEAT2D_BOUNDS, np.random.default_rng(1))
        return Launcher(params, solver, job_limit, rng, max_start_delay=2)

    def test_roundtrip_preserves_jobs_and_tick(self, tiny_solver):
        rng = np.random.default_rng(7)
        launcher = self._launcher(tiny_solver, rng)
        launcher.submit_available()
        launcher.advance()
        running = launcher.running_clients()
        if running:
            running[0].produce(2)
            launcher.mark_finished(running[0].simulation_id)
        state = launcher.state_dict()
        rng_state = rng.bit_generator.state
        summary_at_save = launcher.summary()

        def drive(target: Launcher) -> list:
            ticks = []
            for _ in range(3):
                submitted = target.submit_available()
                ticks.append((submitted, [client.simulation_id for client in target.advance()]))
            return ticks

        expected = drive(launcher)
        rng2 = np.random.default_rng(7)
        restored = self._launcher(tiny_solver, rng2)
        rng2.bit_generator.state = rng_state
        restored.load_state_dict(state)
        assert restored.tick == int(state["launcher"]["tick"])
        assert restored.summary() == summary_at_save
        assert drive(restored) == expected

    def test_job_limit_mismatch_rejected(self, tiny_solver):
        launcher = self._launcher(tiny_solver, np.random.default_rng(0), job_limit=3)
        other = self._launcher(tiny_solver, np.random.default_rng(0), job_limit=4)
        with pytest.raises(ValueError, match="job_limit"):
            other.load_state_dict(launcher.state_dict())

    def test_disagreeing_job_state_rejected(self, tiny_solver):
        """Schemas 1 to 5 wrote each submitted simulation's state twice, as a
        scheduler job and as a launcher record: the two must agree."""
        state = old_format_state()
        params = np.stack([record["parameters"] for record in state["launcher"]["records"]])
        launcher = Launcher(params, tiny_solver, 4, np.random.default_rng(0))
        assert state["scheduler"]["jobs"][0]["state"] == "completed"
        state["scheduler"]["jobs"][0]["state"] = "running"
        with pytest.raises(ValueError, match="simulation 0 is finished in the launcher state but running"):
            launcher.load_state_dict(state)
        with pytest.raises(ValueError, match="job_limit"):
            Launcher(params, tiny_solver, 3, np.random.default_rng(0)).load_state_dict(old_format_state())

    def test_a_finished_simulation_restores_without_a_client(self, tiny_solver):
        params = uniform_in_bounds(4, HEAT2D_BOUNDS, np.random.default_rng(1))
        launcher = Launcher(params, tiny_solver, 2, np.random.default_rng(0))
        launcher.submit_available()
        first, second = launcher.advance()
        second.produce(2)
        launcher.mark_finished(first.simulation_id)
        restored = Launcher(params, tiny_solver, 2, np.random.default_rng(0))
        restored.load_state_dict(launcher.state_dict())
        (client,) = restored.running_clients()
        assert (client.simulation_id, client.n_produced) == (second.simulation_id, 2)
        assert restored.summary() == launcher.summary()


#: a snapshot written by the schema-5 writer, whose ledger is the records of schemas 1 to 5
SCHEMA5_SNAPSHOT = Path(__file__).parent / "fixtures" / "schema5" / "step-00000029"


def old_format_state() -> dict:
    """The schema-5 fixture's state tree: a ``"scheduler"`` subtree of job
    records and a ``"launcher"`` one of simulation records."""
    with np.load(SCHEMA5_SNAPSHOT / "arrays.npz") as archive:
        return decode_state(load_manifest(SCHEMA5_SNAPSHOT)["state"], dict(archive))


class TestClient:
    def test_fast_forward_resumes_mid_trajectory(self, tiny_solver):
        params = np.array([150.0, 200.0, 250.0, 300.0, 350.0])
        original = SolverClient(0, params, tiny_solver)
        original.produce(3)
        expected = original.produce(2)

        resumed = SolverClient(0, params, tiny_solver)
        resumed.n_produced = 3
        resumed.start()
        assert np.array_equal(resumed.produce(2), expected)
        assert resumed.n_produced == 5

    def test_client_holds_its_records_parameters(self, tiny_solver):
        params = np.array([150.0, 200.0, 250.0, 300.0, 350.0])
        assert SolverClient(1, params, tiny_solver).parameters is params


class TestTracker:
    def _observed(self) -> LossDeviationTracker:
        tracker = LossDeviationTracker()
        rng = np.random.default_rng(0)
        for iteration in range(1, 8):
            # simulation 0 first sees time steps 0, 2, 1 in that order: not sorted
            sim_ids = [iteration % 6, (iteration + 2) % 6, (iteration + 4) % 6]
            _, _, deviations = loss_deviations(rng.random(3))
            tracker.observe_batch(sim_ids, [(iteration + 1) % 3] * 3, deviations)
        return tracker

    def test_roundtrip_preserves_window_and_q_values(self):
        source = self._observed()
        target = LossDeviationTracker()
        target.load_state_dict(source.state_dict())
        assert target.n_observations == source.n_observations
        assert target.all_q_values() == source.all_q_values()
        src_ids, src_q = source.window(4)
        dst_ids, dst_q = target.window(4)
        np.testing.assert_array_equal(src_ids, dst_ids)
        np.testing.assert_array_equal(src_q, dst_q)

    def test_per_timestep_order_preserved(self):
        # q_value averages per-timestep means in insertion order; the restore
        # must keep that order for bit-identical floating-point sums.
        source = self._observed()
        target = LossDeviationTracker()
        target.load_state_dict(source.state_dict())
        source_records = source.state_dict()["records"]
        assert source_records[0]["timesteps"].tolist() == [0, 2, 1]
        for before, after in zip(source_records, target.state_dict()["records"]):
            assert after["timesteps"].tolist() == before["timesteps"].tolist()
            assert after["means"].tobytes() == before["means"].tobytes()
        assert [target.q_value(sid) for sid in range(6)] == [source.q_value(sid) for sid in range(6)]
        # and the restored slots keep taking updates where the source's do
        for tracker in (source, target):
            tracker.observe_batch([0, 0], [0, 5], [0.25, 3.0])
        assert target.state_dict()["records"][0]["timesteps"].tolist() == [0, 2, 1, 5]
        assert target.q_value(0) == source.q_value(0)


class TestSamplers:
    def test_random_sampler_state_is_empty(self):
        sampler = RandomSampler(HEAT2D_BOUNDS)
        assert sampler.state_dict() == {}
        sampler.load_state_dict({})  # no-op

    def test_breed_sampler_roundtrip_same_next_decision(self):
        rng = np.random.default_rng(3)
        source = BreedSampler(HEAT2D_BOUNDS)
        params = source.initial_parameters(12, rng)
        for iteration in range(1, 5):
            source.observe_batch([0, 1, 2], [0, 1, 2], loss_deviations([0.5, 0.9, 0.1])[2])
        state = source.state_dict()
        rng_state = rng.bit_generator.state
        expected = source.resample(4, iteration=10, rng=rng, parameters=params)

        target = BreedSampler(HEAT2D_BOUNDS)
        target.load_state_dict(state)
        rng2 = np.random.default_rng(3)
        rng2.bit_generator.state = rng_state
        got = target.resample(4, iteration=10, rng=rng2, parameters=params)
        np.testing.assert_array_equal(got.parameters, expected.parameters)
        assert got.sources == expected.sources
        assert got.diagnostics == expected.diagnostics

    def test_breed_resampling_counters_survive_roundtrip(self):
        rng = np.random.default_rng(3)
        source = BreedSampler(HEAT2D_BOUNDS, BreedConfig(period=5))
        params = source.initial_parameters(8, rng)
        source.observe_batch([0], [0], [0.7])
        source.resample(2, iteration=5, rng=rng, parameters=params)
        state = source.state_dict()
        assert set(state) == {"resampling_count", "tracker"}
        target = BreedSampler(HEAT2D_BOUNDS, BreedConfig(period=5))
        target.load_state_dict(state)
        assert target.resampling_count == source.resampling_count == 1
        assert target.should_resample(10) and not target.should_resample(12)


class TestControllerAndTransport:
    def test_controller_records_roundtrip(self):
        rng = np.random.default_rng(0)
        source = BreedController(sampler=RandomSampler(HEAT2D_BOUNDS), rng=rng)
        source.steering_seconds = 1.25
        source.steering_count = 3
        state = source.state_dict()
        target = BreedController(
            sampler=RandomSampler(HEAT2D_BOUNDS), rng=np.random.default_rng(0)
        )
        target.load_state_dict(state)
        assert (target.steering_seconds, target.steering_count) == (1.25, 3)
        assert target.records == []

    def test_controller_state_keys_unchanged(self):
        controller = BreedController(sampler=RandomSampler(HEAT2D_BOUNDS), rng=np.random.default_rng(0))
        assert set(controller.state_dict()) == {
            "sampler", "steering_total_seconds", "steering_count", "records"
        }

    def test_transport_stats_roundtrip(self):
        transport = InProcessTransport()
        for _ in range(7):
            transport.account_batch(np.ones((1, 16)), np.ones(5))
        target = InProcessTransport()
        target.load_state_dict(transport.state_dict())
        assert target.n_bytes == transport.n_bytes == 7 * (128 + 40 + 16)
        assert target.n_messages == 7
