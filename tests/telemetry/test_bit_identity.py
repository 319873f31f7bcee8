"""The tentpole guarantee: telemetry observes, it never participates.

A session run with metrics + tracing fully enabled must produce outputs
bit-identical to the same run with telemetry off, while the registry and the
trace file fill with the expected observations.  Per-run counter attribution
through the study executor rides the same runs.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from repro import telemetry
from repro.api.session import TrainingSession
from repro.solvers.heat2d import Heat2DConfig
from repro.workflow.study import StudyRunner

GRID = [{"method": "breed"}, {"method": "random"}]


class TestSessionBitIdentity:
    def test_fully_enabled_run_is_bit_identical(self, tiny_run_config, tmp_path):
        reference = TrainingSession(tiny_run_config).run()

        telemetry.configure(metrics=True, trace_dir=tmp_path)
        observed = TrainingSession(tiny_run_config).run()

        np.testing.assert_array_equal(
            reference.executed_parameters, observed.executed_parameters
        )
        assert reference.history.train_losses == observed.history.train_losses
        assert reference.history.validation_losses == observed.history.validation_losses
        assert reference.final_validation_loss == observed.final_validation_loss
        assert reference.n_ticks == observed.n_ticks
        assert reference.transport_bytes == observed.transport_bytes

    def test_enabled_run_populates_registry_and_trace(self, tiny_run_config, tmp_path):
        telemetry.configure(metrics=True, trace_dir=tmp_path)
        result = TrainingSession(tiny_run_config).run()

        counters = telemetry.metrics().counter_values()
        assert counters["repro_session_ticks_total"] == float(result.n_ticks)
        assert counters["repro_session_train_iterations_total"] == float(
            result.history.train_iterations[-1]
        )
        # Periodic validations plus the final one (history records both).
        assert counters["repro_session_validations_total"] == float(
            len(result.history.validation_losses)
        )
        assert counters["repro_solver_steps_total"] > 0
        assert counters["repro_reservoir_ingest_total"] > 0
        assert counters['repro_transport_bytes_total{channel="data"}'] == float(
            result.transport_bytes
        )

        text = telemetry.metrics().render_prometheus()
        assert "# TYPE repro_session_ticks_total counter" in text

        trace_files = list(tmp_path.glob("trace-*.jsonl"))
        assert len(trace_files) == 1
        names = {line.split('"')[3] for line in trace_files[0].read_text().splitlines()}
        assert {"session.tick", "session.final_validation", "server.validation"} <= names

    def test_a_pooled_run_counts_every_validation_point(self, tiny_run_config, monkeypatch):
        """Points the solver workers evaluate are counted when recorded, inside result() too."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = replace(
            tiny_run_config,
            heat=Heat2DConfig(grid_size=64, n_timesteps=100),  # a trajectory worth a worker
            n_validation_trajectories=21,  # three 1024-row batches: evaluated by the workers
        )
        telemetry.configure(metrics=True)
        session = TrainingSession(config)
        assert session._workers is not None
        result = session.run()

        counters = telemetry.metrics().counter_values()
        assert counters["repro_session_validations_total"] == float(
            len(result.history.validation_losses)
        )
        assert counters["repro_validation_wait_seconds_total"] >= 0.0


class TestPerRunAttribution:
    def test_serial_runs_carry_counter_deltas(self, tiny_run_config):
        telemetry.configure(metrics=True)
        results = StudyRunner(base_config=tiny_run_config, study_name="tele").run_all(GRID)
        for run in results:
            assert run.telemetry["repro_session_ticks_total"] > 0
            assert run.telemetry["_worker_pid"] > 0
        summary = results.telemetry_summary()
        assert "_worker_pid" not in summary
        assert summary["repro_session_ticks_total"] == sum(
            run.telemetry["repro_session_ticks_total"] for run in results
        )

    def test_disabled_runs_carry_no_telemetry(self, tiny_run_config):
        results = StudyRunner(base_config=tiny_run_config, study_name="off").run_all(GRID)
        assert all(run.telemetry == {} for run in results)
        assert results.telemetry_summary() == {}

    def test_process_backend_merge_matches_serial(self, tiny_run_config):
        telemetry.configure(metrics=True)
        serial = StudyRunner(base_config=tiny_run_config, study_name="tele").run_all(GRID)
        process = StudyRunner(
            base_config=tiny_run_config, study_name="tele", backend="process", max_workers=2
        ).run_all(GRID)
        # Deterministic merge: identical runs produce identical per-run counter
        # deltas whichever process executed them (worker pid aside).
        for serial_run, process_run in zip(serial, process):
            stripped_serial = {
                k: v for k, v in serial_run.telemetry.items() if not k.startswith("_")
            }
            stripped_process = {
                k: v for k, v in process_run.telemetry.items() if not k.startswith("_")
            }
            assert stripped_serial == stripped_process
        assert serial.telemetry_summary() == process.telemetry_summary()
