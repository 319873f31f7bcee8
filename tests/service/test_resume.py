"""Restart-safe resume: interrupted jobs complete with bit-identical results.

These tests drive :class:`~repro.service.worker.Worker` synchronously (no
threads), which makes the interruption point deterministic: the stop event is
set from inside the first ``run_finished`` bookkeeping call, so the worker
re-queues the job with exactly one run checkpointed.  A *fresh* store/worker
over the same directory — a new server process, as far as the on-disk state
can tell — must then complete the job, splice the finished run instead of
re-executing it, and produce results bit-identical to an uninterrupted serial
:class:`~repro.workflow.study.StudyRunner` reference.

The companion real-SIGKILL variant (victim server killed with ``kill -9``
mid-study, restarted, compared against the same reference) lives in
``scripts/service_smoke.py`` and runs in CI.
"""

from __future__ import annotations

import threading

import pytest
from faults import interrupt_after_runs  # tests/campaign/faults.py (see tests/conftest.py)

from repro.service.schemas import validate_submission
from repro.service.store import JobStore
from repro.service.worker import Worker
from repro.workflow.executor import TIMING_METRICS
from repro.workflow.results import StudyResults
from repro.workflow.study import StudyRunner


def _reference_results(spec) -> StudyResults:
    """The uninterrupted serial reference of a submission's study."""
    runner = StudyRunner(base_config=spec.build_base_config(), study_name=spec.study_name)
    return runner.run_all(spec.configurations, name_key=spec.name_key)


def _comparable(results: StudyResults):
    """Everything a run produced except the wall-clock timing metrics."""
    return [
        {
            "name": run.name,
            "config": run.config,
            "workload": run.workload,
            "seed": run.seed,
            "digest": run.digest,
            "metrics": {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS},
            "series": run.series,
        }
        for run in results.runs
    ]


@pytest.fixture
def submitted(tmp_path, make_payload):
    store = JobStore(tmp_path / "svc")
    spec = validate_submission(make_payload(n_runs=3))
    record, _ = store.submit(spec)
    return store, spec, record


class TestInterruptedJobResume:
    def test_crash_restart_resume_is_bit_identical(self, submitted):
        store, spec, record = submitted
        reference = _reference_results(spec)

        # --- first server: interrupted right after the first run finishes
        stop_event = threading.Event()
        interrupt_after_runs(store, stop_event, n_runs=1)
        worker = Worker(store, stop_event, checkpoint_every=8)
        worker.execute(store.claim_next(timeout=0))

        interrupted = store.get(record.id)
        assert interrupted.state == "queued"  # re-queued, not failed/lost
        assert interrupted.runs_done == 1
        first_lines = store.runs_path(record.id).read_text().splitlines()
        assert len(first_lines) == 1  # exactly the finished run is checkpointed

        # --- second server: fresh store/worker over the same directory
        fresh_store = JobStore(store.root)
        assert fresh_store.recover() == []  # clean interruption already re-queued
        worker = Worker(fresh_store, threading.Event(), checkpoint_every=8)
        worker.execute(fresh_store.claim_next(timeout=0))

        final = fresh_store.get(record.id)
        assert final.state == "done"
        lines = fresh_store.runs_path(record.id).read_text().splitlines()
        assert len(lines) == 3  # run #1 was spliced, not re-executed
        assert lines[0] == first_lines[0]

        served = StudyResults.load_json(fresh_store.result_path(record.id))
        assert _comparable(served) == _comparable(reference)

    def test_sigkill_style_crash_is_recovered_then_resumed(self, submitted):
        store, spec, record = submitted
        reference = _reference_results(spec)

        # simulate a hard kill: the job is claimed (state=running on disk)
        # and the first run completes, but the server dies with no cleanup —
        # no requeue, no marker, nothing
        stop_event = threading.Event()
        interrupt_after_runs(store, stop_event, n_runs=1)
        worker = Worker(store, stop_event, checkpoint_every=8)
        claimed = store.claim_next(timeout=0)
        try:
            worker._run_study(claimed)
        except Exception:
            pass
        assert store.get(record.id).state == "running"  # dangling, as after kill -9

        fresh_store = JobStore(store.root)
        assert fresh_store.recover() == [record.id]  # start-up recovery path
        worker = Worker(fresh_store, threading.Event(), checkpoint_every=8)
        worker.execute(fresh_store.claim_next(timeout=0))

        assert fresh_store.get(record.id).state == "done"
        served = StudyResults.load_json(fresh_store.result_path(record.id))
        assert _comparable(served) == _comparable(reference)

    def test_result_file_is_the_study_results_json(self, submitted, tmp_path):
        store, _, record = submitted
        Worker(store, threading.Event(), checkpoint_every=8).execute(store.claim_next(timeout=0))
        served = store.result_path(record.id)
        StudyResults.load_json(served).save_json(tmp_path / "again.json")
        assert served.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_mid_run_session_snapshots_are_written(self, submitted):
        store, spec, record = submitted
        stop_event = threading.Event()
        interrupt_after_runs(store, stop_event, n_runs=1)
        Worker(store, stop_event, checkpoint_every=8).execute(store.claim_next(timeout=0))
        snapshots = store.runs_path(record.id).parent / "runs.jsonl.snapshots"
        run_dirs = sorted(p.name for p in snapshots.iterdir() if p.is_dir())
        assert len(run_dirs) >= 1
        assert any(snapshots.glob("*/step-*/manifest.json"))


class TestWorkerLifecycle:
    def test_completed_job_writes_result_and_marks_done(self, submitted):
        store, spec, record = submitted
        Worker(store, threading.Event(), checkpoint_every=8).execute(
            store.claim_next(timeout=0)
        )
        final = store.get(record.id)
        assert final.state == "done"
        assert final.runs_done == 3
        assert store.result_path(record.id).exists()
        events = [e["event"] for e in store.events(record.id)]
        assert events == [
            "queued", "started", "run_finished", "run_finished", "run_finished", "done",
        ]

    def test_study_blowing_up_marks_failed_not_crash(self, submitted, monkeypatch):
        store, spec, record = submitted

        def explode(self, claimed):
            raise ValueError("solver diverged")

        monkeypatch.setattr(Worker, "_run_study", explode)
        Worker(store, threading.Event(), checkpoint_every=0).execute(
            store.claim_next(timeout=0)
        )
        final = store.get(record.id)
        assert final.state == "failed"
        assert final.error == "ValueError: solver diverged"
        assert [e["event"] for e in store.events(record.id)][-1] == "failed"

    def test_cancel_requested_before_start_cancels_without_running(self, submitted):
        store, spec, record = submitted
        claimed = store.claim_next(timeout=0)
        store.request_cancel(record.id)
        Worker(store, threading.Event(), checkpoint_every=8).execute(claimed)
        assert store.get(record.id).state == "cancelled"
        assert not store.runs_path(record.id).exists()

    def test_cancel_mid_job_stops_at_run_boundary(self, submitted):
        store, spec, record = submitted
        bookkeeping = store.record_run_finished

        def cancel_after_first(job_id, name, metrics):
            bookkeeping(job_id, name, metrics)
            store.request_cancel(job_id)

        store.record_run_finished = cancel_after_first  # type: ignore[method-assign]
        Worker(store, threading.Event(), checkpoint_every=8).execute(
            store.claim_next(timeout=0)
        )
        final = store.get(record.id)
        assert final.state == "cancelled"
        assert len(store.runs_path(record.id).read_text().splitlines()) == 1
