"""A submission that names no backend runs in study-worker processes.

The default changes how a job runs, not what it computes: results and job
ids equal an explicit ``serial`` job's, ``/v1/metrics`` counts the runs
once wherever they executed, and each service worker's jobs get a share of
the usable CPUs.
"""

from __future__ import annotations

import re

import pytest

from repro.service import ServiceClient, StudyService
from repro.service import worker as worker_module
from repro.service.schemas import validate_submission
from repro.service.store import JobStore
from repro.service.worker import WorkerPool
from repro.workflow.executor import TIMING_METRICS

pytestmark = pytest.mark.slow  # live servers + real studies (see README testing section)


def _serve(root, payload, backend):
    """Submit ``payload`` to a fresh service over ``root``; the finished job's record, result and exposition."""
    service = StudyService(root, port=0, n_workers=1, checkpoint_every=10).start()
    try:
        client = ServiceClient(service.url, timeout=30.0)
        job = client.submit(
            payload["study_name"], payload["config"], payload["configurations"], backend=backend
        )
        final = client.wait(job["id"], timeout=120.0)
        assert final["state"] == "done", final.get("error")
        return client.job(job["id"]), client.result(job["id"]), client.metrics()
    finally:
        service.stop()


def _comparable(result) -> list:
    return [
        dict(run, metrics={k: v for k, v in run["metrics"].items() if k not in TIMING_METRICS},
             telemetry=None)
        for run in result["runs"]
    ]


def _exposed(text: str, name: str) -> float:
    (value,) = re.findall(rf"^{name} (\S+)$", text, flags=re.MULTILINE)
    return float(value)


class TestDefaultBackend:
    def test_default_serial_and_shm_jobs_agree(self, make_payload, tmp_path):
        payload = make_payload(n_runs=2)
        served = {
            backend: _serve(tmp_path / str(backend), payload, backend)
            for backend in (None, "serial", "shm")
        }
        records = {backend: record for backend, (record, _, _) in served.items()}
        results = {backend: _comparable(result) for backend, (_, result, _) in served.items()}
        assert {b: r["spec"]["backend"] for b, r in records.items()} == {
            None: "process", "serial": "serial", "shm": "shm"
        }
        assert records[None]["id"] == records["serial"]["id"] == records["shm"]["id"]
        assert results[None] == results["serial"] == results["shm"]

    @pytest.mark.parametrize("backend", [None, "serial"])
    def test_metrics_count_a_job_once(self, backend, make_payload, tmp_path):
        record, _, text = _serve(tmp_path / "svc", make_payload(n_runs=2), backend)
        ticks = record["metrics"]["repro_session_ticks_total"]
        assert ticks > 0
        assert _exposed(text, "repro_session_ticks_total") == ticks


class TestStudyWorkerShare:
    @pytest.mark.parametrize("cpus, n_workers, share", [(8, 1, 8), (8, 2, 4), (8, 3, 2), (1, 2, 1)])
    def test_each_service_worker_gets_a_share_of_the_cpus(
        self, cpus, n_workers, share, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(worker_module, "usable_cpus", lambda: cpus)
        pool = WorkerPool(JobStore(tmp_path / "svc"), n_workers=n_workers)
        assert [worker.max_workers for worker in pool.workers] == [share] * n_workers

    @pytest.mark.parametrize("chosen, used", [(None, 4), (1, 1)])
    def test_a_job_without_max_workers_uses_the_share(
        self, chosen, used, make_payload, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(worker_module, "usable_cpus", lambda: 8)
        seen = []

        class Runner:
            def __init__(self, **kwargs):
                seen.append(kwargs["max_workers"])

            def run_all(self, *args, **kwargs):
                return []

        monkeypatch.setattr(worker_module, "StudyRunner", Runner)
        store = JobStore(tmp_path / "svc")
        store.submit(validate_submission(dict(make_payload(), max_workers=chosen)))
        worker = WorkerPool(store, n_workers=2).workers[0]
        worker._run_study(store.claim_next(timeout=0))
        assert seen == [used]
