"""End-to-end HTTP tests against a live ephemeral-port service.

One :class:`~repro.service.server.StudyService` per test (the
``live_service`` fixture), driven exclusively through the stdlib
:class:`~repro.service.client.ServiceClient` — the same path external users
take.  Studies here are tiny (seconds per job), so tests wait for real
completions rather than mocking the engine.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import SHUTDOWN_MARKER, ServiceClient, ServiceError

pytestmark = pytest.mark.slow  # live servers + real studies (see README testing section)


@pytest.fixture
def client(live_service):
    return ServiceClient(live_service.url, timeout=30.0)


class TestSubmitAndInspect:
    def test_submit_runs_to_done_with_result(self, client, make_payload):
        payload = make_payload(n_runs=2)
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        assert job["state"] in ("queued", "running")
        assert not job["deduplicated"]
        assert job["runs_total"] == 2

        final = client.wait(job["id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["runs_done"] == 2

        result = client.result(job["id"])
        assert result["study"] == "svc-test"
        assert [run["name"] for run in result["runs"]] == ["svc-test:0", "svc-test:1"]
        assert all("final_train_loss" in run["metrics"] for run in result["runs"])

    def test_duplicate_submission_dedupes_over_http(self, client, make_payload):
        payload = make_payload()
        first = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        second = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        assert second["deduplicated"]
        assert second["id"] == first["id"]
        assert len(client.jobs()) == 1

    def test_the_retired_config_key_is_accepted_and_dedupes(self, client, make_payload):
        payload = make_payload()
        first = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        config = dict(payload["config"], record_sample_statistics=True)
        head, *rest = payload["configurations"]
        configurations = [dict(head, record_sample_statistics=True), *rest]
        second = client.submit(payload["study_name"], config, configurations)
        assert second["deduplicated"]
        assert second["id"] == first["id"]  # the id is the job fingerprint

    def test_jobs_listing_and_single_job_agree(self, client, make_payload):
        payload = make_payload()
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        listed = client.jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        assert client.job(job["id"])["id"] == job["id"]

    def test_health_reports_jobs_and_version(self, client, make_payload):
        from repro import __version__

        payload = make_payload()
        client.submit(payload["study_name"], payload["config"], payload["configurations"])
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["jobs"]["total"] == 1
        assert health["workers"] == 1


class TestProgress:
    def test_events_poll_to_terminal_with_since_cursor(self, client, make_payload):
        payload = make_payload(n_runs=2)
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        client.wait(job["id"], timeout=120.0)

        events = client.events(job["id"])
        names = [e["event"] for e in events]
        assert names == ["queued", "started", "run_finished", "run_finished", "done"]
        # the polling cursor: everything strictly after seq resumes cleanly
        tail = client.events(job["id"], since=events[1]["seq"])
        assert [e["event"] for e in tail] == ["run_finished", "run_finished", "done"]

    def test_stream_yields_jsonl_until_terminal_event(self, client, make_payload):
        payload = make_payload(n_runs=2)
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        streamed = list(client.stream(job["id"]))  # server closes after "done"
        assert [e["event"] for e in streamed] == [
            "queued", "started", "run_finished", "run_finished", "done",
        ]
        assert streamed[2]["run"] == "svc-test:0"
        assert "final_train_loss" in streamed[2]["metrics"]

    def test_stream_with_since_replays_only_the_tail(self, client, make_payload):
        payload = make_payload()
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        client.wait(job["id"], timeout=120.0)
        streamed = list(client.stream(job["id"], since=1))
        assert [e["event"] for e in streamed] == ["run_finished", "run_finished", "done"]


class TestErrors:
    def test_result_is_409_until_done(self, client, make_payload):
        # keep the worker busy so the submitted job stays queued
        blocker = make_payload(seed=99, n_runs=3)
        client.submit(blocker["study_name"], blocker["config"], blocker["configurations"])
        payload = make_payload(n_runs=2)
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        client.wait(job["id"], timeout=120.0)
        assert client.result(job["id"])["study"] == "svc-test"

    def test_unknown_job_is_404(self, client):
        for call in (client.job, client.events, client.result, client.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("no-such-job")
            assert excinfo.value.status == 404

    def test_invalid_submission_is_400_with_reason(self, client, make_payload):
        payload = make_payload()
        payload["config"]["not_a_field"] = 1
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload["study_name"], payload["config"], payload["configurations"])
        assert excinfo.value.status == 400
        assert "not_a_field" in str(excinfo.value)

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404


class TestCancel:
    def test_cancel_queued_job_over_http(self, client, make_payload):
        # occupy the single worker so the second job is cancellable while queued
        blocker = make_payload(seed=99, n_runs=3)
        blocker_job = client.submit(
            blocker["study_name"], blocker["config"], blocker["configurations"]
        )
        payload = make_payload()
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] in ("cancelled", "queued")
        final = client.wait(job["id"], timeout=120.0)
        assert final["state"] == "cancelled"
        # the blocker is unaffected
        assert client.wait(blocker_job["id"], timeout=120.0)["state"] == "done"


class TestConcurrency:
    def test_concurrent_submits_and_polls(self, client, live_service, make_payload):
        """Many clients at once: distinct jobs all finish, duplicates dedupe."""
        n_threads, results, errors = 6, {}, []

        def hammer(i):
            try:
                local = ServiceClient(live_service.url, timeout=30.0)
                payload = make_payload(seed=i % 3)  # 6 submissions, 3 distinct studies
                job = local.submit(
                    payload["study_name"], payload["config"], payload["configurations"]
                )
                final = local.wait(job["id"], timeout=120.0)
                results[i] = (job["id"], final["state"])
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        assert not errors
        assert len(results) == n_threads
        assert all(state == "done" for _, state in results.values())
        assert len({job_id for job_id, _ in results.values()}) == 3
        assert len(client.jobs()) == 3


class TestShutdown:
    def test_clean_stop_writes_shutdown_marker(self, tmp_path, make_payload):
        from repro.service import StudyService

        service = StudyService(tmp_path / "svc", port=0, n_workers=1).start()
        try:
            assert (service.root / "server.json").exists()
            assert not (service.root / SHUTDOWN_MARKER).exists()
        finally:
            service.stop()
        assert (service.root / SHUTDOWN_MARKER).exists()

    def test_stop_of_an_idle_service_does_not_wait_out_its_polls(self, tmp_path):
        """The claim wait (0.5 s) and the listener poll (0.5 s) used to be timed out."""
        import time

        from repro.service import StudyService

        service = StudyService(tmp_path / "svc", port=0, n_workers=2).start()
        time.sleep(0.2)  # both workers are inside claim_next by now
        start = time.perf_counter()
        service.stop()
        assert time.perf_counter() - start < 0.3
        assert not service.pool.alive

    def test_restart_recovers_and_finishes_interrupted_job(self, tmp_path, make_payload):
        """Graceful stop mid-queue → restart → job completes from checkpoints."""
        from repro.service import StudyService

        root = tmp_path / "svc"
        service = StudyService(root, port=0, n_workers=1, checkpoint_every=10).start()
        payload = make_payload(n_runs=3)
        client = ServiceClient(service.url, timeout=30.0)
        job = client.submit(payload["study_name"], payload["config"], payload["configurations"])
        service.stop()  # may interrupt mid-study; completed runs are checkpointed

        service = StudyService(root, port=0, n_workers=1, checkpoint_every=10).start()
        try:
            client = ServiceClient(service.url, timeout=30.0)
            final = client.wait(job["id"], timeout=120.0)
            assert final["state"] == "done"
            assert final["runs_done"] == 3
            assert [r["name"] for r in client.result(job["id"])["runs"]] == [
                "svc-test:0", "svc-test:1", "svc-test:2",
            ]
        finally:
            service.stop()
