"""Campaign jobs through the study service: validation, dedupe, worker, HTTP."""

from __future__ import annotations

import json
import threading

import pytest

from faults import interrupt_after_runs
from repro.campaign import CampaignManifest, CampaignRunner, CampaignSpec
from repro.service import ServiceClient, StudyService
from repro.service.schemas import (
    SubmissionError,
    job_fingerprint,
    validate_campaign_submission,
    validate_submission,
)
from repro.service.store import JobStore
from repro.service.worker import Worker
from repro.workflow.executor import TIMING_METRICS
from topologies import chain_spec, fanout_spec


def comparable(run_dict):
    return {
        "workload": run_dict["workload"],
        "seed": run_dict["seed"],
        "digest": run_dict["digest"],
        "metrics": {k: v for k, v in run_dict["metrics"].items() if k not in TIMING_METRICS},
        "series": run_dict["series"],
    }


class TestValidation:
    def test_valid_campaign_becomes_a_job_spec(self):
        spec = validate_campaign_submission(fanout_spec())
        assert spec.campaign is not None
        assert spec.study_name == "fanout"
        assert spec.configurations == []
        assert spec.total_runs() == 4

    def test_runs_total_counts_the_seeds_of_a_node(self):
        payload = fanout_spec()
        payload["nodes"][3]["seeds"] = [4, 5]
        assert validate_campaign_submission(payload).total_runs() == 5

    def test_cycle_is_a_submission_error(self):
        payload = fanout_spec()
        payload["nodes"][0]["depends_on"] = ["f3"]
        with pytest.raises(SubmissionError, match="cycle"):
            validate_campaign_submission(payload)

    def test_invalid_spec_is_a_submission_error(self):
        with pytest.raises(SubmissionError, match="at least one node"):
            validate_campaign_submission({"name": "x", "nodes": []})

    def test_plain_job_endpoint_rejects_campaign_payloads(self):
        with pytest.raises(SubmissionError, match="/v1/campaigns"):
            validate_submission({"study_name": "x", "campaign": fanout_spec()})

    def test_fingerprint_ignores_execution_knobs_but_not_structure(self):
        base = job_fingerprint(validate_campaign_submission(fanout_spec()))
        shm = job_fingerprint(
            validate_campaign_submission(dict(fanout_spec(), backend="shm", max_workers=4))
        )
        assert base == shm
        other = job_fingerprint(validate_campaign_submission(chain_spec(name="fanout")))
        assert base != other


class TestWorkerExecution:
    def test_campaign_job_runs_to_done_with_result_and_events(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        spec = validate_campaign_submission(fanout_spec())
        record, deduplicated = store.submit(spec)
        assert not deduplicated
        assert record.runs_total == 4

        # dedupe: identical campaign structure returns the same job
        again, deduplicated = store.submit(validate_campaign_submission(fanout_spec()))
        assert deduplicated and again.id == record.id

        Worker(store, threading.Event(), checkpoint_every=10).execute(
            store.claim_next(timeout=0)
        )
        final = store.get(record.id)
        assert final.state == "done"
        assert final.runs_done == 4  # executed + cache-spliced runs both stream

        result = json.loads(store.result_path(record.id).read_text())
        assert set(result["states"].values()) == {"done"}
        assert result["runs_executed"] == 3
        assert result["cache_hits"] == 1
        assert set(result["nodes"]) == {"root", "f1", "f2", "f3"}

        events = [e["event"] for e in store.events(record.id)]
        assert events.count("node_started") == 4  # cache-only nodes still start
        assert events.count("node_finished") == 4
        assert events[-1] == "done"

    def test_interrupted_campaign_job_resumes_bit_identically(self, tmp_path):
        reference = CampaignRunner(
            CampaignSpec.from_dict(fanout_spec()), tmp_path / "ref"
        ).run()
        assert reference.ok

        store = JobStore(tmp_path / "svc")
        record, _ = store.submit(validate_campaign_submission(fanout_spec()))

        # first server: stops at the first run boundary, job is re-queued
        stop_event = threading.Event()
        interrupt_after_runs(store, stop_event, n_runs=1)
        Worker(store, stop_event, checkpoint_every=10).execute(store.claim_next(timeout=0))
        assert store.get(record.id).state == "queued"
        assert store.get(record.id).runs_done == 1

        # second server: fresh store over the same directory completes it
        fresh = JobStore(store.root)
        assert fresh.recover() == []
        Worker(fresh, threading.Event(), checkpoint_every=10).execute(
            fresh.claim_next(timeout=0)
        )
        assert fresh.get(record.id).state == "done"

        result = json.loads(fresh.result_path(record.id).read_text())
        assert set(result["states"].values()) == {"done"}
        for node, runs in result["nodes"].items():
            expected = [r.to_dict() for r in reference.results[node].runs]
            assert [comparable(r) for r in runs] == [comparable(r) for r in expected]

        # across both invocations no run digest was executed twice
        manifest = CampaignManifest(fresh.job_dir(record.id) / "campaign" / "manifest.jsonl")
        counts = manifest.executed_run_counts()
        assert counts and all(count == 1 for count in counts.values())

    def test_failed_node_fails_the_job_with_named_nodes(self, tmp_path, monkeypatch):
        from faults import CrashAt

        CrashAt("f1", 0, mode="raise").install(monkeypatch)
        store = JobStore(tmp_path / "svc")
        record, _ = store.submit(validate_campaign_submission(fanout_spec()))
        Worker(store, threading.Event(), checkpoint_every=10).execute(
            store.claim_next(timeout=0)
        )
        final = store.get(record.id)
        assert final.state == "failed"
        assert "f1" in final.error


@pytest.mark.slow  # live HTTP server end to end
class TestHttpRoute:
    def test_submit_campaign_over_http_to_done(self, tmp_path):
        service = StudyService(tmp_path / "svc", port=0, n_workers=1, checkpoint_every=10).start()
        try:
            client = ServiceClient(service.url)
            job = client.submit_campaign(fanout_spec())
            assert job["runs_total"] == 4
            # same campaign → same job over HTTP too
            assert client.submit_campaign(fanout_spec())["id"] == job["id"]
            final = client.wait(job["id"], timeout=120.0)
            assert final["state"] == "done"
            result = client.result(job["id"])
            assert set(result["states"].values()) == {"done"}
            assert result["cache_hits"] == 1
        finally:
            service.stop()
