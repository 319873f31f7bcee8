"""Job-store tests: persistence, dedupe, queue semantics, crash recovery."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service.schemas import validate_submission
from repro.service.store import JobStore, UnknownJobError


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "svc")


def submit(store, make_payload, **kwargs):
    return store.submit(validate_submission(make_payload(**kwargs)))


class TestSubmission:
    def test_submit_persists_and_round_trips(self, store, make_payload):
        record, deduplicated = submit(store, make_payload)
        assert not deduplicated
        assert record.state == "queued"
        assert record.runs_total == 2
        # a fresh store instance over the same root sees the identical record
        assert JobStore(store.root).get(record.id) == record

    def test_job_json_is_valid_json_on_disk(self, store, make_payload):
        record, _ = submit(store, make_payload)
        payload = json.loads((store.job_dir(record.id) / "job.json").read_text())
        assert payload["id"] == record.id
        assert payload["spec"]["study_name"] == "svc-test"

    def test_duplicate_submission_dedupes_to_same_job(self, store, make_payload):
        first, dedup_first = submit(store, make_payload)
        second, dedup_second = submit(store, make_payload)
        assert (dedup_first, dedup_second) == (False, True)
        assert first.id == second.id
        assert len(store.list()) == 1

    def test_different_submissions_get_different_jobs(self, store, make_payload):
        a, _ = submit(store, make_payload, seed=0)
        b, _ = submit(store, make_payload, seed=1)
        assert a.id != b.id
        assert len(store.list()) == 2

    def test_unknown_job_raises(self, store):
        with pytest.raises(UnknownJobError):
            store.get("no-such-job")
        with pytest.raises(UnknownJobError):
            store.events("no-such-job")


class TestQueue:
    def test_claim_returns_at_once_when_stop_is_set_and_notified(self, store):
        import time

        stop = threading.Event()
        claimed = []
        waiter = threading.Thread(
            target=lambda: claimed.append(store.claim_next(timeout=5.0, stop=stop))
        )
        waiter.start()
        time.sleep(0.1)  # inside the condition wait
        start = time.perf_counter()
        stop.set()
        store.notify()
        waiter.join(timeout=2.0)
        assert not waiter.is_alive() and claimed == [None]
        assert time.perf_counter() - start < 0.3

    def test_job_claimed_in_the_shutdown_race_is_requeued(self, store, make_payload):
        """Stop lands between the claim's stop check and the claim itself."""
        from repro.service.worker import Worker

        record, _ = submit(store, make_payload)
        stop = threading.Event()
        real_claim = store.claim_next

        def claim_then_stop(timeout=None, **_):
            claimed = real_claim(timeout=timeout)  # the check passed: stop was not set yet
            stop.set()
            return claimed

        store.claim_next = claim_then_stop
        worker = Worker(store, stop)
        worker.run()  # returns: the claimed job goes straight back
        assert store.get(record.id).state == "queued"
        assert [e["event"] for e in store.events(record.id)][-2:] == ["started", "interrupted"]

    def test_claim_marks_running_and_is_exclusive(self, store, make_payload):
        record, _ = submit(store, make_payload)
        claimed = store.claim_next(timeout=0)
        assert claimed.id == record.id
        assert claimed.state == "running"
        assert store.claim_next(timeout=0) is None

    def test_claim_next_is_fifo(self, store, make_payload):
        a, _ = submit(store, make_payload, seed=0)
        b, _ = submit(store, make_payload, seed=1)
        assert store.claim_next(timeout=0).id == a.id
        assert store.claim_next(timeout=0).id == b.id

    def test_claim_next_wakes_on_submit(self, store, make_payload):
        claimed = []
        thread = threading.Thread(
            target=lambda: claimed.append(store.claim_next(timeout=5.0))
        )
        thread.start()
        record, _ = submit(store, make_payload)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert claimed[0].id == record.id

    def test_requeue_returns_job_to_queue(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.requeue(record.id, reason="test")
        assert store.get(record.id).state == "queued"
        events = [e["event"] for e in store.events(record.id)]
        assert events == ["queued", "started", "interrupted"]

    def test_recover_requeues_jobs_a_dead_server_left_running(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        # a SIGKILLed server performs no cleanup: the job simply stays
        # "running" on disk; a fresh store over the same root must recover it
        fresh = JobStore(store.root)
        assert fresh.get(record.id).state == "running"
        assert fresh.recover() == [record.id]
        assert fresh.get(record.id).state == "queued"
        assert fresh.claim_next(timeout=0).id == record.id

    def test_recover_with_nothing_running_is_a_no_op(self, store, make_payload):
        submit(store, make_payload)
        assert store.recover() == []


class TestLifecycle:
    def test_done_path_and_events(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.record_run_finished(record.id, "svc-test:0", {"final_train_loss": 1.0})
        store.record_run_finished(record.id, "svc-test:1", {"final_train_loss": 2.0})
        store.mark_done(record.id)
        final = store.get(record.id)
        assert final.state == "done"
        assert final.runs_done == 2
        events = store.events(record.id)
        assert [e["event"] for e in events] == [
            "queued", "started", "run_finished", "run_finished", "done",
        ]
        assert [e["seq"] for e in events] == list(range(5))
        assert events[2]["run"] == "svc-test:0"
        assert events[2]["metrics"] == {"final_train_loss": 1.0}

    def test_events_since_filters(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        assert [e["event"] for e in store.events(record.id, since=0)] == ["started"]
        assert store.events(record.id, since=10) == []

    def test_failed_records_error(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.mark_failed(record.id, "ValueError: boom")
        final = store.get(record.id)
        assert final.state == "failed"
        assert "boom" in final.error

    def test_dedupe_applies_to_done_jobs(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.mark_done(record.id)
        again, deduplicated = submit(store, make_payload)
        assert deduplicated
        assert again.state == "done"

    def test_resubmission_requeues_failed_job(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.mark_failed(record.id, "boom")
        again, deduplicated = submit(store, make_payload)
        assert not deduplicated
        assert again.id == record.id
        assert again.state == "queued"
        assert again.error is None
        assert again.attempts == 2

    def test_torn_progress_line_is_skipped(self, store, make_payload):
        record, _ = submit(store, make_payload)
        with store.progress_path(record.id).open("a") as stream:
            stream.write('{"seq": 1, "ev')  # a crash mid-append
        assert [e["event"] for e in store.events(record.id)] == ["queued"]
        # and the next append still gets a fresh, dense sequence number
        entry = store.append_event(record.id, "started")
        assert entry["seq"] == 1
        # ...stands on its own line, readable by this store and a fresh one
        store.append_event(record.id, "done")
        for reader in (store, JobStore(store.root)):
            events = reader.events(record.id)
            assert [e["event"] for e in events] == ["queued", "started", "done"]
            assert [e["seq"] for e in events] == [0, 1, 2]
        assert JobStore(store.root).append_event(record.id, "queued")["seq"] == 3


class TestCancel:
    def test_cancel_queued_is_immediate(self, store, make_payload):
        record, _ = submit(store, make_payload)
        cancelled = store.request_cancel(record.id)
        assert cancelled.state == "cancelled"
        assert store.claim_next(timeout=0) is None

    def test_cancel_running_sets_flag(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        requested = store.request_cancel(record.id)
        assert requested.state == "running"
        assert store.cancel_requested(record.id)

    def test_cancel_terminal_job_is_a_no_op(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.claim_next(timeout=0)
        store.mark_done(record.id)
        assert store.request_cancel(record.id).state == "done"

    def test_resubmission_requeues_cancelled_job(self, store, make_payload):
        record, _ = submit(store, make_payload)
        store.request_cancel(record.id)
        again, deduplicated = submit(store, make_payload)
        assert not deduplicated
        assert again.state == "queued"
