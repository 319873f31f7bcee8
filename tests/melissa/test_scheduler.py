"""Tests for the batch-scheduler simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.melissa.scheduler import BatchScheduler, JobState


def make_scheduler(job_limit=3, delay=0, seed=0):
    return BatchScheduler(job_limit=job_limit, rng=np.random.default_rng(seed), max_start_delay=delay)


class TestSubmission:
    def test_submit_creates_queued_job(self):
        scheduler = make_scheduler()
        job = scheduler.submit(0)
        assert job.state == JobState.QUEUED
        assert scheduler.n_queued == 1

    def test_duplicate_submit_rejected(self):
        scheduler = make_scheduler()
        scheduler.submit(0)
        with pytest.raises(ValueError):
            scheduler.submit(0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_scheduler(job_limit=0)
        with pytest.raises(ValueError):
            BatchScheduler(job_limit=1, rng=np.random.default_rng(), max_start_delay=-1)


class TestAdvance:
    def test_starts_up_to_job_limit(self):
        scheduler = make_scheduler(job_limit=2)
        for i in range(5):
            scheduler.submit(i)
        started = scheduler.advance()
        assert len(started) == 2
        assert scheduler.n_running == 2
        assert scheduler.n_queued == 3

    def test_completion_frees_slot(self):
        scheduler = make_scheduler(job_limit=1)
        scheduler.submit(0)
        scheduler.submit(1)
        scheduler.advance()
        scheduler.complete(0)
        assert scheduler.advance() == [1]

    def test_complete_requires_running(self):
        scheduler = make_scheduler()
        scheduler.submit(0)
        with pytest.raises(ValueError):
            scheduler.complete(0)

    def test_no_jobs_started_without_capacity(self):
        scheduler = make_scheduler(job_limit=1)
        scheduler.submit(0)
        scheduler.submit(1)
        scheduler.advance()
        assert scheduler.advance() == []

    def test_start_delay_postpones_eligibility(self):
        scheduler = BatchScheduler(job_limit=10, rng=np.random.default_rng(1), max_start_delay=5)
        for i in range(20):
            scheduler.submit(i)
        first_wave = scheduler.advance()
        # With delays up to 5 ticks, not every queued job is eligible on tick 1.
        assert len(first_wave) < 10
        for _ in range(6):
            scheduler.advance()
        # After the delay window has elapsed, the running set fills the limit.
        assert scheduler.n_running == 10

    def test_jitter_can_reorder_start_order(self):
        # With a wide delay window some seed must start a later-submitted job first.
        reordered = False
        for seed in range(20):
            scheduler = BatchScheduler(job_limit=1, rng=np.random.default_rng(seed), max_start_delay=4)
            scheduler.submit(0)
            scheduler.submit(1)
            for _ in range(6):
                started = scheduler.advance()
                if started:
                    if started[0] == 1:
                        reordered = True
                    break
            if reordered:
                break
        assert reordered


class TestSummary:
    def test_summary_counts(self):
        scheduler = make_scheduler(job_limit=1)
        scheduler.submit(0)
        scheduler.submit(1)
        scheduler.advance()
        scheduler.complete(0)
        summary = scheduler.summary()
        assert summary["completed"] == 1
        assert summary["queued"] == 1
        assert summary["total"] == 2
        assert summary["ticks"] == 1

    def test_jobs_in_state(self):
        scheduler = make_scheduler(job_limit=2)
        scheduler.submit(0)
        scheduler.submit(1)
        scheduler.advance()
        assert set(scheduler.jobs_in_state(JobState.RUNNING)) == {0, 1}


class TestSchedulerInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_running_never_exceeds_limit(self, job_limit, delay, n_jobs, seed):
        rng = np.random.default_rng(seed)
        scheduler = BatchScheduler(job_limit=job_limit, rng=rng, max_start_delay=delay)
        for i in range(n_jobs):
            scheduler.submit(i)
        completed = 0
        for _ in range(200):
            scheduler.advance()
            assert scheduler.n_running <= job_limit
            # Randomly complete some running jobs.
            for job_id in list(scheduler.jobs_in_state(JobState.RUNNING)):
                if rng.random() < 0.5:
                    scheduler.complete(job_id)
                    completed += 1
            if completed == n_jobs:
                break
        assert completed == n_jobs
