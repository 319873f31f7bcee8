"""Batch-scheduler simulation.

The real experiments run on a cluster managed by OAR: the launcher submits
client jobs and the scheduler decides when they actually start, with a job
limit ``m`` ("the maximum number of jobs allowed to run simultaneously,
determined by the available resources") and non-deterministic start times
("the inherent uncertainty of the batch scheduler", Section 3.3).

:class:`BatchScheduler` reproduces exactly those two semantics in discrete
ticks: at most ``job_limit`` jobs run at once, and a submitted job waits a
random number of ticks (bounded by ``max_start_delay``) before becoming
eligible to start, so the start *order* of queued jobs can differ from the
submission order — the property that forces the server to steer only
simulations at least ``m`` ids ahead of the newest submission.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["JobState", "SchedulerJob", "BatchScheduler"]


class JobState(enum.Enum):
    """Lifecycle of one scheduler job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass
class SchedulerJob:
    """Book-keeping record of a submitted job."""

    job_id: int
    submitted_tick: int
    eligible_tick: int
    state: JobState = JobState.QUEUED
    started_tick: Optional[int] = None
    completed_tick: Optional[int] = None


class BatchScheduler:
    """Discrete-tick scheduler with a concurrent-job limit and start jitter."""

    def __init__(
        self,
        job_limit: int,
        rng: np.random.Generator,
        max_start_delay: int = 0,
    ) -> None:
        if job_limit < 1:
            raise ValueError("job_limit must be >= 1")
        if max_start_delay < 0:
            raise ValueError("max_start_delay must be non-negative")
        self.job_limit = job_limit
        self.max_start_delay = max_start_delay
        self._rng = rng
        self._jobs: Dict[int, SchedulerJob] = {}
        self._tick = 0

    # --------------------------------------------------------------- queries
    @property
    def tick_count(self) -> int:
        return self._tick

    def job(self, job_id: int) -> SchedulerJob:
        return self._jobs[job_id]

    def jobs_in_state(self, state: JobState) -> List[int]:
        return [jid for jid, job in self._jobs.items() if job.state == state]

    @property
    def n_running(self) -> int:
        return len(self.jobs_in_state(JobState.RUNNING))

    @property
    def n_queued(self) -> int:
        return len(self.jobs_in_state(JobState.QUEUED))

    def has_capacity(self) -> bool:
        return self.n_running < self.job_limit

    # ------------------------------------------------------------ lifecycle
    def submit(self, job_id: int) -> SchedulerJob:
        """Submit a job; it becomes eligible after a random delay of ticks."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already submitted")
        delay = int(self._rng.integers(0, self.max_start_delay + 1)) if self.max_start_delay else 0
        job = SchedulerJob(job_id=job_id, submitted_tick=self._tick, eligible_tick=self._tick + delay)
        self._jobs[job_id] = job
        return job

    def advance(self) -> List[int]:
        """Advance one tick and return the ids of jobs that started this tick.

        Eligible queued jobs start in order of (eligible tick, job id) while
        capacity remains — jitter in the eligible tick is what shuffles the
        start order relative to the submission order.
        """
        self._tick += 1
        started: List[int] = []
        eligible = [
            job
            for job in self._jobs.values()
            if job.state == JobState.QUEUED and job.eligible_tick <= self._tick
        ]
        eligible.sort(key=lambda job: (job.eligible_tick, job.job_id))
        for job in eligible:
            if not self.has_capacity():
                break
            job.state = JobState.RUNNING
            job.started_tick = self._tick
            started.append(job.job_id)
        return started

    def complete(self, job_id: int) -> None:
        """Mark a running job as completed (frees one slot)."""
        job = self._jobs[job_id]
        if job.state != JobState.RUNNING:
            raise ValueError(f"job {job_id} is not running (state={job.state})")
        job.state = JobState.COMPLETED
        job.completed_tick = self._tick

    # --------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, object]:
        """Tick counter and every job record, in submission order."""
        return {
            "tick": self._tick,
            "job_limit": self.job_limit,
            "max_start_delay": self.max_start_delay,
            "jobs": [
                {
                    "job_id": job.job_id,
                    "submitted_tick": job.submitted_tick,
                    "eligible_tick": job.eligible_tick,
                    "state": job.state.value,
                    "started_tick": job.started_tick,
                    "completed_tick": job.completed_tick,
                }
                for job in self._jobs.values()
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if int(state["job_limit"]) != self.job_limit:  # type: ignore[arg-type]
            raise ValueError(
                f"scheduler job_limit mismatch: state has {state['job_limit']}, "
                f"scheduler has {self.job_limit}"
            )
        self._tick = int(state["tick"])  # type: ignore[arg-type]
        self.max_start_delay = int(state["max_start_delay"])  # type: ignore[arg-type]
        self._jobs = {}
        for payload in state["jobs"]:  # type: ignore[union-attr]
            job = SchedulerJob(
                job_id=int(payload["job_id"]),
                submitted_tick=int(payload["submitted_tick"]),
                eligible_tick=int(payload["eligible_tick"]),
                state=JobState(payload["state"]),
                started_tick=None if payload["started_tick"] is None else int(payload["started_tick"]),
                completed_tick=None if payload["completed_tick"] is None else int(payload["completed_tick"]),
            )
            self._jobs[job.job_id] = job

    # ------------------------------------------------------------- summary
    def summary(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            counts[job.state.value] += 1
        counts["total"] = len(self._jobs)
        counts["ticks"] = self._tick
        return counts
