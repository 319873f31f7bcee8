"""Persistent, restart-safe job store of the study service.

One directory per job under ``<root>/jobs/``::

    <root>/jobs/<job_id>/
        job.json                 # JobRecord: spec + state + counters (atomic)
        progress.jsonl           # progress events, seq-numbered (AppendLog)
        runs.jsonl               # completed-run records (JsonlCheckpoint)
        runs.jsonl.snapshots/    # per-run mid-run session snapshots (PR 3)
        result.json              # final StudyResults (written atomically)

The store is the single source of truth shared by the HTTP handlers and the
worker pool; every mutation happens under one process-wide lock and lands on
disk before it is observable, so a ``kill -9`` at any point leaves a state
the next server start can recover from:

* ``job.json``, ``metrics.json`` and ``result.json`` are replaced whole
  (:func:`~repro.utils.durable.atomic_write`);
* progress events go through one :class:`~repro.utils.durable.AppendLog`
  per job — each event one fsync-ed line, a torn line skipped on read, and
  ``seq`` the event's dense index in the file;
* :meth:`JobStore.recover` re-queues every job found ``running`` — its
  completed runs are in ``runs.jsonl`` and its in-flight run in the snapshot
  directory, so re-execution resumes instead of restarting.

Job identity *is* the submission fingerprint
(:func:`~repro.service.schemas.job_fingerprint`): submitting the same study
twice returns the existing job — deduplication holds across restarts with no
separate index to keep consistent.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.service.schemas import (
    JOB_STATES,
    TERMINAL_STATES,
    JobSpec,
    job_fingerprint,
)
from repro.utils.durable import AppendLog, atomic_write
from repro.utils.logging import get_logger

__all__ = ["JobRecord", "JobStore", "UnknownJobError"]

_LOGGER = get_logger("service")


class UnknownJobError(KeyError):
    """No job with the requested id exists (HTTP 404 on the wire)."""


@dataclass(frozen=True)
class JobRecord:
    """The stored state of one job (the ``job.json`` payload)."""

    id: str
    spec: JobSpec
    state: str = "queued"
    #: total runs of the study (campaign jobs: static upper-bound estimate)
    runs_total: int = 0
    #: completed-run count (monotonic within one execution; authoritative
    #: progress lives in runs.jsonl)
    runs_done: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: error message of a failed job
    error: Optional[str] = None
    #: set by cancel requests; the worker honours it at the next run boundary
    cancel_requested: bool = False
    #: number of times the job was (re)queued — 1 on first submission
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        data = {f: getattr(self, f) for f in self.__dataclass_fields__ if f != "spec"}
        data["spec"] = self.spec.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        kwargs = dict(data)
        kwargs["spec"] = JobSpec.from_dict(kwargs["spec"])
        return cls(**kwargs)


@dataclass
class JobStore:
    """On-disk job queue + per-job artifact directories (see module docstring)."""

    root: Path
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    #: notified whenever a job becomes claimable (submit / re-queue / recover)
    _queued: threading.Condition = field(init=False, repr=False)
    #: one progress log per job, so ``seq`` is counted from disk only once
    _progress: Dict[str, AppendLog] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._queued = threading.Condition(self._lock)

    # ------------------------------------------------------------ layout
    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def runs_path(self, job_id: str) -> Path:
        """The job's JSONL completed-run checkpoint (``run_all`` resume file)."""
        return self.job_dir(job_id) / "runs.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def progress_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "progress.jsonl"

    def metrics_path(self, job_id: str) -> Path:
        """The job's telemetry snapshot (merged per-run counter deltas)."""
        return self.job_dir(job_id) / "metrics.json"

    # ------------------------------------------------------------ telemetry
    def write_metrics(self, job_id: str, metrics: Dict[str, float]) -> None:
        """Atomically persist a job's merged telemetry counters.

        Written after every completed run, so ``GET /v1/jobs/<id>`` serves a
        live mid-job snapshot; observation only, never read back by the
        worker.
        """
        atomic_write(self.metrics_path(job_id), json.dumps(metrics, indent=2, sort_keys=True))

    def read_metrics(self, job_id: str) -> Dict[str, float]:
        """The job's latest telemetry snapshot (empty when never written)."""
        path = self.metrics_path(job_id)
        if not path.exists():
            return {}
        try:
            return {str(k): float(v) for k, v in json.loads(path.read_text()).items()}
        except (json.JSONDecodeError, TypeError, ValueError):
            return {}

    # ------------------------------------------------------------ records
    def _record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def _write(self, record: JobRecord) -> None:
        atomic_write(self._record_path(record.id), json.dumps(record.to_dict(), indent=2))

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            path = self._record_path(job_id)
            if not path.exists():
                raise UnknownJobError(job_id)
            return JobRecord.from_dict(json.loads(path.read_text()))

    def list(self) -> List[JobRecord]:
        """Every stored job, oldest submission first."""
        with self._lock:
            records = []
            for path in self.jobs_dir.glob("*/job.json"):
                records.append(JobRecord.from_dict(json.loads(path.read_text())))
            return sorted(records, key=lambda r: (r.submitted_at, r.id))

    def _update(self, job_id: str, **changes: Any) -> JobRecord:
        record = replace(self.get(job_id), **changes)
        if record.state not in JOB_STATES:
            raise ValueError(f"unknown job state {record.state!r}")
        self._write(record)
        return record

    # ------------------------------------------------------------ submission
    def submit(self, spec: JobSpec) -> tuple:
        """Store a submission; returns ``(record, deduplicated)``.

        The job id is the submission fingerprint, so an identical submission
        maps onto the existing job: live (``queued``/``running``) and ``done``
        jobs are returned as-is (``deduplicated=True``); ``failed`` and
        ``cancelled`` jobs are re-queued for another attempt.
        """
        job_id = job_fingerprint(spec)
        with self._queued:
            try:
                existing = self.get(job_id)
            except UnknownJobError:
                existing = None
            if existing is not None:
                if existing.state in ("queued", "running", "done"):
                    return existing, True
                record = self._update(
                    job_id,
                    state="queued",
                    error=None,
                    cancel_requested=False,
                    finished_at=None,
                    attempts=existing.attempts + 1,
                )
                self.append_event(job_id, "queued", resubmitted=True, attempt=record.attempts)
                self._queued.notify_all()
                return record, False
            record = JobRecord(
                id=job_id,
                spec=spec,
                state="queued",
                runs_total=spec.total_runs(),
                submitted_at=time.time(),
            )
            self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
            self._write(record)
            self.append_event(job_id, "queued")
            self._queued.notify_all()
            return record, False

    # ------------------------------------------------------------ queue
    def claim_next(
        self, timeout: Optional[float] = None, stop: Optional[threading.Event] = None
    ) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job (``queued`` → ``running``).

        Blocks up to ``timeout`` seconds for a job to become claimable;
        returns ``None`` on timeout, or as soon as ``stop`` is set and
        :meth:`notify` has woken the wait.  Safe to call from several worker
        threads — each job is handed to exactly one claimant.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._queued:
            while True:
                if stop is not None and stop.is_set():
                    return None
                for record in self.list():
                    if record.state == "queued":
                        claimed = self._update(
                            record.id, state="running", started_at=time.time()
                        )
                        self.append_event(record.id, "started", attempt=claimed.attempts)
                        return claimed
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._queued.wait(remaining)

    def requeue(self, job_id: str, reason: str = "interrupted") -> JobRecord:
        """Put a running job back in the queue (graceful shutdown path)."""
        with self._queued:
            record = self._update(job_id, state="queued", started_at=None)
            self.append_event(job_id, "interrupted", reason=reason)
            self._queued.notify_all()
            return record

    def recover(self) -> List[str]:
        """Re-queue every job left ``running`` by a dead server.

        Called once at service start-up, before workers spin up.  The
        re-queued jobs resume from their ``runs.jsonl`` records and session
        snapshots, so no completed work repeats.
        """
        with self._queued:
            recovered = []
            for record in self.list():
                if record.state == "running":
                    self._update(record.id, state="queued", started_at=None)
                    self.append_event(record.id, "interrupted", reason="server restart")
                    recovered.append(record.id)
            if recovered:
                _LOGGER.info("recovered %d interrupted job(s): %s", len(recovered), recovered)
                self._queued.notify_all()
            return recovered

    def notify(self) -> None:
        """Wake every blocked :meth:`claim_next` caller (shutdown path)."""
        with self._queued:
            self._queued.notify_all()

    # ------------------------------------------------------------ lifecycle
    def mark_done(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._update(job_id, state="done", finished_at=time.time())
            self.append_event(job_id, "done", runs_total=record.runs_total)
            return record

    def mark_failed(self, job_id: str, error: str) -> JobRecord:
        with self._lock:
            record = self._update(
                job_id, state="failed", error=str(error), finished_at=time.time()
            )
            self.append_event(job_id, "failed", error=str(error))
            return record

    def mark_cancelled(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._update(job_id, state="cancelled", finished_at=time.time())
            self.append_event(job_id, "cancelled")
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs immediately, running ones at the next
        run boundary (terminal jobs are returned unchanged)."""
        with self._lock:
            record = self.get(job_id)
            if record.state in TERMINAL_STATES:
                return record
            if record.state == "queued":
                return self.mark_cancelled(job_id)
            return self._update(job_id, cancel_requested=True)

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            return self.get(job_id).cancel_requested

    def record_run_finished(self, job_id: str, name: str, metrics: Dict[str, float]) -> None:
        """Progress bookkeeping as each run of a job's study completes."""
        with self._lock:
            record = self.get(job_id)
            self._update(job_id, runs_done=record.runs_done + 1)
            self.append_event(
                job_id,
                "run_finished",
                run=name,
                runs_done=record.runs_done + 1,
                runs_total=record.runs_total,
                metrics=metrics,
            )

    # ------------------------------------------------------------ progress
    def _progress_log(self, job_id: str) -> AppendLog:
        return self._progress.setdefault(job_id, AppendLog(self.progress_path(job_id)))

    def append_event(self, job_id: str, event: str, **payload: Any) -> Dict[str, Any]:
        """Append one progress event; ``seq`` is dense and 0-based per job."""
        with self._lock:
            log = self._progress_log(job_id)
            entry = {"seq": len(log), "ts": time.time(), "event": event, **payload}
            log.append(json.dumps(entry))
            return entry

    def events(self, job_id: str, since: int = -1) -> List[Dict[str, Any]]:
        """Progress events with ``seq > since`` (``since=-1`` → everything)."""
        with self._lock:
            if not self._record_path(job_id).exists():
                raise UnknownJobError(job_id)
            return self._progress_log(job_id).read(since)
