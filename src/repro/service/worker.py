"""Background worker pool draining the job store through the study engine.

Each :class:`Worker` thread loops: claim the oldest queued job, rebuild its
:class:`~repro.workflow.study.StudyRunner`, and drive
``run_all(configurations, resume=<job>/runs.jsonl, checkpoint_every=N)`` —
the exact crash-recovery call shape of the batch engine, pointed at the
job's own artifact directory.  Consequences, all inherited from PR 2/PR 3
machinery rather than re-implemented here:

* every completed run is durably appended to ``runs.jsonl`` as it
  finishes,
* runs additionally snapshot their full session state every
  ``checkpoint_every`` batches into ``runs.jsonl.snapshots/<run>/``,
* re-executing the job (after a crash, restart, or graceful interruption)
  splices the completed runs back in and re-enters partial runs from their
  latest snapshot — **bit-identically**.

Cooperative interruption happens at run boundaries: the per-run ``on_result``
callback raises :class:`ServiceShutdown` (server stopping — the job is
re-queued) or :class:`JobCancelled` (client cancel — the job is marked
cancelled) *after* the finished run's record hit the checkpoint, so no
completed work is ever lost or repeated.  Mid-run durability comes from the
periodic session snapshots, which also cover hard kills that never reach
either exception.
"""

from __future__ import annotations

import json
import os
import threading
import traceback
from typing import List, Optional

from repro import telemetry
from repro.melissa.workers import usable_cpus
from repro.service.schemas import JobSpec
from repro.service.store import JobRecord, JobStore
from repro.utils.durable import atomic_write
from repro.utils.logging import get_logger
from repro.workflow.results import RunResult
from repro.workflow.study import StudyRunner

__all__ = ["DEFAULT_CHECKPOINT_EVERY", "JobCancelled", "ServiceShutdown", "Worker", "WorkerPool"]

_LOGGER = get_logger("service")

#: seconds an idle worker waits on the store before re-checking the stop event
POLL_SECONDS = 0.5

#: mid-run snapshot period (training batches) used when a submission does not
#: choose its own — restart-safe resume is the service's default posture
DEFAULT_CHECKPOINT_EVERY = 25

#: progress-event metric subset streamed per finished run (full records stay
#: in runs.jsonl / result.json; events are for humans watching a stream)
_EVENT_METRICS = ("final_train_loss", "final_validation_loss", "overfit_gap", "iterations")


class ServiceShutdown(Exception):
    """Raised inside a study at a run boundary when the service is stopping."""


class JobCancelled(Exception):
    """Raised inside a study at a run boundary when the job was cancelled."""


class Worker(threading.Thread):
    """One queue-draining thread (see module docstring)."""

    def __init__(
        self,
        store: JobStore,
        stop_event: threading.Event,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        name: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(name=name or "service-worker", daemon=True)
        self.store = store
        self.stop_event = stop_event
        self.checkpoint_every = checkpoint_every
        #: study-worker processes of a job that does not choose its own
        #: (None → every usable CPU)
        self.max_workers = max_workers
        #: merged telemetry counters of the job currently executing (a worker
        #: runs one job at a time; reset per claim)
        self._job_telemetry: dict = {}

    # ---------------------------------------------------------------- loop
    def run(self) -> None:  # pragma: no cover - exercised via live services
        while not self.stop_event.is_set():
            record = self.store.claim_next(timeout=POLL_SECONDS, stop=self.stop_event)
            if record is None:
                continue
            if self.stop_event.is_set():
                # claimed in the shutdown race — hand it straight back
                self.store.requeue(record.id, reason="server stopping")
                return
            self.execute(record)

    # ------------------------------------------------------------- one job
    def execute(self, record: JobRecord) -> None:
        """Run one claimed job to a terminal (or re-queued) state."""
        job_id = record.id
        self._job_telemetry = {}
        try:
            if self.store.cancel_requested(job_id):
                raise JobCancelled(job_id)
            if record.spec.campaign is not None:
                outcome = self._run_campaign(record)
                self._write_campaign_result(job_id, outcome)
                self.store.mark_done(job_id)
                _LOGGER.info("job %s done (campaign, %s)", job_id, outcome.states)
            else:
                results = self._run_study(record)
                self._write_result(job_id, results)
                self.store.mark_done(job_id)
                _LOGGER.info("job %s done (%d runs)", job_id, len(results))
        except ServiceShutdown:
            self.store.requeue(job_id, reason="server stopping")
            _LOGGER.info("job %s re-queued (server stopping)", job_id)
        except JobCancelled:
            self.store.mark_cancelled(job_id)
            _LOGGER.info("job %s cancelled", job_id)
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            _LOGGER.error("job %s failed: %s\n%s", job_id, exc, traceback.format_exc())
            self.store.mark_failed(job_id, f"{type(exc).__name__}: {exc}")

    def _run_study(self, record: JobRecord):
        spec: JobSpec = record.spec
        runner = StudyRunner(
            base_config=spec.build_base_config(),
            study_name=spec.study_name,
            backend=spec.backend,
            max_workers=spec.max_workers if spec.max_workers is not None else self.max_workers,
            on_result=lambda run: self._on_run_finished(record.id, run, fold_counters=True),
        )
        checkpoint_every = (
            spec.checkpoint_every if spec.checkpoint_every is not None else self.checkpoint_every
        )
        return runner.run_all(
            spec.configurations,
            name_key=spec.name_key,
            resume=self.store.runs_path(record.id),
            checkpoint_every=checkpoint_every or None,
        )

    def _run_campaign(self, record: JobRecord):
        """Drive a campaign job; every (re-)entry resumes the same root.

        The campaign root lives inside the job directory, so the store's
        restart-recovery (re-queueing dangling ``running`` jobs) composes with
        the campaign's own manifest/cache resume: a killed server re-enters
        the campaign bit-identically, exactly like plain study jobs.  A
        campaign with failed nodes fails the job (resubmission re-queues it,
        and the resume retries only the failed subgraph).
        """
        from repro.campaign import CampaignRunner, CampaignSpec

        spec: JobSpec = record.spec
        campaign = CampaignSpec.from_dict(spec.campaign)
        checkpoint_every = (
            spec.checkpoint_every if spec.checkpoint_every is not None else self.checkpoint_every
        )
        forwarded = {"node_started", "node_finished", "node_failed", "node_skipped", "node_resumed"}
        runner = CampaignRunner(
            campaign,
            root=self.store.job_dir(record.id) / "campaign",
            backend=spec.backend,
            max_workers=spec.max_workers,
            checkpoint_every=checkpoint_every,
            on_result=lambda run: self._on_run_finished(record.id, run),
            on_event=lambda event, payload: (
                self.store.append_event(record.id, event, **payload)
                if event in forwarded
                else None
            ),
            propagate=(ServiceShutdown, JobCancelled),
        )
        outcome = runner.run(resume=True)
        if not outcome.ok:
            bad = {n: s for n, s in outcome.states.items() if s != "done"}
            raise RuntimeError(f"campaign node(s) did not complete: {bad}")
        return outcome

    def _write_campaign_result(self, job_id: str, outcome) -> None:
        """Persist the campaign summary (states, cache accounting, per-node runs)."""
        atomic_write(self.store.result_path(job_id), json.dumps(outcome.to_dict(), indent=2))

    def _on_run_finished(self, job_id: str, run: RunResult, fold_counters: bool = False) -> None:
        """Per-run callback: stream progress, then honour stop/cancel requests.

        Ordering matters: ``run_all`` appended the record to ``runs.jsonl``
        *before* invoking this callback, so raising here never drops the run
        that just finished.

        ``fold_counters`` marks a run this job just executed (a study job's;
        a campaign's record may be a cache hit that executed nothing).  When
        it ran in a study-worker process, its counter deltas are added to the
        service's registry, so ``/v1/metrics`` counts it as it counts a run
        executed in-process — once.
        """
        metrics = {k: run.metrics[k] for k in _EVENT_METRICS if k in run.metrics}
        self.store.record_run_finished(job_id, run.name, metrics)
        if run.telemetry:
            deltas = {k: float(v) for k, v in run.telemetry.items() if not k.startswith("_")}
            # Live mid-job snapshot: merge this run's counter deltas and
            # persist, so GET /v1/jobs/<id> shows telemetry while running.
            for key, value in deltas.items():
                self._job_telemetry[key] = self._job_telemetry.get(key, 0.0) + value
            self.store.write_metrics(job_id, self._job_telemetry)
            if fold_counters and run.telemetry.get("_worker_pid") != os.getpid():
                telemetry.metrics().add_counter_values(deltas)
        if self.stop_event.is_set():
            raise ServiceShutdown(job_id)
        if self.store.cancel_requested(job_id):
            raise JobCancelled(job_id)

    def _write_result(self, job_id: str, results) -> None:
        """Persist the final StudyResults atomically."""
        results.save_json(self.store.result_path(job_id))
        # The spec-order merge over the *complete* run list also covers runs
        # resumed from runs.jsonl in earlier attempts.
        merged = results.telemetry_summary()
        if merged:
            self.store.write_metrics(job_id, merged)


class WorkerPool:
    """A fixed set of :class:`Worker` threads over one store."""

    def __init__(
        self,
        store: JobStore,
        n_workers: int = 1,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.store = store
        self.stop_event = threading.Event()
        # Each worker's jobs get an equal share of the CPUs for their study
        # workers, so N service workers do not start N x CPUs processes.
        max_workers = max(1, usable_cpus() // n_workers)
        self.workers: List[Worker] = [
            Worker(
                store,
                self.stop_event,
                checkpoint_every=checkpoint_every,
                name=f"service-worker-{i}",
                max_workers=max_workers,
            )
            for i in range(n_workers)
        ]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Signal every worker and join them.

        Workers stop at the next run boundary; in-flight jobs are re-queued
        with their completed runs checkpointed, ready to resume.
        """
        self.stop_event.set()
        self.store.notify()
        for worker in self.workers:
            worker.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return any(worker.is_alive() for worker in self.workers)
