"""Wire schemas of the study service: job specs, states, progress events.

Everything crossing the HTTP boundary is validated into (or serialised from)
the value objects here, so the server, the on-disk job store and the client
agree on one vocabulary:

* :class:`JobSpec` — one *submission*: a named study (base
  :class:`~repro.api.config.OnlineTrainingConfig` dictionary plus a list of
  per-run override dictionaries, exactly the ``StudyRunner.run_all`` inputs)
  with optional executor/checkpoint knobs.
* :data:`JOB_STATES` — the job lifecycle
  (``queued → running → done | failed | cancelled``).
* :func:`validate_submission` — parse an untrusted JSON payload into a
  :class:`JobSpec`, raising :class:`SubmissionError` with a client-readable
  message on any problem (the server maps it to HTTP 400).
* :func:`job_fingerprint` — the submission identity used for deduplication,
  derived from the *effective* per-run configuration fingerprints
  (:meth:`repro.api.config.OnlineTrainingConfig.digest`), so two submissions that
  describe the same runs dedupe even when their payloads differ cosmetically
  (key order, omitted defaults).

Progress events are plain dictionaries (``{"seq", "ts", "event", ...}``)
appended to a per-job JSONL file; :data:`TERMINAL_EVENTS` names the ones that
end a stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.api.config import OnlineTrainingConfig
from repro.workflow.executor import BACKENDS, apply_overrides

__all__ = [
    "JOB_STATES",
    "TERMINAL_EVENTS",
    "TERMINAL_STATES",
    "JobSpec",
    "SubmissionError",
    "job_fingerprint",
    "run_digests",
    "validate_campaign_submission",
    "validate_submission",
]

#: the job lifecycle; ``queued`` and ``running`` are the live states
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a job never leaves (resubmission re-queues ``failed``/``cancelled``)
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: progress-event types that terminate a ``/stream`` response
TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class SubmissionError(ValueError):
    """A submission payload failed validation (HTTP 400 on the wire)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated study submission.

    ``config`` is the serialized base configuration
    (:meth:`OnlineTrainingConfig.to_dict` shape) and ``configurations`` the
    flat per-run override dictionaries — the exact inputs of
    :meth:`repro.workflow.study.StudyRunner.run_all`, kept serialized so the
    spec round-trips through JSON and the job store untouched.
    """

    study_name: str
    config: Dict[str, Any]
    configurations: List[Dict[str, Any]] = field(default_factory=list)
    #: optional override key whose value names each run (``run_all`` semantics)
    name_key: Optional[str] = None
    #: executor backend the worker drives the study through
    backend: str = "serial"
    #: worker-pool size of the parallel backends (None → CPU count)
    max_workers: Optional[int] = None
    #: mid-run session-snapshot period in batches (None → server default)
    checkpoint_every: Optional[int] = None
    #: campaign jobs only: the full CampaignSpec dictionary (study fields
    #: above still describe the submission; ``configurations`` stays empty)
    campaign: Optional[Dict[str, Any]] = None

    def build_base_config(self) -> OnlineTrainingConfig:
        """Rebuild the base configuration (raises on drifted payloads)."""
        return OnlineTrainingConfig.from_dict(self.config)

    def total_runs(self) -> int:
        """Run count shown as the job's ``runs_total`` (estimate for campaigns)."""
        if self.campaign is not None:
            from repro.campaign.spec import CampaignSpec

            return CampaignSpec.from_dict(self.campaign).estimated_runs()
        return len(self.configurations)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            study_name=str(data["study_name"]),
            config=dict(data.get("config", {})),
            configurations=[dict(c) for c in data.get("configurations", [])],
            name_key=data.get("name_key"),
            backend=str(data.get("backend", "serial")),
            max_workers=data.get("max_workers"),
            checkpoint_every=data.get("checkpoint_every"),
            campaign=dict(data["campaign"]) if data.get("campaign") is not None else None,
        )


def validate_submission(payload: Any) -> JobSpec:
    """Parse an untrusted submission payload into a :class:`JobSpec`.

    The base configuration and *every* override dictionary are materialised
    once (through :meth:`OnlineTrainingConfig.from_dict` and
    :func:`~repro.workflow.executor.apply_overrides`) so malformed
    submissions fail here, at the HTTP boundary, with a message naming the
    offending key — not minutes later inside a worker thread.
    """
    if not isinstance(payload, Mapping):
        raise SubmissionError("submission must be a JSON object")
    if "campaign" in payload:
        raise SubmissionError("campaign submissions go to POST /v1/campaigns")
    unknown = sorted(set(payload) - set(JobSpec.__dataclass_fields__))
    if unknown:
        raise SubmissionError(f"unknown submission key(s): {unknown}")
    study_name = payload.get("study_name")
    if not isinstance(study_name, str) or not study_name.strip():
        raise SubmissionError("study_name must be a non-empty string")
    config = payload.get("config")
    if not isinstance(config, Mapping):
        raise SubmissionError("config must be an OnlineTrainingConfig dictionary")
    configurations = payload.get("configurations", [{}])
    if not isinstance(configurations, list) or not configurations:
        raise SubmissionError("configurations must be a non-empty list of override dicts")
    if not all(isinstance(c, Mapping) for c in configurations):
        raise SubmissionError("every entry of configurations must be an object")
    backend = payload.get("backend", "serial")
    if backend not in BACKENDS:
        raise SubmissionError(f"backend must be one of {list(BACKENDS)}, got {backend!r}")
    max_workers = payload.get("max_workers")
    if max_workers is not None and (not isinstance(max_workers, int) or max_workers < 1):
        raise SubmissionError("max_workers must be a positive integer")
    checkpoint_every = payload.get("checkpoint_every")
    if checkpoint_every is not None and (
        not isinstance(checkpoint_every, int) or checkpoint_every < 0
    ):
        raise SubmissionError("checkpoint_every must be a non-negative integer")
    name_key = payload.get("name_key")
    if name_key is not None and not isinstance(name_key, str):
        raise SubmissionError("name_key must be a string")

    try:
        base = OnlineTrainingConfig.from_dict(dict(config))
    except (TypeError, ValueError, KeyError) as exc:
        raise SubmissionError(f"invalid config: {exc}") from exc
    for index, overrides in enumerate(configurations):
        try:
            apply_overrides(base, dict(overrides))
        except (TypeError, ValueError, KeyError) as exc:
            raise SubmissionError(f"invalid configurations[{index}]: {exc}") from exc

    return JobSpec(
        study_name=study_name.strip(),
        config=base.to_dict(),
        configurations=[dict(c) for c in configurations],
        name_key=name_key,
        backend=backend,
        max_workers=max_workers,
        checkpoint_every=checkpoint_every,
    )


def validate_campaign_submission(payload: Any) -> JobSpec:
    """Parse a ``POST /v1/campaigns`` body into a campaign :class:`JobSpec`.

    The body *is* a campaign spec document (``docs/CAMPAIGNS.md`` format) —
    name, base config, nodes, optional backend/max_workers/checkpoint_every.
    Structural validation (node references, selector wiring, cycle-free-ness
    at schedule time) is delegated to :class:`repro.campaign.spec.CampaignSpec`;
    any spec error surfaces here as a client-readable HTTP 400.
    """
    from repro.campaign.spec import CampaignSpec, CampaignSpecError, topological_order

    if not isinstance(payload, Mapping):
        raise SubmissionError("campaign submission must be a JSON object")
    try:
        campaign = CampaignSpec.from_dict(payload)
        topological_order(campaign)  # surface cycles at the HTTP boundary
    except CampaignSpecError as exc:
        raise SubmissionError(f"invalid campaign: {exc}") from exc
    except (TypeError, ValueError, KeyError) as exc:
        raise SubmissionError(f"invalid campaign: {exc}") from exc
    return JobSpec(
        study_name=campaign.name,
        config=dict(campaign.config),
        configurations=[],
        backend=campaign.backend,
        max_workers=campaign.max_workers,
        checkpoint_every=campaign.checkpoint_every or None,
        campaign=campaign.to_dict(),
    )


def run_digests(spec: JobSpec) -> List[tuple]:
    """``(run_name, config digest)`` per run of the submission, in run order.

    Uses the same name derivation and override application as the study
    engine, so the fingerprint below describes exactly the runs the worker
    will execute.
    """
    from repro.workflow.study import StudyRunner

    runner = StudyRunner(base_config=spec.build_base_config(), study_name=spec.study_name)
    return [
        (s.name, s.build_config().digest())
        for s in runner.build_specs(spec.configurations, spec.name_key)
    ]


def job_fingerprint(spec: JobSpec) -> str:
    """Stable identity of a submission, for deduplication.

    Two submissions fingerprint identically iff they describe the same named
    study over the same effective run configurations — the
    :data:`~repro.api.config.CHECKPOINT_FIELDS` and the executor knobs
    (``backend``/``max_workers``/``checkpoint_every``) are excluded, because
    they change *how* the study runs, not *what* it computes (metrics and
    series are bit-identical across backends).
    """
    if spec.campaign is not None:
        from repro.campaign.spec import CampaignSpec, campaign_digest

        payload: Dict[str, Any] = {
            "study_name": spec.study_name,
            "campaign": campaign_digest(CampaignSpec.from_dict(spec.campaign)),
        }
    else:
        payload = {"study_name": spec.study_name, "runs": run_digests(spec)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
