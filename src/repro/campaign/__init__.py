"""repro.campaign — resumable DAG-of-studies orchestration.

A *campaign* is a directed acyclic graph of studies: each node expands to a
set of runs through the existing :class:`~repro.workflow.study.StudyRunner`
machinery, and edges can carry data — a :class:`TopK` selector turns an
upstream sweep's results into the downstream refinement node's run
configurations.  Execution is a deterministic topological walk with

* **execute-exactly-once** — the node checkpoints, indexed by the
  effective-configuration fingerprint
  (:meth:`repro.api.config.OnlineTrainingConfig.digest`), are the only record
  store, so a run shared by two nodes executes once and is spliced into the
  other (splices are counted by the ``repro_campaign_cache_hits_total``
  telemetry counter),
* **failure domains** — a failed node (after its per-node retries) only
  blocks its descendants; independent branches still complete,
* a campaign-level ``manifest.jsonl`` that resumes exactly like the study
  JSONL does: kill the process at any node boundary or mid-run and
  ``resume=True`` re-enters bit-identically.

Surfaced through ``python -m repro.cli campaign <spec.json>`` and the
service's ``POST /v1/campaigns`` route.  See ``docs/CAMPAIGNS.md``.
"""

from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import CampaignResult, CampaignResumeError, CampaignRunner
from repro.campaign.spec import (
    CampaignCycleError,
    CampaignSpec,
    CampaignSpecError,
    NodeSpec,
    TopK,
    campaign_digest,
    topological_order,
)

__all__ = [
    "CampaignCycleError",
    "CampaignManifest",
    "CampaignResult",
    "CampaignResumeError",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignSpecError",
    "NodeSpec",
    "TopK",
    "campaign_digest",
    "topological_order",
]
