"""Campaign runner: deterministic topological execution with resume.

One :class:`CampaignRunner` owns a campaign *root* directory:

.. code-block:: text

    <root>/
      campaign.json        # the spec as launched (doctor's resume hint)
      manifest.jsonl       # append-only event ledger (CampaignManifest)
      cache/<digest>.json  # artifact cache keyed by config fingerprint
      nodes/<node>/
        runs.jsonl         # the node's study checkpoint (JsonlCheckpoint)
        runs.jsonl.snapshots/   # mid-run session snapshots (checkpoint_every)
        result.json        # the node's StudyResults, written atomically
      result.json          # campaign summary (states, cache accounting)

Resume is layered on the existing study machinery: node-level progress lives
in the manifest, run-level progress in each node's ``runs.jsonl``, and
mid-run progress in the per-run session snapshots — so ``run(resume=True)``
after a kill at *any* point re-enters bit-identically, exactly like
``StudyRunner.run_all(resume=...)`` and the service queue do.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro import telemetry
from repro.api.config import OnlineTrainingConfig
from repro.campaign.cache import ArtifactCache
from repro.campaign.manifest import CampaignManifest
from repro.campaign.spec import (
    CampaignSpec,
    NodeSpec,
    campaign_digest,
    resolve_configurations,
    topological_order,
)
from repro.utils.durable import atomic_write
from repro.utils.logging import get_logger
from repro.workflow import faults
from repro.workflow.executor import JsonlCheckpoint, StudyInputCache, config_digest
from repro.workflow.results import RunResult, StudyResults
from repro.workflow.study import StudyRunner

__all__ = ["CampaignResult", "CampaignResumeError", "CampaignRunner"]

_LOGGER = get_logger("campaign")

#: node states reported in ``CampaignResult.states`` / ``campaign_finished``
NODE_STATES = ("done", "failed", "skipped")


class CampaignResumeError(RuntimeError):
    """The campaign root already has history that conflicts with this launch."""


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    campaign: str
    states: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, StudyResults] = field(default_factory=dict)
    #: runs satisfied from the artifact cache this invocation
    cache_hits: int = 0
    #: runs actually executed this invocation
    runs_executed: int = 0
    #: runs spliced from a previous invocation's node checkpoints
    runs_resumed: int = 0

    @property
    def ok(self) -> bool:
        return all(state == "done" for state in self.states.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "states": dict(self.states),
            "cache_hits": self.cache_hits,
            "runs_executed": self.runs_executed,
            "runs_resumed": self.runs_resumed,
            "nodes": {
                name: [run.to_dict() for run in results.runs]
                for name, results in self.results.items()
            },
        }


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=+-]+", "_", name)


class CampaignRunner:
    """Execute a :class:`CampaignSpec` under a root directory.

    Parameters
    ----------
    spec:
        The campaign DAG.
    root:
        Directory owning manifest, cache and per-node artifacts.
    backend / max_workers / checkpoint_every:
        Launch-time overrides of the spec's execution defaults.
    on_result:
        Called after every completed run record (executed *and* cache-spliced,
        but not runs resumed from the node's own checkpoint), after the record
        and manifest event are durably on disk — so a callback that raises
        (the service uses this for graceful shutdown) never loses progress.
    on_event:
        Called after every manifest event with ``(event, payload)``.
    propagate:
        Exception types re-raised immediately instead of being absorbed by
        the per-node retry/failure-domain machinery (the service passes its
        shutdown/cancel control-flow exceptions here).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        root: str | Path,
        *,
        backend: Optional[str] = None,
        max_workers: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        on_result: Optional[Callable[[RunResult], None]] = None,
        on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        propagate: Tuple[Type[BaseException], ...] = (),
    ) -> None:
        self.spec = spec
        self.root = Path(root)
        self.backend = backend if backend is not None else spec.backend
        self.max_workers = max_workers if max_workers is not None else spec.max_workers
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else spec.checkpoint_every
        )
        self.on_result = on_result
        self.on_event = on_event
        self.propagate = tuple(propagate)
        self.manifest = CampaignManifest(self.root / "manifest.jsonl")
        self.cache = ArtifactCache(self.root / "cache")
        self._input_cache = StudyInputCache()
        self.cache_hits = 0
        self.runs_executed = 0
        self.runs_resumed = 0

    # ----------------------------------------------------------- plumbing
    def node_dir(self, name: str) -> Path:
        return self.root / "nodes" / _sanitize(name)

    def _emit(self, event: str, **payload: Any) -> None:
        self.manifest.append(event, **payload)
        if self.on_event is not None:
            self.on_event(event, payload)

    def _counter(self, name: str, help_text: str):
        return telemetry.metrics().counter(name, help=help_text)

    # ------------------------------------------------------------ running
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute the campaign; with ``resume`` splice all prior progress."""
        order = topological_order(self.spec)
        digest = campaign_digest(self.spec)
        if self.manifest.exists():
            if not resume:
                raise CampaignResumeError(
                    f"campaign root {self.root} already has a manifest; "
                    "pass resume=True (CLI: --resume) to continue it, or use a "
                    "fresh root (CLI: --fresh) to start over"
                )
            recorded = self.manifest.spec_digest()
            if recorded is not None and recorded != digest:
                raise CampaignResumeError(
                    f"campaign spec changed since {self.root} was started "
                    f"(manifest digest {recorded}, spec digest {digest}); "
                    "refusing to mix results — use a fresh root"
                )
        completed = self.manifest.completed_nodes() if resume else set()
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.root / "campaign.json", json.dumps(self.spec.to_dict(), indent=2))
        self._emit(
            "campaign_started",
            campaign=self.spec.name,
            digest=digest,
            backend=self.backend,
            resumed=bool(resume and completed),
            nodes=[node.name for node in order],
        )

        states: Dict[str, str] = {}
        results: Dict[str, StudyResults] = {}
        for node in order:
            blocked_by = [dep for dep in node.depends_on if states.get(dep) != "done"]
            if blocked_by:
                states[node.name] = "skipped"
                self._emit("node_skipped", node=node.name, blocked_by=blocked_by)
                continue
            if node.name in completed:
                spliced = self._load_node_results(node)
                if spliced is not None:
                    states[node.name] = "done"
                    results[node.name] = spliced
                    self.runs_resumed += len(spliced)
                    self._emit("node_resumed", node=node.name, runs=len(spliced))
                    continue
                # node_finished was durable but result.json was not — fall
                # through and re-run; its runs splice from runs.jsonl/cache.
            state, node_results = self._run_node_with_retries(node, results)
            states[node.name] = state
            if node_results is not None:
                results[node.name] = node_results

        self._emit(
            "campaign_finished",
            campaign=self.spec.name,
            states=states,
            cache_hits=self.cache_hits,
            runs_executed=self.runs_executed,
        )
        outcome = CampaignResult(
            campaign=self.spec.name,
            states=states,
            results=results,
            cache_hits=self.cache_hits,
            runs_executed=self.runs_executed,
            runs_resumed=self.runs_resumed,
        )
        atomic_write(self.root / "result.json", json.dumps(outcome.to_dict()))
        return outcome

    # -------------------------------------------------------------- nodes
    def _load_node_results(self, node: NodeSpec) -> Optional[StudyResults]:
        path = self.node_dir(node.name) / "result.json"
        if not path.exists():
            return None
        try:
            return StudyResults.load_json(path)
        except (json.JSONDecodeError, KeyError):
            _LOGGER.warning("unreadable node result %s; re-running node", path)
            return None

    def _run_node_with_retries(
        self, node: NodeSpec, upstream: Dict[str, StudyResults]
    ) -> Tuple[str, Optional[StudyResults]]:
        attempts = node.max_retries + 1
        for attempt in range(1, attempts + 1):
            self._emit("node_started", node=node.name, attempt=attempt)
            try:
                node_results = self._run_node(node, upstream)
            except self.propagate:
                raise
            except Exception as exc:  # noqa: BLE001 — failure domain boundary
                self._emit(
                    "node_failed",
                    node=node.name,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
                _LOGGER.warning(
                    "node %s failed (attempt %d/%d): %s", node.name, attempt, attempts, exc
                )
                if attempt == attempts:
                    return "failed", None
                continue
            self._emit("node_finished", node=node.name, runs=len(node_results))
            return "done", node_results
        raise AssertionError("unreachable")  # pragma: no cover

    def _run_node(
        self, node: NodeSpec, upstream: Dict[str, StudyResults]
    ) -> StudyResults:
        configurations = resolve_configurations(node, upstream)
        node_dir = self.node_dir(node.name)
        node_dir.mkdir(parents=True, exist_ok=True)
        runs_path = node_dir / "runs.jsonl"

        runner = StudyRunner(
            base_config=OnlineTrainingConfig.from_dict(self.spec.config),
            study_name=node.name,
            backend=self.backend,
            max_workers=self.max_workers,
            on_result=self._make_on_result(node.name),
            _cache=self._input_cache,
        )
        self._splice_cache_hits(runner, node, configurations, runs_path)
        results = runner.run_all(
            configurations,
            name_key=node.name_key,
            resume=runs_path,
            checkpoint_every=self.checkpoint_every or None,
        )
        results.save_json(node_dir / "result.json")
        return results

    def _splice_cache_hits(
        self,
        runner: StudyRunner,
        node: NodeSpec,
        configurations: List[Dict[str, Any]],
        runs_path: Path,
    ) -> None:
        """Append cached records for this node's runs into its checkpoint.

        Any spec whose effective-config digest is already in the artifact
        cache — because another node (or a previous invocation) executed it —
        is written into the node's ``runs.jsonl`` *before* ``run_all`` loads
        it for resume, so the study engine splices it like any completed run.
        The record is relabelled with this node's run name and overrides; the
        digest (the identity that matters) is unchanged.
        """
        specs = runner.build_specs(configurations, node.name_key)
        sink = JsonlCheckpoint(runs_path)
        already = sink.load()
        for spec in specs:
            record = already.get(spec.name)
            if record is not None and StudyRunner._record_matches_spec(record, spec):
                continue  # completed by a previous invocation of this node
            digest = config_digest(spec.build_config())
            cached = self.cache.get(digest)
            if cached is None:
                continue
            relabelled = replace(cached, name=spec.name, config=dict(spec.overrides))
            sink.append(relabelled)
            self.cache_hits += 1
            self._counter(
                "repro_campaign_cache_hits_total",
                "campaign runs satisfied from the artifact cache",
            ).inc()
            self._emit(
                "run_finished", node=node.name, run=spec.name, digest=digest, cached=True
            )
            if self.on_result is not None:
                self.on_result(relabelled)

    def _make_on_result(self, node_name: str) -> Callable[[RunResult], None]:
        def _on_result(record: RunResult) -> None:
            # Durability order: runs.jsonl (run_all's sink, already written) →
            # artifact cache → manifest → caller.  A propagated exception from
            # the caller's callback therefore never loses this run.
            self.cache.put(record)
            self.runs_executed += 1
            self._counter(
                "repro_campaign_runs_executed_total",
                "campaign runs actually executed (artifact-cache misses)",
            ).inc()
            self._emit(
                "run_finished",
                node=node_name,
                run=record.name,
                digest=record.digest,
                cached=False,
            )
            # Deterministic fault-injection point *in the driver process* at a
            # run boundary — the campaign kill-and-resume tests arm this to
            # SIGKILL the orchestrator between runs under any backend.
            faults.maybe_inject("record", record.name)
            if self.on_result is not None:
                self.on_result(record)

        return _on_result
