"""Campaign specification: nodes, dependency edges, and data-carrying selectors.

A campaign spec is a plain JSON document (the CLI reads it from a file, the
service from a request body):

.. code-block:: json

    {
      "name": "screen-then-refine",
      "config": {"workload": "heat2d", "seed": 7},
      "nodes": [
        {"name": "sweep", "configurations": [{"sigma": 0.1}, {"sigma": 0.3}]},
        {"name": "refine", "depends_on": ["sweep"],
         "select": {"type": "top_k", "node": "sweep",
                    "metric": "final_validation_loss", "k": 1},
         "configurations": [{"max_iterations": 400}]}
      ]
    }

Every node is one study (executed by the existing
:class:`~repro.workflow.study.StudyRunner`); ``depends_on`` declares the DAG
edges, and ``select`` optionally pulls run configurations out of an upstream
node's results instead of (or combined with) a literal ``configurations``
list.  :func:`topological_order` is the deterministic scheduler order —
declaration order among ready nodes — and raises :class:`CampaignCycleError`
naming the offending cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.config import OnlineTrainingConfig
from repro.workflow.executor import BACKENDS

__all__ = [
    "CampaignCycleError",
    "CampaignSpec",
    "CampaignSpecError",
    "NodeSpec",
    "TopK",
    "campaign_digest",
    "resolve_configurations",
    "topological_order",
]


class CampaignSpecError(ValueError):
    """A campaign spec is structurally invalid (bad reference, bad field)."""


class CampaignCycleError(CampaignSpecError):
    """The dependency graph contains a cycle; ``cycle`` names its nodes."""

    def __init__(self, cycle: Sequence[str]) -> None:
        self.cycle = list(cycle)
        super().__init__("campaign dependency cycle: " + " -> ".join([*self.cycle, self.cycle[0]]))


@dataclass(frozen=True)
class TopK:
    """Edge selector: take the top ``k`` runs of ``node`` ranked by ``metric``.

    Ranking is ascending when ``minimize`` (the default — loss-like metrics),
    descending otherwise, with the upstream run name as a deterministic
    tie-breaker.  Each selected run contributes its override dict, merged
    with ``overrides`` (selector-level constants applied to every selected
    configuration).
    """

    node: str
    metric: str
    k: int = 1
    minimize: bool = True
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "type": "top_k",
            "node": self.node,
            "metric": self.metric,
            "k": self.k,
            "minimize": self.minimize,
        }
        if self.overrides:
            payload["overrides"] = dict(self.overrides)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopK":
        kind = payload.get("type", "top_k")
        if kind != "top_k":
            raise CampaignSpecError(f"unknown selector type {kind!r} (supported: 'top_k')")
        unknown = set(payload) - {"type", "node", "metric", "k", "minimize", "overrides"}
        if unknown:
            raise CampaignSpecError(f"unknown selector key(s): {sorted(unknown)}")
        try:
            node = payload["node"]
            metric = payload["metric"]
        except KeyError as missing:
            raise CampaignSpecError(f"selector requires {missing.args[0]!r}") from None
        k = int(payload.get("k", 1))
        if k < 1:
            raise CampaignSpecError(f"selector k must be >= 1, got {k}")
        return cls(
            node=str(node),
            metric=str(metric),
            k=k,
            minimize=bool(payload.get("minimize", True)),
            overrides=dict(payload.get("overrides", {})),
        )


@dataclass(frozen=True)
class NodeSpec:
    """One study node of a campaign.

    ``configurations`` are literal override dicts (as accepted by
    :meth:`StudyRunner.run_all`); ``select`` pulls additional base overrides
    from an upstream node's results.  With both, the node runs the cross
    product *selected × literal*; with neither, the node is a single run of
    the campaign's base configuration.  ``seeds`` crosses the node's runs
    with a seed axis, as ``StudyRunner.run_all(seeds=)`` does: each run once
    per seed, named ``<node>:<name>-s<seed>``.  ``max_retries`` re-executes a
    failed node (resuming its completed runs from the node checkpoint) before
    the node is declared failed and its descendants are skipped.
    """

    name: str
    depends_on: Tuple[str, ...] = ()
    configurations: Tuple[Dict[str, Any], ...] = ()
    select: Optional[TopK] = None
    name_key: Optional[str] = None
    max_retries: int = 0
    seeds: Tuple[int, ...] = ()

    def run_count(self) -> int:
        """Static upper-bound run count (a selector contributes ``k`` bases)."""
        bases = self.select.k if self.select is not None else 1
        return bases * max(1, len(self.configurations)) * max(1, len(self.seeds))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name}
        if self.depends_on:
            payload["depends_on"] = list(self.depends_on)
        if self.configurations:
            payload["configurations"] = [dict(c) for c in self.configurations]
        if self.select is not None:
            payload["select"] = self.select.to_dict()
        if self.name_key is not None:
            payload["name_key"] = self.name_key
        if self.max_retries:
            payload["max_retries"] = self.max_retries
        if self.seeds:
            payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NodeSpec":
        unknown = set(payload) - {
            "name",
            "depends_on",
            "configurations",
            "select",
            "name_key",
            "max_retries",
            "seeds",
        }
        if unknown:
            raise CampaignSpecError(f"unknown node key(s): {sorted(unknown)}")
        name = str(payload.get("name", "")).strip()
        if not name:
            raise CampaignSpecError("every node needs a non-empty 'name'")
        configurations = payload.get("configurations", [])
        if not isinstance(configurations, (list, tuple)) or not all(
            isinstance(c, dict) for c in configurations
        ):
            raise CampaignSpecError(f"node {name!r}: 'configurations' must be a list of dicts")
        select = payload.get("select")
        max_retries = int(payload.get("max_retries", 0))
        if max_retries < 0:
            raise CampaignSpecError(f"node {name!r}: max_retries must be >= 0")
        seeds = payload.get("seeds", [])
        if (
            not isinstance(seeds, (list, tuple))
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
            or len(set(seeds)) != len(seeds)
        ):
            raise CampaignSpecError(f"node {name!r}: 'seeds' must be a list of distinct ints")
        return cls(
            name=name,
            depends_on=tuple(str(d) for d in payload.get("depends_on", [])),
            configurations=tuple(dict(c) for c in configurations),
            select=TopK.from_dict(select) if select is not None else None,
            name_key=payload.get("name_key"),
            max_retries=max_retries,
            seeds=tuple(seeds),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named DAG of study nodes over one base configuration.

    ``backend``/``max_workers``/``checkpoint_every`` are execution defaults
    (overridable at launch time) and are *excluded* from
    :func:`campaign_digest` — they describe how the campaign runs, not what
    it computes, mirroring the service's job-fingerprint semantics.
    """

    name: str
    config: Dict[str, Any] = field(default_factory=dict)
    nodes: Tuple[NodeSpec, ...] = ()
    backend: str = "serial"
    max_workers: Optional[int] = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise CampaignSpecError("campaign needs a non-empty 'name'")
        if self.backend not in BACKENDS:
            raise CampaignSpecError(
                f"unknown backend {self.backend!r} (choose from {', '.join(BACKENDS)})"
            )
        if not self.nodes:
            raise CampaignSpecError("campaign needs at least one node")
        names = [node.name for node in self.nodes]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise CampaignSpecError(f"duplicate node name(s): {duplicates}")
        known = set(names)
        for node in self.nodes:
            for dep in node.depends_on:
                if dep not in known:
                    raise CampaignSpecError(
                        f"node {node.name!r} depends on unknown node {dep!r}"
                    )
                if dep == node.name:
                    raise CampaignSpecError(f"node {node.name!r} depends on itself")
            if node.select is not None and node.select.node not in node.depends_on:
                raise CampaignSpecError(
                    f"node {node.name!r} selects from {node.select.node!r} "
                    "which is not in its depends_on list"
                )
        # The base configuration must round-trip and its workload build —
        # fail at parse time, not mid-campaign inside a worker.
        try:
            OnlineTrainingConfig.from_dict(self.config).build_workload()
        except Exception as exc:
            raise CampaignSpecError(f"invalid base config: {exc}") from exc

    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def estimated_runs(self) -> int:
        """Static upper-bound run count of every node (:meth:`NodeSpec.run_count`)."""
        return sum(node.run_count() for node in self.nodes)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "config": dict(self.config),
            "nodes": [node.to_dict() for node in self.nodes],
            "backend": self.backend,
            "checkpoint_every": self.checkpoint_every,
        }
        if self.max_workers is not None:
            payload["max_workers"] = self.max_workers
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(payload, Mapping):
            raise CampaignSpecError("campaign spec must be a JSON object")
        unknown = set(payload) - {
            "name",
            "config",
            "nodes",
            "backend",
            "max_workers",
            "checkpoint_every",
        }
        if unknown:
            raise CampaignSpecError(f"unknown campaign key(s): {sorted(unknown)}")
        config = payload.get("config", {})
        if not isinstance(config, Mapping):
            raise CampaignSpecError("'config' must be a dict")
        nodes = payload.get("nodes", [])
        if not isinstance(nodes, (list, tuple)):
            raise CampaignSpecError("'nodes' must be a list")
        max_workers = payload.get("max_workers")
        return cls(
            name=str(payload.get("name", "")).strip(),
            config=dict(config),
            nodes=tuple(NodeSpec.from_dict(node) for node in nodes),
            backend=str(payload.get("backend", "serial")),
            max_workers=int(max_workers) if max_workers is not None else None,
            checkpoint_every=int(payload.get("checkpoint_every", 0)),
        )


def topological_order(spec: CampaignSpec) -> List[NodeSpec]:
    """Deterministic schedule: declaration order among ready nodes (Kahn).

    Raises :class:`CampaignCycleError` naming the cycle when the declared
    dependencies are not acyclic.
    """
    placed: set = set()
    remaining = list(spec.nodes)
    order: List[NodeSpec] = []
    while remaining:
        ready = next(
            (n for n in remaining if all(d in placed for d in n.depends_on)), None
        )
        if ready is None:
            raise CampaignCycleError(_find_cycle(remaining))
        order.append(ready)
        placed.add(ready.name)
        remaining.remove(ready)
    return order


def _find_cycle(nodes: Sequence[NodeSpec]) -> List[str]:
    """One cycle among ``nodes`` (which are known to contain at least one)."""
    stuck = {node.name: node for node in nodes}
    start = nodes[0].name
    seen: List[str] = []
    current = start
    while current not in seen:
        seen.append(current)
        current = next((d for d in stuck[current].depends_on if d in stuck), current)
    return seen[seen.index(current) :]


def campaign_digest(spec: CampaignSpec) -> str:
    """Stable fingerprint of *what* a campaign computes.

    Covers the base-configuration fingerprint and the full node structure
    (names, edges, configurations, selectors); excludes backend, worker
    count and checkpoint cadence.  Stamped into the campaign manifest so a
    resume against an edited spec is refused instead of silently mixing
    results, and used as the service-side dedupe fingerprint.
    """
    payload = {
        "name": spec.name,
        "config": OnlineTrainingConfig.from_dict(spec.config).digest(),
        "nodes": [node.to_dict() for node in spec.nodes],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_configurations(
    node: NodeSpec, upstream: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """Expand a node into its concrete run-override dicts.

    ``upstream`` maps completed node names to their
    :class:`~repro.workflow.results.StudyResults`.  With a selector, the
    upstream runs are ranked by ``selector.metric`` (ascending when
    ``minimize``, run name as tie-breaker) and the top ``k`` contribute their
    override dicts as bases; the node's literal ``configurations`` are then
    crossed over the bases.  Selected bases carry a ``_selected_from``
    metadata key naming their source run — metadata keys are ignored by
    :func:`~repro.workflow.executor.apply_overrides` and by the
    configuration fingerprint, so they do not perturb caching.
    """
    literals = [dict(c) for c in node.configurations] or [{}]
    if node.select is None:
        return literals
    selector = node.select
    results = upstream.get(selector.node)
    if results is None:
        raise CampaignSpecError(
            f"node {node.name!r} selects from {selector.node!r} which has no results"
        )
    runs = list(results.runs)
    missing = [run.name for run in runs if selector.metric not in run.metrics]
    if missing:
        raise CampaignSpecError(
            f"node {node.name!r}: upstream run(s) {missing} lack metric {selector.metric!r}"
        )
    sign = 1.0 if selector.minimize else -1.0
    runs.sort(key=lambda run: (sign * float(run.metrics[selector.metric]), run.name))
    bases = []
    for run in runs[: selector.k]:
        base = {k: v for k, v in run.config.items() if not k.startswith("_")}
        base.update(selector.overrides)
        base["_selected_from"] = run.name
        bases.append(base)
    return [{**base, **literal} for base in bases for literal in literals]
