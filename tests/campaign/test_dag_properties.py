"""Property-style tests over seeded random DAGs (no external property-test dep).

The generator draws edges strictly from lower to higher node index, so every
generated graph is acyclic by construction; cycle tests then inject a single
back edge.  Configurations are drawn from a small pool, so the expected
artifact-cache accounting — executed runs = distinct effective configs,
cache hits = total runs minus that — is computable independently of the
runner and checked against what it actually did.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import pytest

from repro.api.config import OnlineTrainingConfig
from repro.workflow.executor import apply_overrides
from repro.campaign import (
    CampaignCycleError,
    CampaignRunner,
    CampaignSpec,
    topological_order,
)
from topologies import tiny_config_dict

#: small pool of override dicts; collisions across nodes are the point
CONFIG_POOL = [{"sigma": 0.1}, {"sigma": 0.3}, {"sigma": 0.5}]


def random_dag_payload(
    seed: int,
    max_nodes: int = 8,
    max_configs: int = 2,
    with_configs: bool = False,
) -> Dict[str, Any]:
    """A seeded random campaign payload, acyclic by construction."""
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    nodes: List[Dict[str, Any]] = []
    for i in range(n):
        node: Dict[str, Any] = {"name": f"n{i}"}
        if i > 0:
            candidates = [f"n{j}" for j in range(i)]
            deps = rng.sample(candidates, k=rng.randint(0, min(2, len(candidates))))
            if deps:
                node["depends_on"] = sorted(deps, key=lambda s: int(s[1:]))
        if with_configs:
            node["configurations"] = [
                dict(rng.choice(CONFIG_POOL)) for _ in range(rng.randint(1, max_configs))
            ]
        nodes.append(node)
    rng.shuffle(nodes)  # declaration order independent of the index ordering
    return {"name": f"dag{seed}", "config": tiny_config_dict(), "nodes": nodes}


def reference_order(spec: CampaignSpec) -> List[str]:
    """Independent Kahn implementation with declaration-order tie-break."""
    names = [n.name for n in spec.nodes]
    remaining = {n.name: set(n.depends_on) for n in spec.nodes}
    order: List[str] = []
    while remaining:
        ready = [name for name in names if name in remaining and not remaining[name]]
        assert ready, "graph should be acyclic by construction"
        head = ready[0]
        order.append(head)
        del remaining[head]
        for deps in remaining.values():
            deps.discard(head)
    return order


class TestTopologicalOrderProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_independent_kahn_reference(self, seed):
        spec = CampaignSpec.from_dict(random_dag_payload(seed))
        assert [n.name for n in topological_order(spec)] == reference_order(spec)

    @pytest.mark.parametrize("seed", range(20))
    def test_deterministic_across_round_trips(self, seed):
        spec = CampaignSpec.from_dict(random_dag_payload(seed))
        first = [n.name for n in topological_order(spec)]
        again = [n.name for n in topological_order(CampaignSpec.from_dict(spec.to_dict()))]
        assert first == again

    @pytest.mark.parametrize("seed", range(20))
    def test_dependencies_always_precede_dependents(self, seed):
        spec = CampaignSpec.from_dict(random_dag_payload(seed))
        position = {n.name: i for i, n in enumerate(topological_order(spec))}
        for node in spec.nodes:
            for dep in node.depends_on:
                assert position[dep] < position[node.name]


class TestCycleDetectionProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_single_back_edge_is_always_caught(self, seed):
        payload = random_dag_payload(seed)
        rng = random.Random(seed + 1000)
        # pick a dependency edge (u -> v means v depends on u) and close the
        # loop by making u depend on v; fall back to a 2-cycle when the random
        # graph came out edgeless
        with_deps = [n for n in payload["nodes"] if n.get("depends_on")]
        by_name = {n["name"]: n for n in payload["nodes"]}
        if with_deps:
            dependent = rng.choice(with_deps)
            upstream = by_name[rng.choice(dependent["depends_on"])]
            upstream.setdefault("depends_on", []).append(dependent["name"])
        else:
            a, b = payload["nodes"][0], payload["nodes"][1]
            a.setdefault("depends_on", []).append(b["name"])
            b.setdefault("depends_on", []).append(a["name"])
        spec = CampaignSpec.from_dict(payload)
        with pytest.raises(CampaignCycleError) as excinfo:
            topological_order(spec)
        cycle = excinfo.value.cycle
        # the reported cycle must be a real cycle: consecutive pairs are edges
        assert len(cycle) >= 2
        deps = {n.name: set(n.depends_on) for n in spec.nodes}
        for here, there in zip(cycle, cycle[1:] + cycle[:1]):
            assert here in deps[there] or there in deps[here]


def expected_accounting(spec: CampaignSpec):
    """(total runs, distinct effective configs) for a literal-only campaign."""
    base = OnlineTrainingConfig.from_dict(spec.config)
    digests = set()
    total = 0
    for node in spec.nodes:
        for overrides in node.configurations or ({},):
            total += 1
            digests.add(apply_overrides(base, dict(overrides)).digest())
    return total, len(digests)


class TestCacheHitMultiplicity:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_hits_equal_shared_config_multiplicity(self, seed, tmp_path):
        payload = random_dag_payload(seed, max_nodes=4, with_configs=True)
        spec = CampaignSpec.from_dict(payload)
        total, distinct = expected_accounting(spec)
        assert total > distinct, "seed must produce at least one shared config"

        outcome = CampaignRunner(spec, tmp_path / "camp").run()
        assert outcome.ok
        assert outcome.runs_executed == distinct
        assert outcome.cache_hits == total - distinct
