"""Campaign spec parsing, validation, digests and the deterministic schedule."""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    CampaignCycleError,
    CampaignSpec,
    CampaignSpecError,
    NodeSpec,
    TopK,
    campaign_digest,
    resolve_configurations,
    topological_order,
)
from repro.workflow.results import RunResult, StudyResults

from topologies import chain_spec, diamond_spec, tiny_config_dict


class TestParsing:
    def test_round_trips_through_to_dict(self, make_campaign):
        spec = CampaignSpec.from_dict(make_campaign("diamond"))
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_rejects_unknown_campaign_keys(self):
        with pytest.raises(CampaignSpecError, match="unknown campaign key"):
            CampaignSpec.from_dict(dict(chain_spec(), runner="x"))

    def test_rejects_unknown_node_keys(self):
        payload = chain_spec()
        payload["nodes"][0]["retries"] = 3
        with pytest.raises(CampaignSpecError, match="unknown node key"):
            CampaignSpec.from_dict(payload)

    def test_rejects_missing_name(self):
        with pytest.raises(CampaignSpecError, match="non-empty 'name'"):
            CampaignSpec.from_dict(dict(chain_spec(), name=""))

    def test_rejects_empty_node_list(self):
        with pytest.raises(CampaignSpecError, match="at least one node"):
            CampaignSpec.from_dict(dict(chain_spec(), nodes=[]))

    def test_rejects_duplicate_node_names(self):
        payload = chain_spec()
        payload["nodes"].append({"name": "sweep"})
        with pytest.raises(CampaignSpecError, match="duplicate node name"):
            CampaignSpec.from_dict(payload)

    def test_rejects_unknown_dependency(self):
        payload = chain_spec()
        payload["nodes"][2]["depends_on"] = ["nope"]
        with pytest.raises(CampaignSpecError, match="unknown node 'nope'"):
            CampaignSpec.from_dict(payload)

    def test_rejects_self_dependency(self):
        payload = chain_spec()
        payload["nodes"][0]["depends_on"] = ["sweep"]
        with pytest.raises(CampaignSpecError, match="depends on itself"):
            CampaignSpec.from_dict(payload)

    def test_rejects_selector_outside_depends_on(self):
        payload = chain_spec()
        payload["nodes"][2]["select"] = {
            "type": "top_k", "node": "sweep", "metric": "final_validation_loss",
        }
        with pytest.raises(CampaignSpecError, match="not in its depends_on"):
            CampaignSpec.from_dict(payload)

    def test_rejects_bad_selector(self):
        with pytest.raises(CampaignSpecError, match="unknown selector type"):
            TopK.from_dict({"type": "best", "node": "a", "metric": "m"})
        with pytest.raises(CampaignSpecError, match="k must be >= 1"):
            TopK.from_dict({"node": "a", "metric": "m", "k": 0})
        with pytest.raises(CampaignSpecError, match="requires 'metric'"):
            TopK.from_dict({"node": "a"})

    def test_rejects_bad_backend_and_config(self):
        with pytest.raises(CampaignSpecError, match="unknown backend"):
            CampaignSpec.from_dict(dict(chain_spec(), backend="mpi"))
        with pytest.raises(CampaignSpecError, match="invalid base config"):
            CampaignSpec.from_dict(dict(chain_spec(), config={"no_such_field": 1}))

    def test_rejects_a_base_config_whose_workload_cannot_be_built(self):
        config = {"workload": "burgers", "workload_options": {"no_such_knob": 1}}
        with pytest.raises(CampaignSpecError, match="invalid base config: .*no_such_knob"):
            CampaignSpec.from_dict(dict(chain_spec(), config=config))


class TestDigest:
    def test_stable_across_key_order(self):
        a = campaign_digest(CampaignSpec.from_dict(chain_spec()))
        payload = chain_spec()
        payload["nodes"][0]["configurations"] = [dict(reversed(list(c.items())))
                                                 for c in payload["nodes"][0]["configurations"]]
        b = campaign_digest(CampaignSpec.from_dict(payload))
        assert a == b

    def test_ignores_execution_knobs(self):
        base = campaign_digest(CampaignSpec.from_dict(chain_spec()))
        tweaked = campaign_digest(
            CampaignSpec.from_dict(chain_spec(backend="shm", max_workers=4, checkpoint_every=9))
        )
        assert base == tweaked

    def test_changes_with_structure(self):
        base = campaign_digest(CampaignSpec.from_dict(chain_spec()))
        payload = chain_spec()
        payload["nodes"][0]["configurations"].append({"sigma": 0.9})
        assert campaign_digest(CampaignSpec.from_dict(payload)) != base
        assert campaign_digest(CampaignSpec.from_dict(diamond_spec())) != base


class TestSchedule:
    def test_declaration_order_among_ready_nodes(self, make_campaign):
        spec = CampaignSpec.from_dict(make_campaign("fanout"))
        assert [n.name for n in topological_order(spec)] == ["root", "f1", "f2", "f3"]

    def test_dependencies_precede_dependents(self, make_campaign):
        spec = CampaignSpec.from_dict(make_campaign("diamond"))
        order = [n.name for n in topological_order(spec)]
        for node in spec.nodes:
            for dep in node.depends_on:
                assert order.index(dep) < order.index(node.name)

    def test_cycle_raises_named_error(self):
        payload = {
            "name": "loop",
            "config": tiny_config_dict(),
            "nodes": [
                {"name": "a", "depends_on": ["c"]},
                {"name": "b", "depends_on": ["a"]},
                {"name": "c", "depends_on": ["b"]},
            ],
        }
        with pytest.raises(CampaignCycleError) as excinfo:
            topological_order(CampaignSpec.from_dict(payload))
        assert set(excinfo.value.cycle) == {"a", "b", "c"}
        assert "->" in str(excinfo.value)

    def test_estimated_runs(self, make_campaign):
        assert CampaignSpec.from_dict(make_campaign("chain")).estimated_runs() == 4
        assert CampaignSpec.from_dict(make_campaign("diamond")).estimated_runs() == 5
        assert CampaignSpec.from_dict(make_campaign("fanout")).estimated_runs() == 4


def _fake_results(metric_by_name):
    results = StudyResults(study="up")
    for name, value in metric_by_name.items():
        results.add(RunResult(name=name, config={"sigma": float(name[-1])},
                              metrics={"loss": value}))
    return results


class TestResolveConfigurations:
    def test_literals_only(self):
        node = NodeSpec(name="n", configurations=({"sigma": 0.1},))
        assert resolve_configurations(node, {}) == [{"sigma": 0.1}]

    def test_no_literals_means_one_base_run(self):
        assert resolve_configurations(NodeSpec(name="n"), {}) == [{}]

    def test_top_k_selects_best_with_stable_tiebreak(self):
        upstream = {"up": _fake_results({"up:1": 3.0, "up:2": 1.0, "up:3": 1.0})}
        node = NodeSpec(
            name="n", depends_on=("up",),
            select=TopK(node="up", metric="loss", k=2),
        )
        resolved = resolve_configurations(node, upstream)
        # ties broken by run name: up:2 before up:3, both beat up:1
        assert [c["_selected_from"] for c in resolved] == ["up:2", "up:3"]

    def test_maximize_flips_order(self):
        upstream = {"up": _fake_results({"up:1": 3.0, "up:2": 1.0})}
        node = NodeSpec(
            name="n", depends_on=("up",),
            select=TopK(node="up", metric="loss", k=1, minimize=False),
        )
        assert resolve_configurations(node, upstream)[0]["_selected_from"] == "up:1"

    def test_selector_overrides_and_cross_product(self):
        upstream = {"up": _fake_results({"up:1": 1.0})}
        node = NodeSpec(
            name="n", depends_on=("up",),
            configurations=({"hidden_size": 8}, {"hidden_size": 16}),
            select=TopK(node="up", metric="loss", k=1, overrides={"max_iterations": 9}),
        )
        resolved = resolve_configurations(node, upstream)
        assert len(resolved) == 2
        assert all(c["max_iterations"] == 9 and c["sigma"] == 1.0 for c in resolved)
        assert sorted(c["hidden_size"] for c in resolved) == [8, 16]

    def test_missing_metric_is_an_error(self):
        upstream = {"up": _fake_results({"up:1": 1.0})}
        node = NodeSpec(
            name="n", depends_on=("up",),
            select=TopK(node="up", metric="nope", k=1),
        )
        with pytest.raises(CampaignSpecError, match="lack metric"):
            resolve_configurations(node, upstream)

    def test_missing_upstream_results_is_an_error(self):
        node = NodeSpec(name="n", depends_on=("up",),
                        select=TopK(node="up", metric="loss"))
        with pytest.raises(CampaignSpecError, match="has no results"):
            resolve_configurations(node, {})


class TestSeeds:
    def _payload(self, seeds):
        payload = chain_spec()
        payload["nodes"][0]["seeds"] = seeds
        return payload

    def test_round_trips_and_counts_every_seed(self):
        spec = CampaignSpec.from_dict(self._payload([0, 1, 2]))
        assert spec.nodes[0].seeds == (0, 1, 2)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.nodes[0].run_count() == 2 * 3
        assert spec.estimated_runs() == 6 + 1 + 1

    def test_an_empty_seed_list_leaves_the_node_and_its_digest_as_without(self):
        assert "seeds" not in NodeSpec(name="n").to_dict()
        assert campaign_digest(CampaignSpec.from_dict(self._payload([]))) == campaign_digest(
            CampaignSpec.from_dict(chain_spec())
        )

    def test_seeds_are_part_of_the_identity(self):
        digests = {campaign_digest(CampaignSpec.from_dict(self._payload(s))) for s in ([0, 1], [0, 2], [])}
        assert len(digests) == 3

    @pytest.mark.parametrize("seeds", [3, "0-9", [0, 0], [0, 1.5], [True], [None]])
    def test_rejects_anything_but_a_list_of_distinct_ints(self, seeds):
        with pytest.raises(CampaignSpecError, match="'seeds' must be a list of distinct ints"):
            CampaignSpec.from_dict(self._payload(seeds))
