"""CampaignRunner behaviour: cache accounting, resume, failure domains, retry."""

from __future__ import annotations

import pytest

from faults import TOKEN_ENV, CrashAt, InjectedFault, arm_file
from repro import telemetry
from repro.campaign import (
    CampaignManifest,
    CampaignResumeError,
    CampaignRunner,
    CampaignSpec,
)
from repro.telemetry.metrics import MetricsRegistry, counter_delta
from repro.workflow.executor import TIMING_METRICS
from topologies import TOPOLOGIES


def run_campaign(payload, root, **kwargs):
    return CampaignRunner(CampaignSpec.from_dict(payload), root, **kwargs)


def comparable(run):
    """A run's identity-bearing payload (everything but wall-clock noise)."""
    return {
        "workload": run.workload,
        "seed": run.seed,
        "digest": run.digest,
        "metrics": {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS},
        "series": run.series,
    }


def test_node_directories_use_the_study_run_naming(tmp_path):
    from repro.campaign import CampaignSpec
    from repro.workflow.study import path_safe_name

    runner = CampaignRunner(CampaignSpec.from_dict(TOPOLOGIES["chain"][0]()), root=tmp_path)
    name = "sweep: sigma=0.1/odd"
    assert runner.node_dir(name) == tmp_path / "nodes" / path_safe_name(name)
    assert runner.node_dir(name).name == "sweep_sigma=0.1_odd"


class TestCacheAccounting:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_shared_runs_execute_exactly_once(self, topology, tmp_path):
        builder, executed, hits = TOPOLOGIES[topology]
        runner = run_campaign(builder(), tmp_path / "camp")
        outcome = runner.run()

        assert outcome.ok
        assert set(outcome.states.values()) == {"done"}
        assert outcome.runs_executed == executed
        assert outcome.cache_hits == hits
        # the manifest's own ledger proves no digest was executed twice
        counts = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").executed_run_counts()
        assert counts and all(count == 1 for count in counts.values())
        assert len(counts) == executed

    def test_spliced_run_is_bit_identical_to_its_source(self, tmp_path):
        # fanout: f2 duplicates f1's configuration and must inherit its payload
        outcome = run_campaign(TOPOLOGIES["fanout"][0](), tmp_path / "camp").run()
        source = outcome.results["f1"].runs[0]
        spliced = outcome.results["f2"].runs[0]
        assert spliced.name == "f2:0"  # renamed into the consuming node
        assert comparable(spliced) == comparable(source)

    def test_counters_track_cache_hits_and_executions(self, tmp_path):
        registry = MetricsRegistry()
        telemetry.configure(registry=registry, export_env=False)
        try:
            before = registry.counter_values()
            builder, executed, hits = TOPOLOGIES["diamond"]
            run_campaign(builder(), tmp_path / "camp").run()
            delta = counter_delta(before, registry.counter_values())
        finally:
            telemetry.disable(export_env=False)
        assert delta.get("repro_campaign_cache_hits_total") == hits
        assert delta.get("repro_campaign_runs_executed_total") == executed

    def test_on_result_sees_every_run_exactly_once(self, tmp_path):
        seen = []
        builder, executed, hits = TOPOLOGIES["chain"]
        run_campaign(builder(), tmp_path / "camp", on_result=lambda r: seen.append(r.name)).run()
        assert len(seen) == executed + hits
        assert len(set(seen)) == len(seen)


class TestResume:
    def test_resume_splices_everything_and_reexecutes_nothing(self, make_campaign, tmp_path):
        first = run_campaign(make_campaign("diamond"), tmp_path / "camp").run()
        again = run_campaign(make_campaign("diamond"), tmp_path / "camp").run(resume=True)

        assert again.ok
        assert again.runs_executed == 0
        assert again.cache_hits == 0
        assert again.runs_resumed == sum(len(r.runs) for r in first.results.values())
        for node, results in first.results.items():
            assert [comparable(r) for r in again.results[node].runs] == [
                comparable(r) for r in results.runs
            ]

    def test_manifest_seq_is_dense_across_invocations(self, make_campaign, tmp_path):
        run_campaign(make_campaign("diamond"), tmp_path / "camp").run()
        run_campaign(make_campaign("diamond"), tmp_path / "camp").run(resume=True)
        events = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").load()
        assert [e["event"] for e in events].count("campaign_started") == 2
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_resume_after_torn_splice_executes_each_digest_once(self, make_campaign, tmp_path):
        class Killed(Exception):
            pass

        def kill_when_right_starts(event, payload):
            if event == "node_started" and payload["node"] == "right":
                raise Killed

        root = tmp_path / "camp"
        runner = run_campaign(
            make_campaign("diamond"), root, on_event=kill_when_right_starts, propagate=(Killed,)
        )
        with pytest.raises(Killed):
            runner.run()
        # Killed mid-write of the cached C3 record ``right`` splices from
        # ``left``: half of the record on disk, no newline.
        record = (runner.node_dir("left") / "runs.jsonl").read_text().splitlines()[-1]
        runner.node_dir("right").mkdir(parents=True, exist_ok=True)
        (runner.node_dir("right") / "runs.jsonl").write_text(record[: len(record) // 2])

        outcome = run_campaign(make_campaign("diamond"), root).run(resume=True)
        assert outcome.ok and outcome.runs_executed == 1  # join's run only
        counts = CampaignManifest(root / "manifest.jsonl").executed_run_counts()
        assert counts == {
            run.digest: 1 for results in outcome.results.values() for run in results.runs
        }
        assert len(counts) == TOPOLOGIES["diamond"][1]

    def test_existing_manifest_without_resume_is_refused(self, make_campaign, tmp_path):
        run_campaign(make_campaign("fanout"), tmp_path / "camp").run()
        with pytest.raises(CampaignResumeError, match="--resume"):
            run_campaign(make_campaign("fanout"), tmp_path / "camp").run()

    def test_resume_with_different_spec_is_refused(self, make_campaign, tmp_path):
        run_campaign(make_campaign("fanout"), tmp_path / "camp").run()
        changed = make_campaign("fanout")
        changed["nodes"][0]["configurations"] = [{"sigma": 0.9}]
        with pytest.raises(CampaignResumeError, match="digest"):
            run_campaign(changed, tmp_path / "camp").run(resume=True)


class TestFailureDomains:
    def test_failed_node_blocks_descendants_only(self, make_campaign, tmp_path, monkeypatch):
        CrashAt("left", 0, mode="raise").install(monkeypatch)
        outcome = run_campaign(make_campaign("diamond"), tmp_path / "camp").run()

        assert not outcome.ok
        assert outcome.states == {
            "src": "done", "left": "failed", "right": "done", "join": "skipped",
        }
        events = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").load()
        skipped = [e for e in events if e["event"] == "node_skipped"]
        assert [e["node"] for e in skipped] == ["join"]
        assert skipped[0]["blocked_by"] == ["left"]
        failed = [e for e in events if e["event"] == "node_failed"]
        assert failed and "InjectedFault" in failed[-1]["error"]

    def test_retry_recovers_from_one_shot_fault(self, make_campaign, tmp_path, monkeypatch):
        payload = make_campaign("diamond")
        for node in payload["nodes"]:
            if node["name"] == "left":
                node["max_retries"] = 1
        CrashAt("left", 1, mode="raise").install(monkeypatch, arm_file(tmp_path))
        outcome = run_campaign(payload, tmp_path / "camp").run()

        assert outcome.ok
        events = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").load()
        failed = [e for e in events if e["event"] == "node_failed"]
        assert [e["attempt"] for e in failed] == [1]
        # the run finished before the crash was spliced, not re-executed
        counts = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").executed_run_counts()
        assert all(count == 1 for count in counts.values())

    def test_propagate_reraises_instead_of_absorbing(self, make_campaign, tmp_path, monkeypatch):
        CrashAt("left", 0, mode="raise").install(monkeypatch)
        runner = run_campaign(
            make_campaign("diamond"), tmp_path / "camp", propagate=(InjectedFault,)
        )
        with pytest.raises(InjectedFault):
            runner.run()

    def test_failed_campaign_resumes_only_the_failed_subgraph(
        self, make_campaign, tmp_path, monkeypatch
    ):
        CrashAt("left", 0, mode="raise").install(monkeypatch)
        first = run_campaign(make_campaign("diamond"), tmp_path / "camp").run()
        assert first.states["left"] == "failed"
        monkeypatch.delenv(TOKEN_ENV)

        again = run_campaign(make_campaign("diamond"), tmp_path / "camp").run(resume=True)
        assert again.ok
        assert again.runs_resumed == len(first.results["src"].runs) + len(
            first.results["right"].runs
        )
        # across both invocations no digest ever executed twice
        counts = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").executed_run_counts()
        assert all(count == 1 for count in counts.values())


class TestSeededNodes:
    def test_a_seeded_node_is_the_study_with_that_seed_axis(self, tmp_path):
        from repro.api.config import OnlineTrainingConfig
        from repro.workflow.study import StudyRunner
        from topologies import C1, C2, tiny_config_dict

        payload = {
            "name": "seeded",
            "config": tiny_config_dict(),
            "nodes": [{"name": "grid", "configurations": [C1, C2], "seeds": [0, 1]}],
        }
        node = run_campaign(payload, tmp_path / "camp").run().results["grid"]
        study = StudyRunner(OnlineTrainingConfig.from_dict(tiny_config_dict()), "grid").run_all(
            [C1, C2], seeds=[0, 1]
        )
        assert [run.name for run in node] == [run.name for run in study] == [
            "grid:0-s0", "grid:0-s1", "grid:1-s0", "grid:1-s1"
        ]
        assert [(run.config, comparable(run)) for run in node] == [
            (run.config, comparable(run)) for run in study
        ]

    def test_a_seed_shared_across_nodes_executes_once(self, tmp_path):
        from topologies import C1, tiny_config_dict

        payload = {
            "name": "seeded-splice",
            "config": tiny_config_dict(),
            "nodes": [
                {"name": "a", "configurations": [C1], "seeds": [0, 1]},
                {"name": "b", "depends_on": ["a"], "configurations": [C1], "seeds": [1, 2]},
            ],
        }
        outcome = run_campaign(payload, tmp_path / "camp").run()
        assert (outcome.runs_executed, outcome.cache_hits) == (3, 1)
        a, b = outcome.results["a"], outcome.results["b"]
        assert [run.name for run in b] == ["b:0-s1", "b:0-s2"]
        assert b.runs[0].digest == a.runs[1].digest
        assert comparable(b.runs[0]) == comparable(a.runs[1])
        assert b.runs[0].config == {"sigma": 0.1, "seed": 1}

        again = run_campaign(payload, tmp_path / "camp").run(resume=True)
        assert (again.runs_executed, again.cache_hits, again.runs_resumed) == (0, 0, 4)
