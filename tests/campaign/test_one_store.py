"""The node checkpoints are a campaign root's only store of run records.

Every run record lives once, in ``nodes/<node>/runs.jsonl``: finished nodes
are read back from it on resume and other nodes splice shared runs from it.
No ``cache/`` directory and no per-node ``result.json`` is written, and a
root that still holds them (the earlier layout) resumes without reading them.
"""

from __future__ import annotations

import json
import logging
import threading

from faults import CrashAt, run_campaign_cli
from repro.campaign import CampaignManifest, CampaignRunner, CampaignSpec
from repro.service.schemas import validate_campaign_submission
from repro.service.store import JobStore
from repro.service.worker import Worker
from repro.workflow.executor import TIMING_METRICS
from topologies import C1, C2, diamond_spec, fanout_spec, tiny_config_dict


def assert_one_store(root):
    """Catches a campaign writing a second copy of its run records."""
    assert (root / "manifest.jsonl").exists() and (root / "result.json").exists()
    assert not (root / "cache").exists()
    assert list(root.glob("nodes/*/result.json")) == []
    assert list(root.glob("nodes/*/runs.jsonl"))


def without_timing(summary):
    """A root ``result.json`` payload minus its per-invocation counters and wall-clock metrics."""
    nodes = {
        node: [
            dict(run, metrics={k: v for k, v in run["metrics"].items() if k not in TIMING_METRICS})
            for run in runs
        ]
        for node, runs in summary["nodes"].items()
    }
    return {"campaign": summary["campaign"], "states": summary["states"], "nodes": nodes}


class TestNoSecondCopy:
    def test_runner_writes_only_node_checkpoints(self, tmp_path):
        outcome = CampaignRunner(CampaignSpec.from_dict(diamond_spec()), tmp_path / "camp").run()
        assert outcome.ok
        assert_one_store(tmp_path / "camp")

    def test_cli_writes_only_node_checkpoints(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(fanout_spec()))
        rc, _out, err = run_campaign_cli([spec_file, "--root", tmp_path / "camp"], cwd=tmp_path)
        assert rc == 0, err
        assert_one_store(tmp_path / "camp")

    def test_service_campaign_job_writes_only_node_checkpoints(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        record, _ = store.submit(validate_campaign_submission(fanout_spec()))
        Worker(store, threading.Event()).execute(store.claim_next(timeout=0))
        assert store.get(record.id).state == "done"
        assert_one_store(store.job_dir(record.id) / "campaign")


def test_a_root_in_the_earlier_layout_resumes_from_its_checkpoints(tmp_path, caplog):
    """Catches resume reading (or tripping over) a leftover cache entry or node result file."""
    root = tmp_path / "camp"
    first = CampaignRunner(CampaignSpec.from_dict(diamond_spec()), root).run()
    first_summary = json.loads((root / "result.json").read_text())
    digest = first.results["left"].runs[0].digest
    (root / "cache").mkdir(exist_ok=True)
    (root / "cache" / f"{digest}.json").write_text("{not json")
    (root / "nodes" / "left" / "result.json").write_text("{not json")

    with caplog.at_level(logging.WARNING, logger="repro"):
        again = CampaignRunner(CampaignSpec.from_dict(diamond_spec()), root).run(resume=True)
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert (again.runs_executed, again.cache_hits) == (0, 0)
    assert again.runs_resumed == sum(len(results) for results in first.results.values())
    assert without_timing(again.to_dict()) == without_timing(first_summary)


def test_a_run_finished_inside_a_failed_node_is_spliced(tmp_path, monkeypatch):
    """Catches a digest index that forgets the runs a failing node finished before it failed."""
    payload = {
        "name": "crashed-source",
        "config": tiny_config_dict(),
        "nodes": [
            {"name": "a", "configurations": [C1, C2]},
            {"name": "b", "configurations": [C1]},
        ],
    }
    CrashAt("a", 1, mode="raise").install(monkeypatch)
    root = tmp_path / "camp"
    outcome = CampaignRunner(CampaignSpec.from_dict(payload), root).run()

    assert outcome.states == {"a": "failed", "b": "done"}
    assert (outcome.runs_executed, outcome.cache_hits) == (1, 1)
    counts = CampaignManifest(root / "manifest.jsonl").executed_run_counts()
    assert counts and set(counts.values()) == {1}
    assert list(counts) == [outcome.results["b"].runs[0].digest]
