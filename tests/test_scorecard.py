"""``scripts/scorecard.py``: two campaigns that reproduce the committed runs, and a renderer that keeps the plan."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.api.config import OnlineTrainingConfig
from repro.campaign import CampaignResumeError
from repro.campaign.spec import resolve_configurations
from repro.workflow.results import RunResult, StudyResults
from repro.workflow.study import StudyRunner

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs" / "results" / "scorecard"
PLAN = DOCS / "plan.json"
BLAS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load_script():
    """Import the script as a module, leaving this process's BLAS variables as they were."""
    unset = [name for name in BLAS if name not in os.environ]
    spec = importlib.util.spec_from_file_location("scorecard_script", REPO_ROOT / "scripts" / "scorecard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in unset:
        os.environ.pop(name, None)
    return module


scorecard = _load_script()

#: the smoke-scale scorecard of the tests below: (small, paper) scales, seeds, confirmatory seeds
SMOKE = dict(jobs=2, small_scale="smoke", paper_scale="smoke", seeds=(0, 1), confirmatory_seeds=(2, 3))


def expanded(spec, node_name):
    """(run name, config digest, overrides) of every run of one node, without running any."""
    node = spec.node(node_name)
    runner = StudyRunner(OnlineTrainingConfig.from_dict(spec.config), node.name)
    specs = runner.build_specs(resolve_configurations(node, {}), node.name_key, list(node.seeds) or None)
    return [(s.name, s.build_config().digest(), s.overrides) for s in specs]


@pytest.mark.parametrize(
    "stage, build, node", [("stage0", "small_campaign", "cross"), ("stage1", "paper_campaign", "fig3a")]
)
def test_the_campaigns_expand_to_the_committed_runs(stage, build, node):
    committed = json.loads((DOCS / f"{stage}_runs.json").read_text())
    assert expanded(getattr(scorecard, build)(), node) == [
        (run["name"], run["digest"], run["config"]) for run in committed
    ]


def test_the_confirmatory_node_is_the_stage_1_grid_on_the_planned_seeds():
    spec = scorecard.paper_campaign()
    plan = json.loads(PLAN.read_text())
    confirmatory, stage1 = spec.node("confirmatory"), spec.node("fig3a")
    assert confirmatory.seeds == tuple(plan["seeds"])
    assert confirmatory.configurations == stage1.configurations
    assert confirmatory.run_count() == 80


def test_holm_on_a_textbook_example():
    # four hypotheses, m = 4: 0.005·4, 0.01·3, 0.03·2, then 0.04·1 lifted to the running maximum
    assert scorecard.holm([0.01, 0.04, 0.03, 0.005]) == pytest.approx([0.03, 0.06, 0.06, 0.02])
    assert scorecard.holm([0.5, 0.9]) == [1.0, 1.0]
    assert scorecard.holm([]) == []


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("scorecard")
    executed = scorecard.scorecard(root / "out", root / "docs", **SMOKE)
    return root, executed


def test_a_smoke_scorecard_renders_and_a_rerun_executes_nothing(smoke):
    root, executed = smoke
    assert executed == 7 * 2 * 2 + 2 * 4 * 2
    written = {path.name: path.read_bytes() for path in (root / "docs").iterdir()}
    assert sorted(written) == [
        "confirmatory.json",
        "findings.json",
        "stage0_compare_final_validation_loss.json",
        "stage0_runs.json",
        "stage1_compare_final_validation_loss.json",
        "stage1_compare_overfit_gap.json",
        "stage1_runs.json",
    ]
    assert scorecard.scorecard(root / "out", root / "docs", **SMOKE) == 0
    assert {path.name: path.read_bytes() for path in (root / "docs").iterdir()} == written


def _studies(root):
    def node(campaign, name):
        runs = json.loads((root / "out" / campaign / "result.json").read_text())["nodes"][name]
        return StudyResults(study=name, runs=[RunResult.from_dict(run) for run in runs])

    return (node("scorecard-small", "cross"), node("scorecard-paper", "fig3a"),
            node("scorecard-paper", "confirmatory"))


def test_only_a_planned_endpoint_gets_a_verdict(smoke):
    root, _ = smoke
    plan = json.loads(PLAN.read_text())
    planned = [e["name"] for e in plan["primary"] + plan["secondary"]["endpoints"]]
    report = json.loads((root / "docs" / "confirmatory.json").read_text())
    assert [e["name"] for e in report["endpoints"]] == planned
    assert all("p_holm" in e for e in report["endpoints"] if e["role"] == "secondary")

    # drop a secondary endpoint from the plan: it is no longer scored, and
    # its cell and metric (stage 1's overfit gap at H=16 L=3) read exploratory
    stage0, stage1, confirmatory = _studies(root)
    endpoints = plan["secondary"]["endpoints"]
    trimmed = dict(plan, secondary=dict(plan["secondary"], endpoints=endpoints[1:]))
    report = scorecard.confirmatory_report(trimmed, "edited", confirmatory)
    assert endpoints[0]["name"] not in [e["name"] for e in report["endpoints"]]
    findings = json.loads((root / "docs" / "findings.json").read_text())
    rows = scorecard.results_rows(report, stage0, stage1, findings)
    verdicts = [row.rsplit("|", 2)[1].strip() for row in rows]
    assert len(verdicts) - verdicts.count("exploratory") == len(report["endpoints"]) == len(planned) - 1
    gap = [row for row in rows if "n_hidden_layers=3, overfit_gap" in row]
    assert gap and all(row.endswith("| exploratory |") for row in gap)


def test_an_edited_plan_is_refused_instead_of_rendered(smoke, tmp_path):
    root, _ = smoke
    edited = tmp_path / "plan.json"
    edited.write_text(PLAN.read_text().replace('"alpha": 0.05', '"alpha": 0.1'))
    assert edited.read_text() != PLAN.read_text()
    with pytest.raises(CampaignResumeError, match="spec changed"):
        scorecard.scorecard(root / "out", tmp_path / "docs", plan=edited, **SMOKE)
    assert not (tmp_path / "docs").exists()
