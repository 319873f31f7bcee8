"""The committed confirmatory plan: one primary endpoint, on seeds not yet looked at."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.analysis.correlation import CORRELATION_COLUMNS, CorrelationMatrix
from repro.api.session import OnlineTrainingResult
from repro.workflow.results import SIGNIFICANCE

PLAN = Path(__file__).resolve().parents[1] / "docs" / "results" / "scorecard" / "plan.json"

#: the seeds of scorecard stages 0 and 1, already looked at
EXPLORATORY_SEEDS = set(range(10))


def _plan() -> dict:
    return json.loads(PLAN.read_text())


def test_the_plan_has_exactly_one_primary_endpoint():
    plan = _plan()
    assert len(plan["primary"]) == 1
    (primary,) = plan["primary"]
    assert (primary["metric"], primary["better"]) == ("final_validation_loss", "lower")
    assert (primary["group"], primary["baseline"]) == ("breed", "random")
    assert primary["cell"] == {"hidden_size": 16, "n_hidden_layers": 3}
    assert plan["scale"] == "paper"


def test_the_confirmatory_seeds_are_fresh():
    seeds = _plan()["seeds"]
    assert len(seeds) == len(set(seeds)) == 20
    assert not set(seeds) & EXPLORATORY_SEEDS


def test_the_test_and_the_endpoints_name_what_the_code_computes():
    plan = _plan()
    assert plan["test"]["alpha"] == SIGNIFICANCE
    names = [endpoint["name"] for endpoint in plan["primary"] + plan["secondary"]["endpoints"]]
    assert len(names) == len(set(names))
    assert "Holm" in plan["secondary"]["adjustment"]
    run_metrics = {name for name in dir(OnlineTrainingResult) if not name.startswith("_")}
    run_metrics |= set(OnlineTrainingResult.__dataclass_fields__)
    identity = CorrelationMatrix(CORRELATION_COLUMNS, np.eye(len(CORRELATION_COLUMNS)))
    coefficients = set(identity.key_findings())
    for endpoint in plan["secondary"]["endpoints"]:
        assert endpoint["metric"] in run_metrics | coefficients, endpoint["name"]
