"""``benchmarks/TRAJECTORY.jsonl``: one record per change and benchmark workload.

Each line holds what ten interleaved parent/change pairs of the repo
benchmark (``benchmarks/e2e``) measured for one workload: the medians and
quartiles of both sides and the pairs the change read better, for every
end-to-end metric ``BENCHMARK.json`` declares.  Lines are appended in PR
order, and each names the commit it was measured against, so the file is a
trajectory only if those commits follow the history.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "benchmarks" / "TRAJECTORY.jsonl"


def _lines():
    return [json.loads(line) for line in TRAJECTORY.read_text().splitlines()]


def _spec():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=False)


def test_every_line_has_the_same_keys():
    lines = _lines()
    assert lines
    keys = set(lines[0])
    assert {"pr", "parent", "workload", "seeds", "pairs"} <= keys
    for line in lines:
        assert set(line) == keys, line["pr"]
    metric_keys = {"parent", "parent_iqr", "change", "change_iqr", "better"}
    for line in lines:
        for name in (m["name"] for m in _spec()["end_to_end"]):
            metric = line[name]
            assert set(metric) == metric_keys, (line["pr"], line["workload"], name)
            for side in ("parent", "change"):
                q1, q3 = metric[f"{side}_iqr"]
                assert q1 <= metric[side] <= q3, (line["pr"], line["workload"], name, side)
            assert 0 <= metric["better"] <= line["pairs"]


def test_workloads_and_metrics_are_the_benchmarks():
    spec = _spec()
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for line in _lines():
        assert line["workload"] in workloads
        assert metrics <= set(line)
        assert line["pairs"] >= 10
        assert len(line["seeds"]) >= 1


def test_pr_increases_and_each_pr_has_one_parent():
    lines = _lines()
    prs = [line["pr"] for line in lines]
    assert prs == sorted(prs)
    seen = set()
    parent_of = {}
    for line in lines:
        key = (line["pr"], line["workload"])
        assert key not in seen, f"two lines for {key}"
        seen.add(key)
        assert parent_of.setdefault(line["pr"], line["parent"]) == line["parent"]


def test_parents_follow_git_log_order():
    if _git("rev-parse", "--git-dir").returncode != 0:
        pytest.skip("not a git checkout")
    parents = list(dict.fromkeys(line["parent"] for line in _lines()))
    for commit in parents:
        assert _git("cat-file", "-e", f"{commit}^{{commit}}").returncode == 0, (
            f"{commit} is not in this clone (a shallow clone needs fetch-depth: 0)"
        )
    for older, newer in zip(parents, parents[1:]):
        assert _git("merge-base", "--is-ancestor", older, newer).returncode == 0, (older, newer)
    assert _git("merge-base", "--is-ancestor", parents[-1], "HEAD").returncode == 0
