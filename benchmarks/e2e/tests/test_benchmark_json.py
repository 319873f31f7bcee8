"""``BENCHMARK.json`` stays inside the driver's limits and matches the code."""

import json
import re

from e2e import run, workloads

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert len(SPEC["command"]) <= 32 and all(len(part) <= 200 for part in SPEC["command"])


def test_names_units_and_bounds():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in (*SPEC["end_to_end"], *SPEC["per_layer"]):
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.COUNTS) == set(workloads.SHRUNK_COUNTS) == set(workloads.WORKLOADS)
    assert set(run.SETUP_REPEATS) == set(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(run.EXACT_COUNTS) <= declared
    assert run.STUDY_BACKENDS == workloads.STUDY_BACKENDS


def test_counts_scale_with_seconds_only():
    assert workloads.scaled_counts("paper_heat2d", workloads.RUN_SECONDS) == workloads.COUNTS["paper_heat2d"]
    half = workloads.scaled_counts("service_jobs", workloads.RUN_SECONDS / 2)
    assert half == {"n_jobs": workloads.COUNTS["service_jobs"]["n_jobs"] // 2}
    assert workloads.scaled_counts("study_grid", 0.001) == {"n_seeds": 1}
    assert json.dumps(workloads.SHRUNK_SHAPE)  # plain JSON-able values only
