"""A seconds-long shrunken-shape pass over every workload, through the CLI.

The numbers of these runs are never reported: the pass checks that each
workload runs end to end, that its checks pass, that a traced run changes no
output, and that the contract line carries exactly the declared metrics.
"""

import json
import shutil
import subprocess
import sys

import pytest

from e2e import run

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def contract(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shrunken_workload_end_to_end(workload, capsys):
    code, result, _ = contract(capsys, "--shrunk", "--workload", workload, "--seed", "3", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert not run.WORK.exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shrunken_workload_traced(workload, capsys):
    code, result, lines = contract(capsys, "--shrunk", "--workload", workload, "--seed", "3", "--trace", "1")
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["trace.closure_pct"] > 50.0
    # every metric is printed by name with its unit before the contract line
    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith(("==", "--"))}
    assert {m["name"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])} <= printed
    assert {"ops_attempted", "ops_failed"} <= printed
    layer = {
        "paper_heat2d": ("surrogate.valset_build_s", "nn.backward_s", "nn.tape_nodes", "session.ticks"),
        "stream_heat2d": ("checkpoint.save_s", "checkpoint.restore_s", "checkpoint.bytes", "solvers.step_s"),
        "study_grid": ("workflow.input_build_s", "workflow.shm.wall_s", "workflow.process.runs_per_s"),
        "service_jobs": ("service.exec_s", "service.dedupe_submit_s", "service.events_per_job"),
    }[workload]
    assert all(values[name] > 0 for name in layer)


def test_failed_check_is_counted_and_exits_nonzero(monkeypatch, capsys):
    real = run.spawn

    def spawn(*args, **kwargs):
        record = real(*args, **kwargs)
        record["failures"] = ["injected"]
        return record

    monkeypatch.setattr(run, "spawn", spawn)
    code, result, lines = contract(capsys, "--shrunk", "--workload", "paper_heat2d", "--trace", "0")
    assert code == 1 and result["correct"] is False and result["failed"] == 1
    assert "FAILED injected" in lines


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark: non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper_heat2d",
         "--seed", "0", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
