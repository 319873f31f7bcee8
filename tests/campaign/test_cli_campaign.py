"""`repro campaign` CLI surface: dry-run, resume guards, --fresh, --json."""

from __future__ import annotations

import json

import pytest

from faults import run_campaign_cli
from topologies import fanout_spec


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fanout_spec()))
    return path


class TestDryRun:
    def test_prints_schedule_without_executing(self, spec_file, tmp_path):
        rc, out, err = run_campaign_cli(
            [spec_file, "--root", tmp_path / "camp", "--dry-run"], cwd=tmp_path
        )
        assert rc == 0, err
        for node in ("root", "f1", "f2", "f3"):
            assert node in out
        assert "estimated runs: 4" in out
        assert not (tmp_path / "camp").exists()  # nothing ran, nothing written


    def test_counts_the_seeds_of_a_node(self, tmp_path):
        payload = fanout_spec()
        payload["nodes"][1]["seeds"] = [0, 1, 2]
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(payload))
        rc, out, err = run_campaign_cli([path, "--dry-run"], cwd=tmp_path)
        assert rc == 0, err
        assert "estimated runs: 6" in out
        (f1_row,) = [line for line in out.splitlines() if line.split()[:1] == ["f1"]]
        assert f1_row.split()[2] == "3"


class TestSpecErrors:
    def test_missing_spec_file_is_usage_error(self, tmp_path):
        rc, _out, err = run_campaign_cli(["nope.json"], cwd=tmp_path)
        assert rc == 2
        assert "spec file not found" in err

    def test_no_spec_and_no_root_is_usage_error(self, tmp_path):
        rc, _out, err = run_campaign_cli([], cwd=tmp_path)
        assert rc == 2
        assert "SPEC.json" in err

    def test_invalid_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "nodes": []}))
        rc, _out, err = run_campaign_cli([bad], cwd=tmp_path)
        assert rc == 2
        assert "at least one node" in err


class TestRunResumeFresh:
    def test_run_resume_and_fresh_lifecycle(self, spec_file, tmp_path):
        root = tmp_path / "camp"

        rc, out, err = run_campaign_cli([spec_file, "--root", root, "--json"], cwd=tmp_path)
        assert rc == 0, err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["ok"] is True
        assert summary["runs_executed"] == 3
        assert summary["cache_hits"] == 1

        # a root with history refuses a plain re-launch and names the way out
        rc, _out, err = run_campaign_cli([spec_file, "--root", root], cwd=tmp_path)
        assert rc == 2
        assert "--resume" in err and "--fresh" in err

        # --resume without the spec file: recalled from <root>/campaign.json
        rc, out, err = run_campaign_cli(["--root", root, "--resume", "--json"], cwd=tmp_path)
        assert rc == 0, err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["runs_executed"] == 0
        assert summary["runs_resumed"] == 4

        # --fresh wipes the root and re-executes from scratch
        rc, out, err = run_campaign_cli(
            [spec_file, "--root", root, "--fresh", "--json"], cwd=tmp_path
        )
        assert rc == 0, err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["runs_executed"] == 3
        assert summary["runs_resumed"] == 0


def test_prints_one_finished_line_per_run_before_the_table(spec_file, tmp_path):
    """Catches a silent campaign: each run reports as it finishes, not at the end."""
    rc, out, err = run_campaign_cli(
        [spec_file, "--root", tmp_path / "camp", "--json"], cwd=tmp_path
    )
    assert rc == 0, err
    lines = out.splitlines()
    finished = [line for line in lines if line.startswith("finished ")]
    assert sorted(finished) == [f"finished {name}:0" for name in ("f1", "f2", "f3", "root")]
    table = next(i for i, line in enumerate(lines) if line.split()[:2] == ["node", "state"])
    assert max(lines.index(line) for line in finished) < table
    assert json.loads(lines[-1])["ok"] is True
