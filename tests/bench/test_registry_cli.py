"""Scenario-selection determinism and the bench CLI exit-code contract."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    REGRESSION_EXIT_CODE,
    get_scenario,
    load_report,
    register_scenario,
    run_scenarios,
    scenario_groups,
    scenario_names,
    select_scenarios,
    write_report,
)
from repro.cli import main as cli_main


class TestSelectionDeterminism:
    def test_full_selection_is_sorted_and_stable(self):
        first = [s.name for s in select_scenarios()]
        second = [s.name for s in select_scenarios()]
        assert first == second == sorted(first)
        assert first == scenario_names()

    def test_selection_order_is_independent_of_request_order(self):
        a = [s.name for s in select_scenarios(names=["solver/heat1d", "nn/conv_forward"])]
        b = [s.name for s in select_scenarios(names=["nn/conv_forward", "solver/heat1d"])]
        assert a == b == ["nn/conv_forward", "solver/heat1d"]

    def test_group_selection_expands_every_member(self):
        selected = {s.name for s in select_scenarios(groups=["solver"])}
        assert selected == {n for n in scenario_names() if n.startswith("solver/")}

    def test_groups_and_names_union_without_duplicates(self):
        selected = [
            s.name
            for s in select_scenarios(names=["solver/heat1d"], groups=["solver"])
        ]
        assert selected == sorted(set(selected))

    def test_unknown_scenario_and_group_raise(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            select_scenarios(names=["nope/nothing"])
        with pytest.raises(KeyError, match="unknown group"):
            select_scenarios(groups=["nope"])

    def test_expected_groups_are_registered(self):
        # What the repo benchmark's traced layers time has no scenario here.
        assert set(scenario_groups()) == {"campaign", "nn", "session", "solver"}

    def test_every_workload_has_a_solver_scenario(self):
        from repro.api.registry import workload_names

        names = set(scenario_names())
        for workload in workload_names():
            assert f"solver/{workload}" in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("solver/heat1d", units="x", description="dup")(lambda: None)
        with pytest.raises(ValueError, match="group/name"):
            register_scenario("nogroup", units="x", description="bad")(lambda: None)


@pytest.mark.slow  # builds every scenario: a training session and a campaign included
@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_runs_once_with_positive_units(name):
    """Each ``repro bench`` scenario builds, runs once and counts its work."""
    run = get_scenario(name).build()
    try:
        assert run.fn() > 0
    finally:
        if run.cleanup is not None:
            run.cleanup()


class TestBenchCli:
    FAST = ["--scenario", "solver/heat1d", "--repeats", "1", "--warmup", "0"]

    def test_list_scenarios_exits_zero(self, capsys):
        assert cli_main(["bench", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "campaign/cache_hit" in out and "solver/heat2d" in out

    def test_out_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert cli_main(["bench", *self.FAST, "--out", str(out)]) == 0
        report = load_report(out)
        assert [e["name"] for e in report["results"]] == ["solver/heat1d"]
        assert report["settings"] == {"repeats": 1, "warmup": 0}

    def test_unknown_scenario_exits_two(self, capsys):
        assert cli_main(["bench", "--scenario", "nope/nothing"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        baseline = run_scenarios(names=["solver/heat1d"], repeats=1, warmup=0)
        # A generous baseline (10x slower) can never flag a regression.
        for entry in baseline["results"]:
            entry["best_seconds"] *= 10.0
            entry["wall_times"] = [entry["best_seconds"]]
        path = write_report(baseline, tmp_path / "baseline.json")
        assert cli_main(["bench", *self.FAST, "--compare", str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_injected_slowdown(self, tmp_path, capsys):
        """A baseline doctored 100x faster makes the current run 'regress'."""
        baseline = run_scenarios(names=["solver/heat1d"], repeats=1, warmup=0)
        for entry in baseline["results"]:
            entry["best_seconds"] /= 100.0
            entry["wall_times"] = [entry["best_seconds"]]
        path = write_report(baseline, tmp_path / "baseline.json")
        code = cli_main(
            ["bench", *self.FAST, "--compare", str(path), "--threshold", "50"]
        )
        assert code == REGRESSION_EXIT_CODE
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_rejects_wrong_schema_version(self, tmp_path):
        baseline = run_scenarios(names=["solver/heat1d"], repeats=1, warmup=0)
        baseline["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(baseline))
        from repro.bench import BenchSchemaError

        with pytest.raises(BenchSchemaError):
            cli_main(["bench", *self.FAST, "--compare", str(path)])
