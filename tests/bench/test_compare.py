"""Delta computation and the regression gate of ``bench --compare``."""

from __future__ import annotations

import pytest

from repro.bench import compare_reports, format_comparison


def with_best(report: dict, name: str, best: float) -> dict:
    for entry in report["results"]:
        if entry["name"] == name:
            entry["best_seconds"] = best
            entry["wall_times"] = [best] * entry["repeats"]
            entry["mean_seconds"] = best
            entry["units_per_second"] = entry["n_units"] / best
    return report


class TestDeltas:
    def test_percent_delta_is_relative_to_baseline(self, synthetic_report):
        baseline = with_best(synthetic_report(), "a/x", 0.100)
        current = with_best(synthetic_report(), "a/x", 0.150)
        comparison = compare_reports(baseline, current, threshold_pct=10.0)
        delta = {d.name: d for d in comparison.deltas}["a/x"]
        assert delta.delta_pct == pytest.approx(50.0)
        assert delta.regressed

    def test_faster_scenario_has_negative_delta(self, synthetic_report):
        baseline = with_best(synthetic_report(), "a/y", 0.200)
        current = with_best(synthetic_report(), "a/y", 0.050)
        comparison = compare_reports(baseline, current, threshold_pct=10.0)
        delta = {d.name: d for d in comparison.deltas}["a/y"]
        assert delta.delta_pct == pytest.approx(-75.0)
        assert not delta.regressed

    def test_threshold_boundary_is_not_a_regression(self, synthetic_report):
        baseline = with_best(synthetic_report(), "a/x", 0.100)
        current = with_best(synthetic_report(), "a/x", 0.110)
        comparison = compare_reports(baseline, current, threshold_pct=10.0)
        assert not comparison.has_regressions  # exactly +10% is allowed

    def test_injected_slowdown_is_flagged(self, synthetic_report):
        baseline = synthetic_report()
        current = synthetic_report()
        for entry in current["results"]:
            with_best(current, entry["name"], entry["best_seconds"] * 2.0)
        comparison = compare_reports(baseline, current, threshold_pct=15.0)
        assert comparison.has_regressions
        assert {d.name for d in comparison.regressions} == {"a/x", "a/y"}

    def test_negative_threshold_rejected(self, synthetic_report):
        with pytest.raises(ValueError):
            compare_reports(synthetic_report(), synthetic_report(), threshold_pct=-1.0)


class TestScenarioMatching:
    def test_unmatched_scenarios_are_listed_not_failed(self, synthetic_report):
        baseline = synthetic_report(names=("a/x", "a/old"))
        current = synthetic_report(names=("a/x", "a/new"))
        comparison = compare_reports(baseline, current)
        assert [d.name for d in comparison.deltas] == ["a/x"]
        assert comparison.only_in_baseline == ("a/old",)
        assert comparison.only_in_current == ("a/new",)
        assert not comparison.has_regressions

    def test_deltas_sorted_by_name(self, synthetic_report):
        baseline = synthetic_report(names=("b/z", "a/x", "a/y"))
        current = synthetic_report(names=("a/y", "b/z", "a/x"))
        comparison = compare_reports(baseline, current)
        assert [d.name for d in comparison.deltas] == ["a/x", "a/y", "b/z"]


class TestCompareCLI:
    def test_unmatched_scenarios_warn_and_skip_with_exit_zero(
        self, synthetic_report, tmp_path, capsys
    ):
        import json

        from repro.bench.cli import bench_main

        # The baseline knows one scenario the current run lacks (retired) and
        # lacks one the current run has (new) — both must warn, neither may
        # fail the gate.  A huge baseline best keeps the matched scenario
        # from ever regressing on a slow machine.
        baseline = synthetic_report(names=("solver/heat1d", "study/retired"))
        for entry in baseline["results"]:
            entry["best_seconds"] = 1000.0
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = bench_main(
            [
                "--scenario", "solver/heat1d",
                "--scenario", "solver/analytic",
                "--repeats", "1",
                "--warmup", "0",
                "--compare", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "warning: study/retired only in baseline" in out
        assert "warning: solver/analytic only in current report" in out
        assert "no regressions" in out

    def test_baseline_sharing_no_scenario_exits_two(self, synthetic_report, tmp_path, capsys):
        import json

        from repro.bench.cli import bench_main

        # A report of retired scenarios only: an empty table must not pass
        # as "no regressions".  Both name sets are printed.
        baseline = synthetic_report(names=("reservoir/draw", "nn/train_step"))
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(baseline))
        code = bench_main(
            ["--scenario", "solver/heat1d", "--repeats", "1", "--warmup", "0", "--compare", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "shares no scenario" in captured.err
        assert "nn/train_step, reservoir/draw" in captured.err
        assert "solver/heat1d" in captured.err
        assert "no regressions" not in captured.out


class TestFormatting:
    def test_table_names_regressions(self, synthetic_report):
        baseline = with_best(synthetic_report(), "a/x", 0.010)
        current = with_best(synthetic_report(), "a/x", 0.100)
        comparison = compare_reports(baseline, current, threshold_pct=15.0)
        text = format_comparison(comparison, baseline_label="BENCH_base.json")
        assert "REGRESSED" in text
        assert "REGRESSION:" in text
        assert "BENCH_base.json" in text

    def test_clean_table_reports_no_regressions(self, synthetic_report):
        comparison = compare_reports(synthetic_report(), synthetic_report())
        text = format_comparison(comparison)
        assert "no regressions" in text
