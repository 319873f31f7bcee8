"""Tests for configuration grids and study result records."""

from __future__ import annotations

import pytest

from repro.workflow.grid import one_factor_at_a_time
from repro.workflow.results import RunResult, StudyResults, sign_test_p, verdict


class TestOneFactorAtATime:
    def test_expansion_and_tags(self):
        configs = one_factor_at_a_time(
            base={"sigma": 5.0, "period": 200},
            factors={"sigma": [1.0, 10.0], "period": [100, 300, 500]},
        )
        assert len(configs) == 5
        sigma_configs = [c for c in configs if c["_factor"] == "sigma"]
        assert len(sigma_configs) == 2
        assert all(c["period"] == 200 for c in sigma_configs)
        assert [c["_value"] for c in sigma_configs] == [1.0, 10.0]

    def test_unknown_factor(self):
        with pytest.raises(KeyError):
            one_factor_at_a_time(base={"sigma": 5.0}, factors={"window": [1]})

    def test_empty_values(self):
        with pytest.raises(ValueError):
            one_factor_at_a_time(base={"sigma": 5.0}, factors={"sigma": []})


class TestRunResult:
    def test_metric_access(self):
        run = RunResult(name="r", config={"H": 16}, metrics={"loss": 0.5})
        assert run.metric("loss") == 0.5
        assert run.metric("missing") != run.metric("missing")  # NaN

    def test_to_dict_jsonable(self):
        import numpy as np

        run = RunResult(
            name="r",
            config={"H": np.int64(16)},
            metrics={"loss": np.float64(0.5)},
            series={"curve": [np.float64(1.0)]},
        )
        payload = run.to_dict()
        assert isinstance(payload["config"]["H"], int)
        assert isinstance(payload["metrics"]["loss"], float)


class TestStudyResults:
    def _results(self):
        results = StudyResults(study="demo")
        results.add(RunResult("a", {"H": 16, "method": "breed"}, {"loss": 0.3}))
        results.add(RunResult("b", {"H": 32, "method": "breed"}, {"loss": 0.1}))
        results.add(RunResult("c", {"H": 16, "method": "random"}, {"loss": 0.2}))
        return results

    def test_len_iter(self):
        results = self._results()
        assert len(results) == 3
        assert len(list(results)) == 3

    def test_filter(self):
        results = self._results()
        assert len(results.filter(H=16)) == 2
        assert len(results.filter(H=16, method="random")) == 1

    def test_best(self):
        results = self._results()
        assert results.best("loss").name == "b"
        assert results.best("loss", minimize=False).name == "a"
        assert StudyResults("empty").best("loss") is None

    def test_table_rendering(self):
        table = self._results().table(columns=["H", "method"], metric_columns=["loss"])
        assert "loss" in table.splitlines()[0]
        assert len(table.splitlines()) == 5  # header + separator + 3 rows

    def test_json_roundtrip(self, tmp_path):
        # A resumed study reloads completed runs from JSON: every metric,
        # the wall-clock elapsed_seconds included, must come back unchanged.
        results = self._results()
        results.runs[0].metrics["elapsed_seconds"] = 2.0
        results.runs[1].metrics["elapsed_seconds"] = 0.5
        path = results.save_json(tmp_path / "study.json")
        loaded = StudyResults.load_json(path)
        assert loaded.study == "demo"
        assert len(loaded) == 3
        assert loaded.best("loss").name == "b"
        assert [run.metrics for run in loaded] == [run.metrics for run in results]
        assert loaded.runs[0].metric("elapsed_seconds") == 2.0

    def test_workload_and_seed_round_trip(self, tmp_path):
        # Multi-workload study JSON stays self-describing: each run records
        # its effective workload and seed even when the config dict omits them.
        results = StudyResults(study="multi")
        results.add(RunResult("a", {"method": "breed"}, {"loss": 0.3}, workload="heat2d", seed=5))
        results.add(RunResult("b", {"method": "breed"}, {"loss": 0.2}, workload="heat1d", seed=7))
        path = results.save_json(tmp_path / "multi.json")
        loaded = StudyResults.load_json(path)
        assert [(r.workload, r.seed) for r in loaded] == [("heat2d", 5), ("heat1d", 7)]

    def test_save_creates_missing_parent_directories(self, tmp_path):
        path = self._results().save_json(tmp_path / "a" / "b" / "results.json")
        assert path == tmp_path / "a" / "b" / "results.json"
        assert len(StudyResults.load_json(path)) == 3

    def test_save_replaces_previous_results(self, tmp_path):
        path = self._results().save_json(tmp_path / "results.json")
        smaller = StudyResults(study="again")
        smaller.add(RunResult("z", {}, {"loss": 0.9}))
        smaller.save_json(path)
        loaded = StudyResults.load_json(path)
        assert (loaded.study, [r.name for r in loaded]) == ("again", ["z"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json"]

    def test_failed_save_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        # A file-size limit makes the write of the larger results fail
        # partway (EFBIG), the way a full disk would.
        resource = pytest.importorskip("resource")
        import signal

        path = self._results().save_json(tmp_path / "results.json")
        previous = path.read_text()
        bigger = StudyResults(study="demo")
        bigger.add(RunResult("big", {}, {"loss": 0.1}, series={"curve": [0.5] * 4096}))
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4 * len(previous), limits[1]))
        try:
            with pytest.raises(OSError):
                bigger.save_json(path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_text() == previous
        assert StudyResults.load_json(path).best("loss").name == "b"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json"]

    def test_legacy_payload_without_workload_defaults(self):
        run = RunResult.from_dict({"name": "old", "config": {}, "metrics": {"loss": 1.0}})
        assert run.workload == "heat2d"
        assert run.seed == 0


class TestTelemetrySummary:
    def test_sums_per_run_counters_and_skips_worker_metadata(self):
        results = StudyResults(study="s")
        results.add(RunResult(
            "a", {}, {}, telemetry={"repro_session_ticks_total": 3.0, "_worker_pid": 11.0}
        ))
        results.add(RunResult(
            "b", {}, {}, telemetry={"repro_session_ticks_total": 5.0, "_worker_pid": 12.0}
        ))
        assert results.telemetry_summary() == {"repro_session_ticks_total": 8.0}

    def test_empty_when_telemetry_disabled(self):
        results = StudyResults(study="s")
        results.add(RunResult("a", {}, {}))
        assert results.telemetry_summary() == {}

    def test_telemetry_round_trips_through_json(self, tmp_path):
        results = StudyResults(study="s")
        results.add(RunResult("a", {}, {}, telemetry={"repro_solver_steps_total": 40.0}))
        loaded = StudyResults.load_json(results.save_json(tmp_path / "study.json"))
        assert loaded.runs[0].telemetry == {"repro_solver_steps_total": 40.0}

    def test_legacy_payload_without_telemetry_defaults_empty(self):
        run = RunResult.from_dict({"name": "old", "config": {}, "metrics": {}})
        assert run.telemetry == {}


def _planted(effect: float, wobble: float = 0.0) -> StudyResults:
    """Ten seeds of breed/random pairs; breed = random × (1 − effect) ± wobble."""
    study = StudyResults(study="planted")
    for seed in range(10):
        random = 1.0 + 0.37 * ((seed * 7) % 10)
        breed = random * (1.0 - effect + (wobble if seed % 2 else -wobble))
        for method, value in (("breed", breed), ("random", random)):
            study.add(RunResult(
                name=f"planted:{method}-s{seed}",
                config={"_name": f"{method}-s{seed}", "method": method, "seed": seed},
                metrics={"final_validation_loss": value},
                seed=seed,
            ))
    return study


class TestPairedStatistics:
    def test_sign_test_exact_values(self):
        assert sign_test_p(10, 0) == pytest.approx(2 / 1024)
        assert sign_test_p(0, 10) == sign_test_p(10, 0)
        assert sign_test_p(8, 2) == pytest.approx(2 * (1 + 10 + 45) / 1024)
        assert sign_test_p(5, 5) == 1.0
        assert sign_test_p(0, 0) == 1.0  # nothing but ties

    def test_planted_five_percent_effect_is_detected(self):
        (comparison,) = _planted(0.05).paired("final_validation_loss", by="method")
        assert (comparison.group, comparison.baseline) == ("breed", "random")
        assert comparison.seeds == list(range(10))
        assert comparison.ratios == pytest.approx([0.95] * 10)
        assert (comparison.wins, comparison.losses) == (10, 0)
        assert comparison.p < 0.05
        assert comparison.verdict() == "holds"

    @pytest.mark.parametrize("wobble", [0.0, 0.01])
    def test_planted_zero_effect_is_unresolved(self, wobble):
        (comparison,) = _planted(0.0, wobble).paired("final_validation_loss", by="method")
        assert comparison.wins == comparison.losses  # ties count for neither side
        assert comparison.p == 1.0
        assert comparison.verdict() == "unresolved"

    def test_verdict_rule(self):
        # 5 of 5 seeds give p = 0.0625: not enough seeds to settle the claim
        assert [verdict(5, 0), verdict(6, 0), verdict(0, 6), verdict(8, 2)] == [
            "unresolved", "holds", "does not hold", "unresolved"
        ]

    def test_effect_against_the_claim_does_not_hold(self):
        (comparison,) = _planted(0.05).paired("final_validation_loss", better="higher")
        assert comparison.verdict() == "does not hold"

    def test_cells_pair_separately_and_a_metric_can_be_a_function(self):
        study = _planted(0.05)
        for run in study:
            run.config["hidden_size"] = 16 if run.seed < 5 else 32
        comparisons = study.paired(lambda run: -run.metric("final_validation_loss"), better="higher")
        assert [c.cell for c in comparisons] == ["hidden_size=16", "hidden_size=32"]
        assert [c.wins for c in comparisons] == [5, 5]
        row = comparisons[0].to_dict()
        assert row["metric"] == "<lambda>"
        assert {"median", "iqr", "baseline_median", "baseline_iqr", "p", "verdict"} <= set(row)

    def test_runs_without_the_grouping_key_are_named(self):
        study = StudyResults(study="x", runs=[RunResult(name="x:0", config={}, metrics={})])
        with pytest.raises(ValueError, match="x:0"):
            study.paired()


class TestAnalysisFields:
    def test_old_records_load_and_analyses_name_the_run(self):
        old = RunResult.from_dict({"name": "fig4:breed", "config": {}, "metrics": {}})
        assert old.executed_parameters == [] and old.sample_correlations == []
        with pytest.raises(ValueError, match="fig4:breed.*executed_parameters"):
            old.analysis("executed_parameters")
        with pytest.raises(ValueError, match="fig4:breed.*sample_correlations"):
            old.analysis("sample_correlations")

    def test_fields_round_trip(self):
        record = RunResult(
            name="r", config={}, metrics={},
            executed_parameters=[[1.5, 2.0]], parameter_sources=["proposal"],
            sample_correlations=[[1.0]],
        )
        assert RunResult.from_dict(record.to_dict()) == record
