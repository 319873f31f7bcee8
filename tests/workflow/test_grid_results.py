"""Tests for configuration grids and study result records."""

from __future__ import annotations

import pytest

from repro.workflow.grid import ParameterGrid, one_factor_at_a_time
from repro.workflow.results import RunResult, StudyResults


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid(base={"seed": 0}, axes={"H": [16, 32], "L": [1, 2, 3]})
        configs = grid.configurations()
        assert len(grid) == 6 and len(configs) == 6
        assert all(c["seed"] == 0 for c in configs)
        assert {(c["H"], c["L"]) for c in configs} == {(h, l) for h in (16, 32) for l in (1, 2, 3)}

    def test_empty_axes_single_config(self):
        grid = ParameterGrid(base={"x": 1})
        assert grid.configurations() == [{"x": 1}]

    def test_axis_conflicts_with_base(self):
        with pytest.raises(ValueError):
            ParameterGrid(base={"H": 16}, axes={"H": [16, 32]})

    def test_empty_axis_values(self):
        with pytest.raises(ValueError):
            ParameterGrid(axes={"H": []})

    def test_with_base(self):
        grid = ParameterGrid(axes={"H": [1]}).with_base(seed=3)
        assert grid.configurations()[0]["seed"] == 3


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
        results = self._results()
        path = results.save_json(tmp_path / "study.json")
        loaded = StudyResults.load_json(path)
        assert loaded.study == "demo"
        assert len(loaded) == 3
        assert loaded.best("loss").name == "b"

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


class TestTimingSummary:
    def test_summarises_elapsed_seconds(self):
        results = StudyResults(study="s")
        results.add(RunResult(name="a", config={}, metrics={"elapsed_seconds": 2.0}))
        results.add(RunResult(name="b", config={}, metrics={"elapsed_seconds": 4.0}))
        results.add(RunResult(name="c", config={}, metrics={}))  # no timing recorded
        summary = results.timing_summary()
        assert summary == {
            "runs": 3.0,
            "total_seconds": 6.0,
            "mean_seconds": 3.0,
            "max_seconds": 4.0,
        }

    def test_empty_results(self):
        summary = StudyResults(study="s").timing_summary()
        assert summary == {
            "runs": 0.0,
            "total_seconds": 0.0,
            "mean_seconds": 0.0,
            "max_seconds": 0.0,
        }

    def test_single_run(self):
        results = StudyResults(study="s")
        results.add(RunResult(name="a", config={}, metrics={"elapsed_seconds": 1.5}))
        summary = results.timing_summary()
        assert summary["runs"] == 1.0
        assert summary["total_seconds"] == summary["mean_seconds"] == summary["max_seconds"] == 1.5

    def test_runs_without_timing_only(self):
        # All-resumed study where no attempt recorded wall time: counts runs,
        # zeros the aggregates instead of dividing by zero.
        results = StudyResults(study="s")
        results.add(RunResult(name="a", config={}, metrics={}))
        results.add(RunResult(name="b", config={}, metrics={}))
        summary = results.timing_summary()
        assert summary["runs"] == 2.0
        assert summary["mean_seconds"] == 0.0

    def test_survives_json_resume_round_trip(self, tmp_path):
        # A resumed study reloads completed runs from JSON; their restored
        # elapsed_seconds must summarise identically to the live objects.
        results = StudyResults(study="s")
        results.add(RunResult(name="a", config={}, metrics={"elapsed_seconds": 2.0}))
        results.add(RunResult(name="b", config={}, metrics={"elapsed_seconds": 0.5}))
        loaded = StudyResults.load_json(results.save_json(tmp_path / "study.json"))
        assert loaded.timing_summary() == results.timing_summary()


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
