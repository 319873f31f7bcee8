"""Schema contract of the BENCH report: round-trip, validation failures."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    load_report,
    run_scenarios,
    validate_report,
    write_report,
)


class TestValidation:
    def test_valid_report_passes_unchanged(self, synthetic_report):
        report = synthetic_report()
        assert validate_report(report) is report

    def test_wrong_schema_version_rejected(self, synthetic_report):
        report = synthetic_report()
        report["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_report(report)

    @pytest.mark.parametrize("key", ["env", "settings", "results", "created_unix"])
    def test_missing_top_level_key_rejected(self, synthetic_report, key):
        report = synthetic_report()
        del report[key]
        with pytest.raises(BenchSchemaError, match=key):
            validate_report(report)

    def test_missing_result_key_rejected(self, synthetic_report):
        report = synthetic_report()
        del report["results"][1]["best_seconds"]
        with pytest.raises(BenchSchemaError, match=r"results\[1\].*best_seconds"):
            validate_report(report)

    def test_duplicate_scenario_names_rejected(self, synthetic_report):
        report = synthetic_report(names=("a/x", "a/x"))
        with pytest.raises(BenchSchemaError, match="duplicated"):
            validate_report(report)

    def test_empty_results_rejected(self, synthetic_report):
        report = synthetic_report()
        report["results"] = []
        with pytest.raises(BenchSchemaError, match="at least one"):
            validate_report(report)

    def test_wall_times_must_match_repeats(self, synthetic_report):
        report = synthetic_report()
        report["results"][0]["wall_times"] = [0.02]
        with pytest.raises(BenchSchemaError, match="wall_times"):
            validate_report(report)

    def test_non_positive_timing_rejected(self, synthetic_report):
        report = synthetic_report()
        report["results"][0]["wall_times"] = [0.02, 0.0]
        with pytest.raises(BenchSchemaError, match="positive"):
            validate_report(report)

    def test_missing_env_key_rejected(self, synthetic_report):
        report = synthetic_report()
        del report["env"]["cpu_count"]
        with pytest.raises(BenchSchemaError, match="cpu_count"):
            validate_report(report)


class TestRoundTrip:
    def test_write_load_round_trip(self, synthetic_report, tmp_path):
        report = synthetic_report()
        path = write_report(report, tmp_path / "sub" / "BENCH.json")
        assert path.exists()
        assert load_report(path) == report

    def test_write_rejects_invalid(self, synthetic_report, tmp_path):
        report = synthetic_report()
        report["results"] = []
        with pytest.raises(BenchSchemaError):
            write_report(report, tmp_path / "BENCH.json")

    def test_load_rejects_tampered_file(self, synthetic_report, tmp_path):
        path = write_report(synthetic_report(), tmp_path / "BENCH.json")
        tampered = json.loads(path.read_text())
        del tampered["env"]
        path.write_text(json.dumps(tampered))
        with pytest.raises(BenchSchemaError):
            load_report(path)


class TestRealRun:
    def test_tiny_real_run_is_schema_valid(self, tmp_path):
        """One real scenario through the runner produces a valid report."""
        report = run_scenarios(names=["solver/heat1d"], repeats=1, warmup=0)
        validate_report(report)
        path = write_report(report, tmp_path / "BENCH_real.json")
        loaded = load_report(path)
        (entry,) = loaded["results"]
        assert entry["name"] == "solver/heat1d"
        assert entry["units_per_second"] > 0
