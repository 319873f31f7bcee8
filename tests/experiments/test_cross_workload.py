"""Cross-workload study: grid expansion, backend parity, resume, summaries."""

from __future__ import annotations

import math

import pytest

from repro.experiments.cross_workload import (
    METHODS,
    CrossWorkloadResult,
    _scaled_sigma,
    cross_workload_configurations,
    run_cross_workload,
)
from repro.experiments.base import base_config
from repro.workflow.executor import TIMING_METRICS
from repro.workflow.results import RunResult, StudyResults

#: cheap 1-D workloads used to keep these integration runs fast
FAST_WORKLOADS = ["advection1d", "burgers", "fisher"]


class TestConfigurations:
    def test_grid_covers_workload_times_method(self):
        configurations = cross_workload_configurations(FAST_WORKLOADS)
        assert len(configurations) == len(FAST_WORKLOADS) * len(METHODS)
        names = {c["_name"] for c in configurations}
        assert "burgers-breed" in names and "fisher-random" in names

    def test_sigma_rides_on_every_run_of_the_workload(self):
        configurations = cross_workload_configurations(["burgers"], sigmas={"burgers": 0.02})
        assert all(c["sigma"] == 0.02 for c in configurations)

    def test_sigma_scales_with_the_parameter_box(self):
        template = base_config("smoke")
        # heat workloads: 400-wide box -> exactly the preset sigma
        assert _scaled_sigma(template, "heat2d") == pytest.approx(template.breed.sigma)
        assert _scaled_sigma(template, "heat1d") == pytest.approx(template.breed.sigma)
        # transport workloads: O(1) boxes -> proportionally tiny proposals
        assert _scaled_sigma(template, "burgers") < 0.01 * template.breed.sigma


class TestStudy:
    @pytest.fixture(scope="class")
    def result(self) -> CrossWorkloadResult:
        return run_cross_workload(scale="smoke", workloads=FAST_WORKLOADS, seed=2)

    def test_one_run_per_cell(self, result):
        assert len(result.study.runs) == 6
        assert result.workloads == FAST_WORKLOADS

    def test_summary_rows_cover_every_cell(self, result):
        rows = result.summary_rows()
        assert len(rows) == 6
        assert {(w, m) for w, m, *_ in rows} == {
            (w, m) for w in FAST_WORKLOADS for m in METHODS
        }
        assert all(math.isfinite(val) for *_, val, _ in rows)

    def test_losses_and_improvement(self, result):
        for workload in FAST_WORKLOADS:
            losses = result.losses(workload)
            assert set(losses) == {"breed", "random"}
            improvement = result.breed_improvement(workload)
            assert math.isfinite(improvement)

    def test_improvement_nan_for_missing_workload(self, result):
        assert math.isnan(result.breed_improvement("heat2d"))

    def test_runs_record_their_workload(self, result):
        assert {run.workload for run in result.study.runs} == set(FAST_WORKLOADS)


class TestSeveralSeeds:
    @staticmethod
    def _result(losses):
        """A two-method burgers study, one run per ``(method, seed, validation MSE)``."""
        study = StudyResults(study="cross", runs=[
            RunResult(
                name=f"cross:burgers-{method}-s{seed}",
                config={"workload": "burgers", "method": method, "seed": seed},
                metrics={"final_train_loss": 0.5 * value, "final_validation_loss": value,
                         "overfit_gap": 0.5 * value},
                workload="burgers",
                seed=seed,
            )
            for method, seed, value in losses
        ])
        return CrossWorkloadResult(workloads=["burgers"], scale="smoke", study=study)

    def test_summaries_are_medians_over_seeds(self):
        result = self._result([
            ("breed", 0, 1.0), ("breed", 1, 2.0), ("breed", 2, 9.0),
            ("random", 0, 4.0), ("random", 1, 4.0), ("random", 2, 0.5),
        ])
        assert result.losses("burgers") == {"breed": 2.0, "random": 4.0}
        assert result.breed_improvement("burgers") == 0.5
        assert result.summary_rows() == [
            ("burgers", "breed", 1.0, 2.0, 1.0), ("burgers", "random", 2.0, 4.0, 2.0),
        ]

    def test_one_seed_reports_its_own_values(self):
        result = self._result([("breed", 3, 0.25), ("random", 3, 0.5)])
        assert result.losses("burgers") == {"breed": 0.25, "random": 0.5}
        assert len(result.summary_rows()) == 2


@pytest.mark.slow  # three full cross-workload studies per backend
class TestBackendsAndResume:
    def test_process_backend_is_bit_identical_to_serial(self):
        # one study over all three new families: 6 runs through each backend
        serial = run_cross_workload(scale="smoke", workloads=FAST_WORKLOADS, seed=4)
        process = run_cross_workload(
            scale="smoke", workloads=FAST_WORKLOADS, seed=4, backend="process", max_workers=2
        )
        for a, b in zip(serial.study.runs, process.study.runs):
            assert a.name == b.name
            assert a.series == b.series
            for key in a.metrics:
                if key not in TIMING_METRICS:
                    assert a.metrics[key] == b.metrics[key], (a.name, key)

    def test_resume_skips_completed_runs(self, tmp_path):
        checkpoint = tmp_path / "cross.runs.jsonl"
        first = run_cross_workload(
            scale="smoke", workloads=["fisher"], seed=6, checkpoint=checkpoint
        )
        assert len(checkpoint.read_text().splitlines()) == 2
        resumed = run_cross_workload(
            scale="smoke", workloads=["fisher"], seed=6, resume=checkpoint
        )
        assert checkpoint.read_text().count("\n") == 2  # nothing re-executed
        for a, b in zip(first.study.runs, resumed.study.runs):
            assert a.series == b.series
