"""Integration tests of the figure-reproduction harness (tiny scale).

Each test runs the real experiment pipeline at a reduced size (fewer
architecture cells / factor values than ``repro fig3a|fig3b``) and checks the
structural properties the paper reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.base import base_config
from repro.experiments.fig3a import run_fig3a
from repro.experiments.fig3b import run_fig3b
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.overhead import OverheadResult, run_overhead
from repro.workflow.results import RunResult, StudyResults

#: ``run_fig6(scale="smoke", seed=3)``'s matrix, one exact float repr per
#: coefficient: pinned when the statistics were recorded as one object per
#: sample, so reading them as columns must not move a bit
FIG6_SMOKE_SEED3 = [
    [1.0, 0.6365082608870787, 0.07459804580429095, -0.8241328364322582,
     -0.41917647754045484, -0.9258442271975075, -0.008612030406772856],
    [0.6365082608870787, 1.0, -0.019041213293888703, -0.49650444186469167,
     -0.6407717942959426, -0.5714399986842306, 0.04654494128157441],
    [0.07459804580429095, -0.019041213293888703, 1.0, -0.05451784518479932,
     0.0013581694809735863, -0.0837574690683423, -0.11469601604503034],
    [-0.8241328364322582, -0.49650444186469167, -0.05451784518479932, 1.0,
     0.31985659938916233, 0.8901420046943258, 0.317820279905452],
    [-0.41917647754045484, -0.6407717942959426, 0.0013581694809735863, 0.31985659938916233,
     1.0, 0.3715568214479121, 0.05967191911113422],
    [-0.9258442271975075, -0.5714399986842306, -0.0837574690683423, 0.8901420046943258,
     0.3715568214479121, 1.0, 0.009660658326075568],
    [-0.008612030406772856, 0.04654494128157441, -0.11469601604503034, 0.317820279905452,
     0.05967191911113422, 0.009660658326075568, 1.0],
]


class TestFig3a:
    @pytest.fixture(scope="class")
    def result(self):
        # One cell, both methods, smoke scale.
        return run_fig3a(scale="smoke", hidden_sizes=[16], layer_counts=[1], seed=3)

    def test_cells_and_curves_present(self, result):
        assert len(result.cells) == 1
        cell = result.cell(16, 1)
        assert set(cell.curves) == {"Breed", "Random"}
        assert cell.label == "H=16, L=1"

    def test_curves_have_losses(self, result):
        for curve in result.cell(16, 1).curves.values():
            assert curve.train_iterations.size > 0
            assert curve.validation_iterations.size > 0
            assert np.all(np.isfinite(curve.train_losses))

    def test_summary_rows(self, result):
        rows = result.summary_rows()
        assert len(rows) == 2
        assert all(len(row) == 5 for row in rows)

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell(99, 9)


class TestFig3b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3b(scale="smoke", factors={"sigma": [1.0, 25.0]}, seed=3)

    def test_panels(self, result):
        assert len(result.panels) == 1
        panel = result.panel("sigma")
        assert set(panel.curves) == {1.0, 25.0}

    def test_summary_rows(self, result):
        rows = result.summary_rows()
        assert len(rows) == 2
        assert all(row[0] == "sigma" for row in rows)

    def test_missing_panel_raises(self, result):
        with pytest.raises(KeyError):
            result.panel("window")


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(scale="smoke", seed=3)

    def test_histograms_present(self, result):
        assert set(result.by_source) == {"Uniform", "Proposal"}
        assert set(result.by_method) == {"Random", "Breed"}

    def test_breed_run_contains_proposal_vectors(self, result):
        assert result.by_source["Proposal"].n > 0
        assert result.by_source["Uniform"].n > 0

    def test_total_vectors_equal_budget(self, result):
        budget = base_config("smoke").n_simulations
        assert result.by_source["Proposal"].n + result.by_source["Uniform"].n == budget
        assert result.by_method["Breed"].n == budget
        assert result.by_method["Random"].n == budget

    def test_breed_shifts_deviation_upwards(self, result):
        # The paper's qualitative claim (Fig. 4b): Breed's mean parameter
        # deviation is shifted towards higher values than Random's.
        assert result.breed_mean_shift > 0.0

    def test_summary_keys(self, result):
        assert {"uniform_mean", "proposal_mean", "breed_mean_shift"} <= set(result.summary())

    def test_mean_shift_over_four_seeds_is_positive(self, result):
        # ~50 vectors per smoke run make one seed's shift noisy; the paper's
        # claim is checked on the four-seed mean (EXPERIMENTS.md, Figure 4).
        shifts = [result.breed_mean_shift] + [
            run_fig4(scale="smoke", seed=seed).breed_mean_shift for seed in (0, 1, 2)
        ]
        assert sum(shifts) / len(shifts) > 0.0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(scale="smoke", seed=3)

    def test_matrix_dimensions(self, result):
        assert result.matrix.matrix.shape == (7, 7)

    def test_matrix_is_pinned(self, result):
        assert result.matrix.matrix.tolist() == FIG6_SMOKE_SEED3

    def test_run_is_its_fig3a_twin(self, result):
        # Analysis is not configuration: the fig3a H16-L1 Breed run is the same
        # run, under the same digest, and its record carries the same matrix.
        (run,) = result.study.runs
        twin = run_fig3a(
            scale="smoke", hidden_sizes=[16], layer_counts=[1], methods=("breed",), seed=3
        ).study.runs[0]
        assert twin.name == "fig3a:H16-L1-breed"
        assert run.digest == twin.digest
        assert run.sample_correlations == twin.sample_correlations

    def test_matrix_read_from_the_run_record(self, result):
        (run,) = result.study.runs
        np.testing.assert_array_equal(result.matrix.matrix, np.asarray(run.sample_correlations))

    def test_paper_shape_checks(self, result):
        checks = result.checks()
        assert checks["deviation_weakly_coupled_to_iteration"]
        assert checks["deviation_positively_tracks_sample_loss"]
        assert checks["losses_decrease_with_iteration"]

    def test_key_findings_magnitudes(self, result):
        findings = result.key_findings()
        # Deviation metric should be far less coupled to the iteration than the raw loss.
        assert abs(findings["deviation_vs_iteration"]) < abs(findings["sample_loss_vs_iteration"])


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run_overhead(scale="smoke", seed=3)

    def test_random_run_has_zero_steering_time(self, result):
        (random_run,) = result.study.filter(method="random")
        assert random_run.metric("steering_seconds") == 0.0
        assert random_run.metric("steering_events") == 0.0

    def test_breed_steering_time_is_small(self, result):
        (breed_run,) = result.study.filter(method="breed")
        assert breed_run.metric("steering_seconds") < 1.0
        # a smoke run lasts ~0.1 s, so its steering share is no test of the claim
        assert result.overhead_is_negligible == (result.steering_share(breed_run) < 0.05)

    @pytest.mark.parametrize(
        "steering, elapsed, negligible",
        [(0.6, 60.0, True), (0.4, 1.0, False)],
        ids=["0.6s-of-60s", "0.4s-of-1s"],
    )
    def test_negligible_means_under_five_percent_of_the_runs_wall_time(
        self, steering, elapsed, negligible
    ):
        study = StudyResults(study="overhead")
        for method, seconds in (("breed", steering), ("random", 0.0)):
            study.add(RunResult(
                name=f"overhead:{method}",
                config={"_name": method, "method": method},
                metrics={"steering_seconds": seconds, "elapsed_seconds": elapsed,
                         "iterations": 5000.0, "steering_events": 16.0},
            ))
        assert OverheadResult.from_study(study).overhead_is_negligible is negligible

    def test_summary(self, result):
        summary = result.summary()
        assert summary["breed_steering_events"] >= 1
        assert summary["breed_steering_seconds"] >= 0.0
