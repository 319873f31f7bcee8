"""Tests for the study runner (the Snakemake substitute)."""

from __future__ import annotations

import pytest

from repro.api import OnlineTrainingConfig
from repro.workflow.study import StudyRunner, apply_overrides


class TestApplyOverrides:
    def test_run_level_overrides(self, tiny_run_config):
        config = apply_overrides(tiny_run_config, {"hidden_size": 32, "n_hidden_layers": 2})
        assert config.hidden_size == 32
        assert config.n_hidden_layers == 2
        # Untouched fields preserved.
        assert config.n_simulations == tiny_run_config.n_simulations

    def test_breed_level_overrides(self, tiny_run_config):
        config = apply_overrides(tiny_run_config, {"sigma": 3.0, "period": 7, "r_start": 0.2})
        assert config.breed.sigma == 3.0
        assert config.breed.period == 7
        assert config.breed.r_start == pytest.approx(0.2)
        # Non-overridden Breed values preserved.
        assert config.breed.window == tiny_run_config.breed.window

    def test_metadata_keys_ignored(self, tiny_run_config):
        config = apply_overrides(tiny_run_config, {"_factor": "sigma", "_value": 3.0, "sigma": 3.0})
        assert config.breed.sigma == 3.0

    def test_unknown_key_rejected(self, tiny_run_config):
        with pytest.raises(KeyError):
            apply_overrides(tiny_run_config, {"not_a_field": 1})

    def test_no_overrides_returns_equivalent_config(self, tiny_run_config):
        config = apply_overrides(tiny_run_config, {})
        assert isinstance(config, OnlineTrainingConfig)
        assert config.breed == tiny_run_config.breed


class TestStudyRunner:
    def test_single_run_produces_metrics_and_series(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="unit")
        (record,) = runner.run_all([{"hidden_size": 8}])
        assert record.name == "unit:0"
        for key in ("final_train_loss", "final_validation_loss", "overfit_gap", "elapsed_seconds"):
            assert key in record.metrics
        assert len(record.series["train_losses"]) == len(record.series["train_iterations"])
        assert record.config == {"hidden_size": 8}

    def test_run_all_with_factor_names(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="fig3b")
        configs = [
            {"_factor": "sigma", "_value": 1.0, "sigma": 1.0},
            {"_factor": "sigma", "_value": 25.0, "sigma": 25.0},
        ]
        results = runner.run_all(configs)
        assert len(results) == 2
        assert results.runs[0].name == "fig3b:sigma=1.0"

    def test_on_result_callback(self, tiny_run_config):
        seen = []
        runner = StudyRunner(base_config=tiny_run_config, study_name="cb", on_result=seen.append)
        runner.run_all([{}])
        assert [record.name for record in seen] == ["cb:0"]

    def test_shared_solver_and_validation_cached(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="cache")
        assert runner.shared_solver() is runner.shared_solver()
        assert runner.shared_validation_set() is runner.shared_validation_set()

    def test_validation_disabled(self, tiny_run_config):
        from dataclasses import replace

        config = replace(tiny_run_config, n_validation_trajectories=0)
        runner = StudyRunner(base_config=config, study_name="noval")
        assert runner.shared_validation_set() is None
