"""Tests for the Table-1 encoding and the experiment scale presets."""

from __future__ import annotations

import pytest

from repro.experiments.base import SCALES, base_config, scaled_breed_config, shared_study_inputs
from repro.experiments.table1 import TABLE1, VARIED_VALUES, render_table1


class TestTable1:
    def test_three_studies_present(self):
        assert set(TABLE1) == {"study1", "study2", "study3"}

    def test_study1_row_matches_paper(self):
        row = TABLE1["study1"]
        assert (row.sigma, row.period, row.window) == (10.0, 300, 200)
        assert (row.r_start, row.r_end, row.r_breakpoint) == (0.5, 0.7, 3)
        assert row.hidden_size is None and row.n_layers is None   # varied entries

    def test_study2_and_3_fix_architecture(self):
        assert TABLE1["study2"].hidden_size == 16 and TABLE1["study2"].n_layers == 1
        assert TABLE1["study3"].hidden_size == 16 and TABLE1["study3"].n_layers == 1

    def test_varied_value_grids_match_section_4_1(self):
        assert VARIED_VALUES["study1"]["hidden_size"] == [16, 32, 64]
        assert VARIED_VALUES["study1"]["n_layers"] == [1, 2, 3]
        assert VARIED_VALUES["study2"]["period"] == [10, 50, 100, 300, 500]
        assert VARIED_VALUES["study2"]["sigma"] == [1.0, 5.0, 10.0, 25.0]
        assert VARIED_VALUES["study3"]["r_start"] == [0.1, 0.5, 0.8, 1.0]

    def test_render_table1_contains_rows_and_stars(self):
        text = render_table1()
        assert "Study (1)" in text and "Study (3)" in text
        assert "*" in text
        assert "sigma" in text.splitlines()[0]


class TestScales:
    def test_presets_exist(self):
        assert {"smoke", "small", "paper"} <= set(SCALES)

    def test_paper_scale_matches_section4(self):
        paper = SCALES["paper"]
        assert paper.grid_size == 64
        assert paper.n_timesteps == 100
        assert paper.n_simulations == 800
        assert paper.batch_size == 128
        assert paper.reservoir_watermark == 300
        assert paper.n_validation_trajectories == 200
        assert paper.job_limit == 10

    def test_base_config_round_trip(self):
        config = base_config("smoke", method="random", seed=3)
        assert config.method == "random"
        assert config.seed == 3
        assert config.heat.grid_size == SCALES["smoke"].grid_size
        assert config.breed.period == SCALES["smoke"].breed_period

    def test_base_config_breed_overrides(self):
        config = base_config("smoke", sigma=3.0, period=7)
        assert config.breed.sigma == 3.0 and config.breed.period == 7

    def test_base_config_unknown_scale(self):
        with pytest.raises(KeyError):
            base_config("huge")

    def test_scaled_breed_config(self):
        config = scaled_breed_config(SCALES["paper"])
        assert config.sigma == 10.0 and config.period == 300 and config.window == 200


class TestSharedStudyInputs:
    def test_arrays_equal_the_study_cache_and_the_serial_build_bit_for_bit(self):
        # 32x32 with T=50 is large enough for the parallel (solver-worker)
        # build where this process may use two CPUs.
        from dataclasses import replace

        import numpy as np

        from repro.solvers.heat2d import Heat2DConfig
        from repro.surrogate.validation import validation_set_for_workload
        from repro.workflow.executor import StudyInputCache

        config = replace(
            base_config("smoke"),
            heat=Heat2DConfig(grid_size=32, n_timesteps=50),
            n_validation_trajectories=4,
        )
        workload, solver, validation = shared_study_inputs(config)
        assert workload == config.build_workload()
        _, cached = StudyInputCache().inputs(config)
        serial = validation_set_for_workload(workload, 4, solver=solver)
        for reference in (cached, serial):
            for field in ("inputs", "targets", "parameters"):
                ours, theirs = getattr(validation, field), getattr(reference, field)
                assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
                assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(theirs).tobytes()
