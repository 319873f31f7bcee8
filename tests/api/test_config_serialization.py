"""Round-trip tests for OnlineTrainingConfig.to_dict / from_dict."""

from __future__ import annotations

import json

import pytest

from repro.api import OnlineTrainingConfig
from repro.breed.samplers import BreedConfig
from repro.sampling.bounds import ParameterBounds
from repro.solvers.heat2d import Heat2DConfig


class TestToDict:
    def test_default_config_is_json_compatible(self):
        data = OnlineTrainingConfig().to_dict()
        text = json.dumps(data)  # raises on non-JSON values
        assert json.loads(text) == data

    def test_nested_sections_present(self):
        data = OnlineTrainingConfig().to_dict()
        assert data["workload"] == "heat2d"
        assert data["method"] == "breed"
        assert data["breed"]["period"] == BreedConfig().period
        assert data["heat"]["grid_size"] == 12
        assert data["bounds"]["low"] == [100.0] * 5
        assert data["workload_options"] == {}


class TestRoundTrip:
    def test_default_round_trip(self):
        config = OnlineTrainingConfig()
        assert OnlineTrainingConfig.from_dict(config.to_dict()) == config

    def test_customised_round_trip(self):
        config = OnlineTrainingConfig(
            method="random",
            workload="heat1d",
            breed=BreedConfig(sigma=5.0, period=25, window=40),
            heat=Heat2DConfig(grid_size=8, n_timesteps=6),
            bounds=ParameterBounds(low=(0.0, 1.0), high=(2.0, 3.0), names=("a", "b")),
            workload_options={"n_points": 48},
            n_simulations=7,
            hidden_size=4,
            activation="tanh",
            seed=99,
        )
        rebuilt = OnlineTrainingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.breed == config.breed
        assert rebuilt.bounds == config.bounds
        assert rebuilt.workload_options == {"n_points": 48}

    def test_round_trip_through_json_text(self):
        config = OnlineTrainingConfig(workload="analytic", workload_options={"n_modes": 32})
        rebuilt = OnlineTrainingConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_partial_dict_takes_defaults(self):
        rebuilt = OnlineTrainingConfig.from_dict({"seed": 5, "workload": "heat1d"})
        assert rebuilt.seed == 5
        assert rebuilt.workload == "heat1d"
        assert rebuilt.breed == BreedConfig()
        assert rebuilt.n_simulations == OnlineTrainingConfig().n_simulations

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError):
            OnlineTrainingConfig.from_dict({"not_a_field": 1})

    def test_invalid_values_still_validated(self):
        data = OnlineTrainingConfig().to_dict()
        data["n_simulations"] = 0
        with pytest.raises(ValueError):
            OnlineTrainingConfig.from_dict(data)


class TestWorkloadGeometry:
    def test_heat2d_surrogate_geometry_unchanged(self):
        config = OnlineTrainingConfig()
        assert config.surrogate_config.input_dim == 6
        assert config.surrogate_config.output_dim == config.heat.grid_size**2

    def test_heat1d_surrogate_geometry(self):
        config = OnlineTrainingConfig(workload="heat1d", workload_options={"n_points": 20})
        assert config.surrogate_config.input_dim == 4  # 3 parameters + time
        assert config.surrogate_config.output_dim == 20

    def test_analytic_defaults_derive_from_heat_knobs(self):
        config = OnlineTrainingConfig(workload="analytic", heat=Heat2DConfig(grid_size=9, n_timesteps=7))
        workload = config.build_workload()
        assert workload.output_dim == 9
        assert workload.n_timesteps == 7

    def test_build_sampler_matches_method(self):
        assert OnlineTrainingConfig(method="breed").build_sampler().name == "Breed"
        assert OnlineTrainingConfig(method="random").build_sampler().name == "Random"


class TestRetiredKey:
    #: ``base_config("smoke").digest()``, pinned while ``record_sample_statistics``
    #: was still a field (and hashed): a config naming the retired key loads,
    #: whatever its value, and keeps the digest of the default
    SMOKE_DIGEST = "6c5f44dbdd5129bf"

    @pytest.mark.parametrize("value", [True, False, "absent"])
    def test_smoke_digest_unchanged(self, value):
        from repro.experiments.base import base_config

        data = base_config("smoke").to_dict()
        data.pop("record_sample_statistics", None)
        if value != "absent":
            data["record_sample_statistics"] = value
        assert OnlineTrainingConfig.from_dict(data).digest() == self.SMOKE_DIGEST

    def test_retired_key_is_neither_a_field_nor_written(self):
        from repro.api.config import RETIRED_FIELD

        assert RETIRED_FIELD not in OnlineTrainingConfig.__dataclass_fields__
        assert RETIRED_FIELD not in OnlineTrainingConfig().to_dict()


class TestHashability:
    def test_config_remains_hashable(self):
        a = OnlineTrainingConfig()
        b = OnlineTrainingConfig()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hashable_with_unhashable_option_values(self):
        config = OnlineTrainingConfig(workload="heat1d", workload_options={"weird": [1, 2]})
        assert isinstance(hash(config), int)
        assert config != OnlineTrainingConfig(workload="heat1d")
