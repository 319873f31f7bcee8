"""Tests for the string registries behind the pluggable API."""

from __future__ import annotations

import pytest

from repro.api import registry as reg
from repro.api.registry import Registry


class TestRegistry:
    def test_register_and_get(self):
        r = Registry("thing")
        r.register("alpha", lambda: "a")
        assert r.get("alpha")() == "a"
        assert "alpha" in r
        assert r.names() == ["alpha"]

    def test_keys_are_case_insensitive(self):
        r = Registry("thing")
        r.register("Alpha", lambda: "a")
        assert r.get("ALPHA")() == "a"

    def test_unknown_key_raises_with_available_names(self):
        r = Registry("thing")
        r.register("alpha", lambda: "a")
        with pytest.raises(KeyError, match=r"unknown thing 'beta'.*alpha"):
            r.get("beta")

    def test_duplicate_registration_rejected(self):
        r = Registry("thing")
        r.register("alpha", lambda: "a")
        with pytest.raises(ValueError, match="already registered"):
            r.register("alpha", lambda: "b")

    def test_overwrite_allows_replacement(self):
        r = Registry("thing")
        r.register("alpha", lambda: "a")
        r.register("alpha", lambda: "b", overwrite=True)
        assert r.get("alpha")() == "b"

    def test_decorator_form(self):
        r = Registry("thing")

        @r.register("alpha")
        def factory():
            return "decorated"

        assert r.get("alpha") is factory

    def test_invalid_keys_rejected(self):
        r = Registry("thing")
        with pytest.raises(TypeError):
            r.register("", lambda: None)
        with pytest.raises(TypeError):
            r.register(3, lambda: None)  # type: ignore[arg-type]
        assert 3 not in r


class TestDefaultRegistrations:
    def test_builtin_workloads_registered(self):
        assert {"heat2d", "heat1d", "analytic"} <= set(reg.workload_names())

    def test_builtin_samplers_registered(self):
        assert set(reg.sampler_names()) >= {"breed", "random"}

    def test_builtin_activations_registered(self):
        assert set(reg.activation_names()) >= {"relu", "tanh", "leaky_relu"}

    def test_get_workload_unknown_lists_options(self):
        with pytest.raises(KeyError, match="heat2d"):
            reg.get_workload("does-not-exist")

    def test_activation_factories_build_modules(self):
        from repro import nn

        assert isinstance(reg.get_activation("relu")(), nn.ReLU)
        assert isinstance(reg.get_activation("tanh")(), nn.Tanh)


class TestCustomWorkloadRegistration:
    def test_registered_workload_usable_from_config(self):
        from repro.api import OnlineTrainingConfig
        from repro.api.workloads import Workload
        from repro.sampling.bounds import HEAT1D_BOUNDS
        from repro.solvers.heat1d import Heat1DConfig, Heat1DImplicitSolver

        reg.register_workload(
            "test-tiny-1d",
            lambda config: Workload(
                HEAT1D_BOUNDS, Heat1DImplicitSolver, Heat1DConfig(n_points=8, n_timesteps=4), 8
            ),
            overwrite=True,
        )
        config = OnlineTrainingConfig(workload="test-tiny-1d")
        workload = config.build_workload()
        assert workload.output_dim == 8
        assert workload.bounds.dim == 3
        assert config.surrogate_config.input_dim == 4

    def test_unknown_workload_rejected_at_config_time(self):
        from repro.api import OnlineTrainingConfig

        with pytest.raises(ValueError, match="workload"):
            OnlineTrainingConfig(workload="no-such-workload")

    def test_unknown_method_rejected_at_config_time(self):
        from repro.api import OnlineTrainingConfig

        with pytest.raises(ValueError, match="method"):
            OnlineTrainingConfig(method="no-such-sampler")
