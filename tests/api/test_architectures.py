"""Tests for the surrogate-architecture registry and its built-in bodies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.api import (
    OnlineTrainingConfig,
    TrainingSession,
    architecture_names,
    get_architecture,
    register_architecture,
)
from repro.api.registry import ARCHITECTURES
from repro.campaign.spec import CampaignSpec, campaign_digest
from repro.nn.tensor import Tensor
from repro.service.schemas import job_fingerprint, validate_campaign_submission, validate_submission
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.model import (
    DirectSurrogate,
    SurrogateConfig,
    build_conv_surrogate,
    build_mlp,
    build_residual_mlp,
    build_surrogate,
)

# Digests of configurations captured before the architecture field existed;
# the default architecture must never change them (study resume, dedupe and
# snapshot validation all compare these fingerprints across versions).
FROZEN_DEFAULT_DIGEST = "0cabaa189b3e0c9a"
FROZEN_HEAT1D_DIGEST = "ec230ce495fe680d"

# The fingerprints built on top of the config digest: a campaign's (compact
# JSON separators) and a service submission's, in its study and its campaign
# form.  Campaign manifests and the service's dedupe index store them, so a
# change would orphan every existing root and job.
FROZEN_CAMPAIGN_DIGEST = "a06c517aeedf9eb3"
FROZEN_STUDY_JOB_FINGERPRINT = "9dab883ac4c8ea93"
FROZEN_CAMPAIGN_JOB_FINGERPRINT = "3dd64c773cfb8a5e"


def _pinned_campaign() -> dict:
    return {
        "name": "pinned",
        "config": OnlineTrainingConfig().to_dict(),
        "nodes": [
            {"name": "sweep", "configurations": [{"seed": 1}, {"seed": 2}]},
            {"name": "refine", "depends_on": ["sweep"],
             "select": {"type": "top_k", "node": "sweep", "metric": "final_validation_loss",
                        "k": 1, "overrides": {"max_iterations": 24}}},
        ],
    }


class TestRegistry:
    def test_builtins_registered(self):
        assert {"mlp", "residual", "conv2d"} <= set(architecture_names())

    def test_get_architecture_resolves_builders(self):
        assert get_architecture("mlp") is build_mlp
        assert get_architecture("residual") is build_residual_mlp
        assert get_architecture("conv2d") is build_conv_surrogate

    def test_unknown_architecture_raises_named_error(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            get_architecture("perceptron-9000")

    def test_user_registration_roundtrip(self):
        name = "test-linear-only"
        try:
            @register_architecture(name)
            def _build(config, rng):
                return nn.Linear(config.input_dim, config.output_dim, rng=rng)

            config = SurrogateConfig(
                input_dim=3, output_dim=4, hidden_size=2, architecture=name
            )
            model = build_surrogate(config, rng=np.random.default_rng(0))
            assert isinstance(model, nn.Linear)
        finally:
            ARCHITECTURES._factories.pop(name, None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_architecture("mlp", build_mlp)


class TestSurrogateConfig:
    def test_default_architecture_is_mlp(self):
        assert SurrogateConfig().architecture == "mlp"

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unsupported architecture"):
            SurrogateConfig(architecture="nope")

    def test_label_mentions_non_default_architecture(self):
        assert "conv2d" in SurrogateConfig(architecture="conv2d").label
        assert "mlp" not in SurrogateConfig().label


class TestBuilders:
    CONFIG = dict(input_dim=6, output_dim=36, hidden_size=4, n_hidden_layers=2)

    def test_mlp_dispatch_is_bit_identical_to_build_mlp(self):
        config = SurrogateConfig(**self.CONFIG)
        a = build_mlp(config, rng=np.random.default_rng(7))
        b = build_surrogate(config, rng=np.random.default_rng(7))
        for (name_a, p_a), (name_b, p_b) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(p_a.data, p_b.data)

    @pytest.mark.parametrize("architecture", ["mlp", "residual", "conv2d"])
    def test_output_shape_matches_output_dim(self, architecture):
        config = SurrogateConfig(architecture=architecture, **self.CONFIG)
        model = build_surrogate(config, rng=np.random.default_rng(0))
        out = model(Tensor(np.random.default_rng(1).random((3, 6))))
        assert out.shape == (3, 36)

    def test_conv_requires_square_output(self):
        config = SurrogateConfig(
            input_dim=6, output_dim=35, hidden_size=4, architecture="conv2d"
        )
        with pytest.raises(ValueError, match="perfect square"):
            build_surrogate(config, rng=np.random.default_rng(0))

    def test_residual_blocks_present(self):
        config = SurrogateConfig(architecture="residual", **self.CONFIG)
        model = build_surrogate(config, rng=np.random.default_rng(0))
        blocks = [m for m in model if isinstance(m, nn.Residual)]
        assert len(blocks) == self.CONFIG["n_hidden_layers"]

    def test_conv_layers_present(self):
        config = SurrogateConfig(architecture="conv2d", **self.CONFIG)
        model = build_surrogate(config, rng=np.random.default_rng(0))
        convs = [m for m in model if isinstance(m, nn.Conv2d)]
        assert len(convs) == self.CONFIG["n_hidden_layers"] + 1  # trunk + head

    def test_direct_surrogate_keeps_mlp_attribute_name(self):
        # State-dict keys are `mlp.layerN.*` for every architecture — a
        # checkpoint-format contract.
        workload = OnlineTrainingConfig(heat=Heat2DConfig(grid_size=6, n_timesteps=5)).build_workload()
        model = DirectSurrogate(
            workload.surrogate_config(
                hidden_size=4, n_hidden_layers=1, activation="relu", architecture="residual"
            ),
            workload.build_scalers(),
            rng=np.random.default_rng(0),
        )
        assert all(key.startswith("mlp.") for key in model.state_dict())


class TestConfigPlumbing:
    def test_default_digest_frozen(self):
        assert OnlineTrainingConfig().digest() == FROZEN_DEFAULT_DIGEST

    def test_heat1d_digest_frozen(self):
        config = OnlineTrainingConfig(workload="heat1d", method="random", seed=3)
        assert config.digest() == FROZEN_HEAT1D_DIGEST

    def test_campaign_digest_frozen(self):
        assert campaign_digest(CampaignSpec.from_dict(_pinned_campaign())) == FROZEN_CAMPAIGN_DIGEST

    def test_study_job_fingerprint_frozen(self):
        spec = validate_submission(
            {"study_name": "pinned", "config": OnlineTrainingConfig().to_dict(),
             "configurations": [{"seed": 1}, {"seed": 2}]}
        )
        assert job_fingerprint(spec) == FROZEN_STUDY_JOB_FINGERPRINT

    def test_campaign_job_fingerprint_frozen(self):
        spec = validate_campaign_submission(_pinned_campaign())
        assert job_fingerprint(spec) == FROZEN_CAMPAIGN_JOB_FINGERPRINT

    def test_non_default_architecture_changes_digest(self):
        assert OnlineTrainingConfig(architecture="conv2d").digest() != FROZEN_DEFAULT_DIGEST

    def test_to_dict_roundtrip_preserves_architecture(self):
        config = OnlineTrainingConfig(architecture="residual")
        assert OnlineTrainingConfig.from_dict(config.to_dict()) == config

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture must be one of"):
            OnlineTrainingConfig(architecture="nope")

    def test_surrogate_config_carries_architecture(self):
        config = OnlineTrainingConfig(architecture="residual")
        assert config.surrogate_config.architecture == "residual"


def _session_config(architecture, **overrides):
    fields = dict(
        workload="heat2d",
        architecture=architecture,
        heat=Heat2DConfig(grid_size=6, n_timesteps=5),
        n_simulations=8,
        max_iterations=30,
        reservoir_watermark=10,
        n_validation_trajectories=4,
        hidden_size=4,
        seed=1,
    )
    fields.update(overrides)
    return OnlineTrainingConfig(**fields)


class TestEndToEnd:
    def test_residual_trains_through_study_engine(self):
        result = TrainingSession(_session_config("residual")).run()
        assert np.isfinite(result.final_train_loss)
        assert np.isfinite(result.final_validation_loss)

    @pytest.mark.slow
    def test_conv_trains_on_stencil_workload(self):
        # The conv surrogate's 3x3 same-padded trunk mirrors the heat2d
        # stencil; it must train end-to-end through the study engine.
        result = TrainingSession(_session_config("conv2d", max_iterations=60)).run()
        assert np.isfinite(result.final_train_loss)
        assert result.final_train_loss < 1.0
        losses = result.history.train_losses
        assert losses[-1] < losses[0]

    def test_conv_run_is_deterministic(self):
        first = TrainingSession(_session_config("conv2d")).run()
        second = TrainingSession(_session_config("conv2d")).run()
        assert first.final_train_loss == second.final_train_loss
        assert np.array_equal(first.history.train_losses, second.history.train_losses)
