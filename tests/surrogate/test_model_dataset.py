"""Tests for the surrogate MLP, offline datasets and validation set."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds
from repro.surrogate.dataset import BatchIterator, OfflineDataset, generate_offline_dataset
from repro.surrogate.model import DirectSurrogate, SurrogateConfig, build_mlp
from repro.surrogate.validation import build_validation_set, validation_loss


class TestSurrogateConfig:
    def test_defaults_match_paper(self):
        config = SurrogateConfig()
        assert config.input_dim == 6
        assert config.output_dim == 64 * 64
        assert config.activation == "relu"

    def test_label(self):
        assert SurrogateConfig(hidden_size=32, n_hidden_layers=2).label == "H=32, L=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(hidden_size=0)
        with pytest.raises(ValueError):
            SurrogateConfig(n_hidden_layers=0)
        with pytest.raises(ValueError):
            SurrogateConfig(activation="gelu")
        with pytest.raises(ValueError):
            SurrogateConfig(input_dim=0)


class TestBuildMLP:
    @pytest.mark.parametrize("layers,expected_linears", [(1, 2), (2, 3), (3, 4)])
    def test_layer_counts(self, rng, layers, expected_linears):
        config = SurrogateConfig(output_dim=16, hidden_size=8, n_hidden_layers=layers)
        model = build_mlp(config, rng=rng)
        n_linear = sum(1 for m in model if isinstance(m, nn.Linear))
        assert n_linear == expected_linears

    def test_parameter_count_formula(self, rng):
        # H=16, L=1, in=6, out=64: (6*16+16) + (16*64+64)
        config = SurrogateConfig(output_dim=64, hidden_size=16, n_hidden_layers=1)
        assert build_mlp(config, rng=rng).num_parameters() == (6 * 16 + 16) + (16 * 64 + 64)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "leaky_relu"])
    def test_activations(self, rng, activation):
        config = SurrogateConfig(output_dim=4, hidden_size=4, activation=activation)
        model = build_mlp(config, rng=rng)
        assert model(Tensor(rng.normal(size=(2, 6)))).shape == (2, 4)


class TestDirectSurrogate:
    @pytest.fixture
    def surrogate(self, tiny_scalers, tiny_heat_config, rng):
        config = SurrogateConfig(
            output_dim=tiny_heat_config.grid_size**2, hidden_size=8, n_hidden_layers=1
        )
        return DirectSurrogate(config, tiny_scalers, rng=rng)

    def test_forward_shape(self, surrogate, rng):
        out = surrogate(Tensor(rng.random((3, 6))))
        assert out.shape == (3, 36)

    def test_predict_field_physical_units(self, surrogate):
        field = surrogate.predict_field([300.0, 100.0, 500.0, 200.0, 400.0], timestep=2)
        assert field.shape == (36,)
        assert np.all(np.isfinite(field))

    def test_num_parameters_positive(self, surrogate):
        assert surrogate.num_parameters() > 0

    def test_prediction_does_not_build_graph(self, surrogate):
        surrogate.predict_field([300.0] * 5, 1)
        assert all(p.grad is None for p in surrogate.parameters())


class TestOfflineDataset:
    @pytest.fixture
    def dataset(self, tiny_solver, tiny_scalers, rng):
        params = uniform_in_bounds(3, HEAT2D_BOUNDS, rng)
        return generate_offline_dataset(tiny_solver, params, tiny_scalers)

    def test_size(self, dataset, tiny_solver):
        # 3 simulations x (T+1) time steps
        assert len(dataset) == 3 * (tiny_solver.n_timesteps + 1)

    def test_normalised_ranges(self, dataset):
        assert np.all((dataset.inputs >= 0.0) & (dataset.inputs <= 1.0))
        assert np.all((dataset.targets >= -1e-9) & (dataset.targets <= 1.0 + 1e-9))

    def test_skip_initial_step(self, tiny_solver, tiny_scalers, rng):
        params = uniform_in_bounds(2, HEAT2D_BOUNDS, rng)
        ds = generate_offline_dataset(tiny_solver, params, tiny_scalers, include_initial_step=False)
        assert len(ds) == 2 * tiny_solver.n_timesteps
        assert ds.timesteps.min() == 1

    def test_subset_and_split(self, dataset, rng):
        subset = dataset.subset([0, 1, 2])
        assert len(subset) == 3
        train, held = dataset.split(0.75, rng)
        assert len(train) + len(held) == len(dataset)

    def test_split_validation(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.split(1.5, rng)

    def test_save_load_roundtrip(self, dataset, tmp_path):
        path = dataset.save(tmp_path / "data")
        loaded = OfflineDataset.load(path)
        np.testing.assert_array_equal(loaded.inputs, dataset.inputs)
        np.testing.assert_array_equal(loaded.simulation_ids, dataset.simulation_ids)

    def test_nbytes_positive(self, dataset):
        assert dataset.nbytes > 0

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            OfflineDataset(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros(3))


class TestBatchIterator:
    @pytest.fixture
    def dataset(self, tiny_solver, tiny_scalers, rng):
        params = uniform_in_bounds(2, HEAT2D_BOUNDS, rng)
        return generate_offline_dataset(tiny_solver, params, tiny_scalers)

    def test_covers_every_sample_once_per_epoch(self, dataset, rng):
        iterator = BatchIterator(dataset, batch_size=5, rng=rng)
        seen = []
        for _, _, idx in iterator:
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(len(dataset)))

    def test_len_with_and_without_drop_last(self, dataset, rng):
        assert len(BatchIterator(dataset, 5, rng)) == int(np.ceil(len(dataset) / 5))
        assert len(BatchIterator(dataset, 5, rng, drop_last=True)) == len(dataset) // 5

    def test_drop_last_batches_full(self, dataset, rng):
        for inputs, _, _ in BatchIterator(dataset, 5, rng, drop_last=True):
            assert inputs.shape[0] == 5

    def test_invalid_batch_size(self, dataset, rng):
        with pytest.raises(ValueError):
            BatchIterator(dataset, 0, rng)


class TestValidationSet:
    def test_build_and_size(self, tiny_solver, tiny_scalers):
        vset = build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=3)
        assert len(vset) == 3 * (tiny_solver.n_timesteps + 1)
        assert vset.parameters.shape == (3, 5)
        assert HEAT2D_BOUNDS.contains_all(vset.parameters)

    def test_requires_positive_trajectories(self, tiny_solver, tiny_scalers):
        with pytest.raises(ValueError):
            build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=0)

    def test_validation_loss_decreases_with_training(self, tiny_solver, tiny_scalers, rng):
        vset = build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=2)
        config = SurrogateConfig(output_dim=tiny_solver.field_size, hidden_size=16, n_hidden_layers=1)
        model = DirectSurrogate(config, tiny_scalers, rng=rng)
        before = validation_loss(model, vset)
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        for _ in range(60):
            model.zero_grad()
            loss = nn.MSELoss()(model(Tensor(vset.inputs)), Tensor(vset.targets))
            loss.backward()
            optimizer.step()
        after = validation_loss(model, vset)
        assert after < before

    def test_validation_loss_batched_equals_full(self, tiny_solver, tiny_scalers, rng):
        vset = build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=2)
        config = SurrogateConfig(output_dim=tiny_solver.field_size, hidden_size=4, n_hidden_layers=1)
        model = DirectSurrogate(config, tiny_scalers, rng=rng)
        assert validation_loss(model, vset, batch_size=7) == pytest.approx(
            validation_loss(model, vset, batch_size=10_000)
        )
