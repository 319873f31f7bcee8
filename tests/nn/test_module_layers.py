"""Tests for Module/Parameter containers and the dense layer zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class TinyNet(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(3, 5, rng=rng)
        self.fc2 = nn.Linear(5, 2, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestParameter:
    def test_requires_grad_by_default(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_named(self):
        assert Parameter(np.zeros(1), name="w").name == "w"


class TestModuleRegistration:
    def test_parameters_collected_recursively(self, rng):
        net = TinyNet(rng)
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self, rng):
        net = TinyNet(rng)
        assert net.num_parameters() == 3 * 5 + 5 + 5 * 2 + 2

    def test_zero_grad_clears_all(self, rng):
        net = TinyNet(rng)
        loss = net(Tensor(rng.normal(size=(2, 3)))).sum()
        loss.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self, rng):
        net = TinyNet(rng)
        other = TinyNet(np.random.default_rng(999))
        other.load_state_dict(net.state_dict())
        for (name_a, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data), name_a

    def test_load_state_dict_missing_key(self, rng):
        net = TinyNet(rng)
        with pytest.raises(KeyError):
            net.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(4, 7, rng=rng)
        assert layer(Tensor(rng.normal(size=(3, 4)))).shape == (3, 7)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ValueError):
            nn.Linear(2, 2, rng=rng, init="bogus")

    @pytest.mark.parametrize("scheme", ["kaiming_uniform", "kaiming_normal", "xavier_uniform", "xavier_normal"])
    def test_init_schemes_produce_finite_weights(self, rng, scheme):
        layer = nn.Linear(16, 16, rng=rng, init=scheme)
        assert np.all(np.isfinite(layer.weight.data))
        assert layer.weight.data.std() > 0

    def test_deterministic_with_same_rng_seed(self):
        a = nn.Linear(3, 3, rng=np.random.default_rng(0))
        b = nn.Linear(3, 3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestActivationModules:
    def test_relu_module(self):
        np.testing.assert_allclose(nn.ReLU()(Tensor([-1.0, 1.0])).data, [0.0, 1.0])

    def test_tanh_module(self):
        np.testing.assert_allclose(nn.Tanh()(Tensor([0.0])).data, [0.0])

    def test_leaky_relu_module(self):
        out = nn.LeakyReLU(0.2)(Tensor([-1.0]))
        np.testing.assert_allclose(out.data, [-0.2])

    def test_identity(self):
        x = Tensor([1.0, 2.0])
        assert nn.Identity()(x) is x


class TestSequential:
    def test_forward_composition(self, rng):
        model = nn.Sequential(nn.Linear(2, 4, rng=rng), nn.ReLU(), nn.Linear(4, 1, rng=rng))
        assert model(Tensor(rng.normal(size=(5, 2)))).shape == (5, 1)

    def test_len_getitem_iter(self, rng):
        model = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert len(list(iter(model))) == 2

    def test_parameters_gathered_in_order(self, rng):
        model = nn.Sequential(nn.Linear(2, 3, rng=rng), nn.ReLU(), nn.Linear(3, 1, rng=rng))
        assert len(model.parameters()) == 4

    def test_gradients_reach_first_layer(self, rng):
        model = nn.Sequential(nn.Linear(2, 3, rng=rng), nn.ReLU(), nn.Linear(3, 1, rng=rng))
        model(Tensor(rng.normal(size=(4, 2)))).sum().backward()
        assert model[0].weight.grad is not None
