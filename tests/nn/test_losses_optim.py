"""Tests for the loss modules and the Adam optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


class TestMSELossModule:
    def test_mean(self):
        loss = nn.MSELoss()(Tensor([2.0]), Tensor([0.0]))
        assert loss.item() == pytest.approx(4.0)

    def test_per_sample_static(self, rng):
        pred = Tensor(rng.normal(size=(4, 6)))
        target = Tensor(rng.normal(size=(4, 6)))
        per = nn.MSELoss.per_sample(pred, target)
        assert per.shape == (4,)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            nn.MSELoss(reduction="bad")


class TestL1LossModule:
    def test_value(self):
        assert nn.L1Loss()(Tensor([3.0]), Tensor([1.0])).item() == pytest.approx(2.0)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            nn.L1Loss(reduction="bad")


class _GradientDescent(nn.Optimizer):
    """Plain gradient descent, the baseline Adam must beat."""

    def __init__(self, parameters, lr):
        super().__init__(parameters)
        self.lr = lr

    def step(self):
        for param in self.parameters:
            param.data -= self.lr * param.grad


class TestAdam:
    def test_converges_faster_than_plain_sgd_on_mlp(self, rng):
        x = rng.normal(size=(64, 3))
        y = np.sin(x).sum(axis=1, keepdims=True)

        def train(optimizer_cls, **kwargs):
            local_rng = np.random.default_rng(0)
            model = nn.Sequential(nn.Linear(3, 16, rng=local_rng), nn.ReLU(), nn.Linear(16, 1, rng=local_rng))
            optimizer = optimizer_cls(model.parameters(), **kwargs)
            loss_fn = nn.MSELoss()
            for _ in range(150):
                model.zero_grad()
                loss = loss_fn(model(Tensor(x)), Tensor(y))
                loss.backward()
                optimizer.step()
            return loss.item()

        assert train(nn.Adam, lr=1e-2) < train(_GradientDescent, lr=1e-2)

    def test_empty_parameter_list(self):
        with pytest.raises(ValueError):
            nn.Adam([])

    def test_skips_parameters_without_grad(self, rng):
        model = nn.Linear(2, 1, rng=rng)
        optimizer = nn.Adam(model.parameters(), lr=0.1)
        before = model.weight.data.copy()
        optimizer.step()  # no gradients accumulated
        np.testing.assert_array_equal(model.weight.data, before)

    @pytest.mark.parametrize("hidden,layers", [(16, 1), (64, 3)])
    def test_paper_surrogate_step_is_finite(self, hidden, layers):
        """One Adam step on the paper's surrogate (batch 128, 64x64 output field)."""
        from repro.api.workloads import Heat2DWorkload
        from repro.solvers.heat2d import Heat2DConfig
        from repro.surrogate.model import DirectSurrogate

        rng = np.random.default_rng(0)
        workload = Heat2DWorkload(heat=Heat2DConfig(grid_size=64, n_timesteps=100))
        model = DirectSurrogate(
            workload.surrogate_config(hidden_size=hidden, n_hidden_layers=layers, activation="relu"),
            workload.build_scalers(),
            rng=rng,
        )
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        inputs, targets = Tensor(rng.random((128, 6))), Tensor(rng.random((128, 64 * 64)))
        model.zero_grad()
        loss = nn.functional.per_sample_mse(model(inputs), targets).mean()
        loss.backward()
        optimizer.step()
        assert np.isfinite(loss.item())
        assert all(np.all(np.isfinite(p.data)) for p in model.parameters())

    def test_bias_correction_first_step_magnitude(self, rng):
        # With a constant unit gradient, the first Adam update is ≈ lr.
        p = nn.Parameter(np.array([0.0]))
        optimizer = nn.Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        optimizer.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_state_dict_roundtrip(self, rng):
        p = nn.Parameter(np.array([1.0, 2.0]))
        optimizer = nn.Adam([p], lr=0.01)
        p.grad = np.array([0.5, -0.5])
        optimizer.step()
        state = optimizer.state_dict()
        other = nn.Adam([nn.Parameter(np.array([1.0, 2.0]))], lr=0.01)
        other.load_state_dict(state)
        assert other.step_count == 1
        np.testing.assert_allclose(other._m[0], optimizer._m[0])

    def test_invalid_betas(self, rng):
        params = [nn.Parameter(np.zeros(1))]
        with pytest.raises(ValueError):
            nn.Adam(params, betas=(1.0, 0.999))


class TestAdamBufferedBitIdentity:
    """Adam's out=-buffered update must match the allocating textbook form
    bit-for-bit (the buffers change memory traffic, not arithmetic)."""

    def test_buffered_update_matches_reference_exactly(self):
        from repro.nn.module import Parameter

        rng = np.random.default_rng(11)
        shapes = [(16, 6), (16,), (40, 16), (40,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        optimizer = nn.Adam(params, lr=1e-3)

        # Reference state mirroring the original allocating implementation.
        ref = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(p.data) for p in params]
        ref_v = [np.zeros_like(p.data) for p in params]
        beta1, beta2, eps, lr = optimizer.beta1, optimizer.beta2, optimizer.eps, optimizer.lr

        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            optimizer.step()
            bias1 = 1.0 - beta1**t
            bias2 = 1.0 - beta2**t
            for i, g in enumerate(grads):
                m, v = ref_m[i], ref_v[i]
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                m_hat = m / bias1
                v_hat = v / bias2
                ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for p, expected in zip(params, ref):
                np.testing.assert_array_equal(p.data, expected)
