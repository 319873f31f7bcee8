"""Tests for the functional NN interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestLinear:
    def test_matches_manual_affine(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)

    def test_without_bias(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data.T)


class TestActivations:
    def test_relu(self):
        np.testing.assert_allclose(F.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_leaky_relu_values(self):
        out = F.leaky_relu(Tensor([-10.0, 10.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-1.0, 10.0])

    def test_leaky_relu_gradient(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_tanh_sigmoid(self):
        np.testing.assert_allclose(F.tanh(Tensor([0.0])).data, [0.0])
        np.testing.assert_allclose(F.sigmoid(Tensor([0.0])).data, [0.5])


class TestMSELoss:
    def test_mean_reduction(self):
        pred = Tensor([[1.0, 2.0]])
        target = Tensor([[0.0, 0.0]])
        assert F.mse_loss(pred, target).item() == pytest.approx(2.5)

    def test_sum_reduction(self):
        pred = Tensor([1.0, 2.0])
        target = Tensor([0.0, 0.0])
        assert F.mse_loss(pred, target, reduction="sum").item() == pytest.approx(5.0)

    def test_none_reduction_shape(self):
        pred = Tensor(np.zeros((3, 4)))
        target = Tensor(np.ones((3, 4)))
        assert F.mse_loss(pred, target, reduction="none").shape == (3, 4)

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            F.mse_loss(Tensor([1.0]), Tensor([1.0]), reduction="bogus")

    def test_accepts_numpy_target(self):
        assert F.mse_loss(Tensor([1.0]), np.array([1.0])).item() == 0.0

    def test_zero_for_identical(self, rng):
        data = rng.normal(size=(5, 7))
        assert F.mse_loss(Tensor(data), Tensor(data.copy())).item() == 0.0


class TestPerSampleMSE:
    def test_shape_keeps_batch_axis(self, rng):
        pred = Tensor(rng.normal(size=(6, 10)))
        target = Tensor(rng.normal(size=(6, 10)))
        assert F.per_sample_mse(pred, target).shape == (6,)

    def test_mean_of_per_sample_equals_batch_mse(self, rng):
        pred = Tensor(rng.normal(size=(6, 10)))
        target = Tensor(rng.normal(size=(6, 10)))
        per_sample = F.per_sample_mse(pred, target)
        assert per_sample.mean().item() == pytest.approx(F.mse_loss(pred, target).item())

    def test_values_match_manual(self):
        pred = Tensor([[1.0, 1.0], [0.0, 0.0]])
        target = Tensor([[0.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(F.per_sample_mse(pred, target).data, [1.0, 2.0])

    def test_1d_input_passthrough(self):
        out = F.per_sample_mse(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 4.0])

    def test_gradient_flows(self):
        pred = Tensor([[1.0, 2.0]], requires_grad=True)
        F.per_sample_mse(pred, Tensor([[0.0, 0.0]])).sum().backward()
        np.testing.assert_allclose(pred.grad, [[1.0, 2.0]])


class TestL1Loss:
    def test_mean(self):
        assert F.l1_loss(Tensor([1.0, -3.0]), Tensor([0.0, 0.0])).item() == pytest.approx(2.0)

    def test_sum(self):
        assert F.l1_loss(Tensor([1.0, -3.0]), Tensor([0.0, 0.0]), reduction="sum").item() == 4.0

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            F.l1_loss(Tensor([1.0]), Tensor([1.0]), reduction="x")


class TestLinearFusionBitIdentity:
    """The fused linear node must reproduce the composed form bit-for-bit.

    ``F.linear`` records one autograd node; the reference below records the
    chain it replaced (transpose -> matmul -> add).  Forward values and every
    gradient must be *exactly* equal -- the training loop's bit-identical
    resume/parity contracts depend on it.
    """

    @staticmethod
    def _composed(x, w, b):
        out = x.matmul(w.transpose())
        if b is not None:
            out = out + b
        return out

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_forward_and_gradients_exact(self, rng, batched, with_bias):
        shape = (7, 5) if batched else (5,)
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(3, 5))
        b_data = rng.normal(size=(3,)) if with_bias else None

        def build():
            x = Tensor(x_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True) if with_bias else None
            return x, w, b

        x1, w1, b1 = build()
        fused = F.linear(x1, w1, b1)
        x2, w2, b2 = build()
        composed = self._composed(x2, w2, b2)
        np.testing.assert_array_equal(fused.data, composed.data)

        seed_grad = rng.normal(size=fused.shape)
        fused.backward(seed_grad.copy())
        composed.backward(seed_grad.copy())
        np.testing.assert_array_equal(x1.grad, x2.grad)
        np.testing.assert_array_equal(w1.grad, w2.grad)
        if with_bias:
            np.testing.assert_array_equal(b1.grad, b2.grad)

    def test_leaf_input_without_grad_is_skipped(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))  # leaf, requires_grad=False
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        out = F.linear(x, w)
        out.backward(np.ones(out.shape))
        assert x.grad is None
        assert w.grad is not None

    def test_grad_flows_through_chained_inputs(self, rng):
        base = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        out = F.linear(base * 2.0, w)
        out.backward(np.ones(out.shape))
        assert base.grad is not None and base.grad.shape == (4, 5)
