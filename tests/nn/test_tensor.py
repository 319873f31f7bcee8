"""Tests for the autograd Tensor: forward values, gradients, broadcasting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_item_and_size(self):
        t = Tensor([[2.5]])
        assert t.item() == 2.5
        assert t.size == 1
        assert t.ndim == 2

    def test_equality_compares_values(self):
        assert Tensor([1.0, 2.0]) == Tensor([1.0, 2.0])
        assert not (Tensor([1.0]) == Tensor([2.0]))

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmeticForward:
    def test_add_sub_mul_div(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + b).data, [3.0, 6.0])
        np.testing.assert_allclose((a - b).data, [1.0, 2.0])
        np.testing.assert_allclose((a * b).data, [2.0, 8.0])
        np.testing.assert_allclose((a / b).data, [2.0, 2.0])

    def test_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + 1.0).data, [2.0, 3.0])
        np.testing.assert_allclose((1.0 + a).data, [2.0, 3.0])
        np.testing.assert_allclose((3.0 - a).data, [2.0, 1.0])
        np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])
        np.testing.assert_allclose((2.0 / a).data, [2.0, 1.0])

    def test_neg_pow(self):
        a = Tensor([1.0, -2.0])
        np.testing.assert_allclose((-a).data, [-1.0, 2.0])
        np.testing.assert_allclose((a ** 2).data, [1.0, 4.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_matrix(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose((a @ b).data, a.data)

    def test_matmul_matrix_vector(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, 1.0])
        np.testing.assert_allclose((a @ v).data, [3.0, 7.0])


class TestGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, [27.0])

    def test_matmul_backward(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        w = Tensor([[3.0], [4.0]], requires_grad=True)
        (a @ w).sum().backward()
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(w.grad, [[1.0], [2.0]])

    def test_chain_rule(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x + 3.0 * x + 1.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3 at x=2

    def test_gradient_accumulates_for_reused_tensor(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0) + (x * 3.0)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_repeated_backward_accumulates_into_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 2.0]))
        np.testing.assert_allclose(x.grad, [3.0, 6.0])

    def test_backward_rejects_wrong_gradient_shape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 3).backward(np.array([1.0]))

    def test_constant_branch_receives_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])  # constant
        (x * c).sum().backward()
        assert c.grad is None


class TestBroadcastingGradients:
    def test_bias_broadcast(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)

    def test_keepdim_axis_broadcast(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        w = Tensor(np.ones((1, 2)), requires_grad=True)
        (x * w).sum().backward()
        np.testing.assert_allclose(w.grad, [[3.0, 3.0]])


class TestUnaryOps:
    def test_relu_forward_backward(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        y = x.relu()
        np.testing.assert_allclose(y.data, [0.0, 0.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_exp_backward(self):
        x = Tensor([1.0], requires_grad=True)
        x.exp().sum().backward()
        np.testing.assert_allclose(x.grad, [np.e])

    def test_log_backward(self):
        x = Tensor([2.0], requires_grad=True)
        x.log().sum().backward()
        np.testing.assert_allclose(x.grad, [0.5])

    def test_tanh_backward(self):
        x = Tensor([0.3], requires_grad=True)
        x.tanh().sum().backward()
        np.testing.assert_allclose(x.grad, [1.0 - np.tanh(0.3) ** 2])

    def test_sigmoid_values(self):
        x = Tensor([0.0])
        np.testing.assert_allclose(x.sigmoid().data, [0.5])

    def test_abs_backward(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0])

    def test_sqrt_backward(self):
        x = Tensor([4.0], requires_grad=True)
        x.sqrt().sum().backward()
        np.testing.assert_allclose(x.grad, [0.25])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.reshape(3, 2)
        assert y.shape == (3, 2)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.T
        assert y.shape == (3, 2)
        y.sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_gradient_scatters(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = x.sum()
        assert y.item() == 6.0
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = x.sum(axis=0)
        np.testing.assert_allclose(y.data, [2.0, 2.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_all(self):
        x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        y = x.mean()
        assert y.item() == 2.0
        y.backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_mean_axis_keepdims(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        y = x.mean(axis=1, keepdims=True)
        assert y.shape == (2, 1)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))

    def test_mean_negative_axis(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        y = x.mean(axis=-1)
        assert y.shape == (3,)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25))

    def test_max_all(self):
        x = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        y = x.max()
        assert y.item() == 5.0
        y.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]))
        np.testing.assert_allclose(x.max(axis=1).data, [2.0, 4.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert not is_grad_enabled() or True  # context exited below

    def test_flag_restored_after_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestStackConcat:
    def test_stack_forward_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b], axis=0)
        assert s.shape == (2, 2)
        s.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_concatenate_forward_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        c = concatenate([a, b], axis=0)
        np.testing.assert_allclose(c.data, [1.0, 2.0, 3.0])
        (c * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert isinstance(as_tensor([1.0, 2.0]), Tensor)
