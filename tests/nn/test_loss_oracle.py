"""Exact-equality oracle tests for the fused per-sample MSE node.

``F.per_sample_mse`` used to record sub → mul → mean.  That composed form is
replayed here, as tensor ops and as the plain-NumPy arithmetic of its
backward, and the fused ``"per_sample_mse"`` node must reproduce it
**bit-identically** (``np.array_equal``): per-sample values, the batch loss
and every parameter gradient, for 1-D, 2-D (MLP) and 4-D (conv) predictions.
The targets the fused node does not cover (broadcasting, requiring grad) must
still take the composed path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tape, Tensor


def composed_per_sample_mse(prediction: Tensor, target: Tensor) -> Tensor:
    """The historical implementation, verbatim."""
    diff = prediction - target
    squared = diff * diff
    if squared.ndim == 1:
        return squared
    axes = tuple(range(1, squared.ndim))
    return squared.mean(axis=axes)


def _mlp(seed: int) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(6, 16, rng=rng), nn.ReLU(), nn.Linear(16, 40, rng=rng))


def _conv(seed: int) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(2, 3, 3, padding="same", rng=rng), nn.ReLU(), nn.Conv2d(3, 2, 3, padding="same", rng=rng)
    )


def _step(model: nn.Module, loss_fn, inputs: np.ndarray, targets: np.ndarray, upstream=None):
    """Forward + backward; returns (per-sample values, loss value, parameter grads)."""
    model.zero_grad()
    per_sample = loss_fn(model(Tensor(inputs)), Tensor(targets))
    if upstream is None:
        loss = per_sample.mean()
        loss.backward()
        value = loss.data.copy()
    else:
        per_sample.backward(upstream)
        value = None
    return per_sample.data.copy(), value, [p.grad.copy() for p in model.parameters()]


@pytest.mark.parametrize(
    "build,input_shape,target_shape",
    [(_mlp, (32, 6), (32, 40)), (_conv, (5, 2, 6, 6), (5, 2, 6, 6))],
    ids=["mlp-2d", "conv-4d"],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["mean", "explicit-upstream"])
def test_fused_step_is_bit_identical_to_composed(build, input_shape, target_shape, weighted):
    rng = np.random.default_rng(3)
    inputs = rng.standard_normal(input_shape)
    targets = rng.standard_normal(target_shape)
    upstream = rng.standard_normal(target_shape[0]) if weighted else None

    fused = _step(build(7), F.per_sample_mse, inputs, targets, upstream)
    composed = _step(build(7), composed_per_sample_mse, inputs, targets, upstream)

    assert np.array_equal(fused[0], composed[0])
    if not weighted:
        assert np.array_equal(fused[1], composed[1])
    assert len(fused[2]) == len(composed[2]) > 0
    for fused_grad, composed_grad in zip(fused[2], composed[2]):
        assert np.array_equal(fused_grad, composed_grad)


def test_prediction_gradient_matches_the_replayed_numpy_backward():
    rng = np.random.default_rng(11)
    pred = rng.standard_normal((16, 24))
    target = rng.standard_normal((16, 24))
    upstream = rng.standard_normal(16)

    prediction = Tensor(pred, requires_grad=True)
    F.per_sample_mse(prediction, Tensor(target)).backward(upstream)

    # mean VJP: broadcast copy of g / denom; mul VJP: one product per factor;
    # _route_backward: their sum; sub VJP: passed through to the prediction.
    diff = pred - target
    spread = np.broadcast_to(np.expand_dims(upstream / 24, axis=(1,)), diff.shape).copy()
    reference = spread * diff + spread * diff
    assert np.array_equal(prediction.grad, reference)


def test_forward_only_under_no_grad_matches_and_records_nothing():
    rng = np.random.default_rng(5)
    pred, target = rng.standard_normal((4, 9)), rng.standard_normal((4, 9))
    with Tape() as tape, nn.no_grad():
        out = F.per_sample_mse(Tensor(pred, requires_grad=True), Tensor(target))
    assert len(tape) == 0 and out.grad_fn is None
    assert np.array_equal(out.data, ((pred - target) * (pred - target)).mean(axis=(1,)))


def test_one_dimensional_prediction_is_fused_and_bit_identical():
    """No feature axis: the mean over no axes is the identity and ``g / 1`` is exact."""
    rng = np.random.default_rng(1)
    pred, target = rng.standard_normal(7), rng.standard_normal(7)
    upstream = np.linspace(0.5, 1.5, 7)
    results = []
    for loss_fn in (F.per_sample_mse, composed_per_sample_mse):
        prediction = Tensor(pred, requires_grad=True)
        with Tape() as tape:
            out = loss_fn(prediction, Tensor(target))
        out.backward(upstream)
        results.append((tape.ops(), out.data, prediction.grad))
    (fused_ops, fused_out, fused_grad), (composed_ops, composed_out, composed_grad) = results
    assert fused_ops == ["per_sample_mse"] and composed_ops == ["sub", "mul"]
    assert np.array_equal(fused_out, composed_out)
    assert np.array_equal(fused_grad, composed_grad)


class TestFallbackTargets:
    """Broadcasting and live targets keep the composed sub → mul → mean graph."""

    def _both(self, pred, target, target_requires_grad=False):
        results = []
        for loss_fn in (F.per_sample_mse, composed_per_sample_mse):
            prediction = Tensor(pred, requires_grad=True)
            target_t = Tensor(target, requires_grad=target_requires_grad)
            with Tape() as tape:
                out = loss_fn(prediction, target_t)
            out.backward(np.linspace(0.5, 1.5, out.size).reshape(out.shape))
            results.append((tape.ops(), out.data, prediction.grad, target_t.grad))
        return results

    def _assert_same(self, fused, composed):
        assert fused[0] == composed[0]
        assert "per_sample_mse" not in fused[0]
        assert np.array_equal(fused[1], composed[1])
        assert np.array_equal(fused[2], composed[2])

    def test_broadcast_target(self):
        rng = np.random.default_rng(2)
        fused, composed = self._both(rng.standard_normal((5, 7)), rng.standard_normal(7))
        self._assert_same(fused, composed)
        assert fused[0] == ["sub", "mul", "mean"]

    def test_target_that_requires_grad(self):
        rng = np.random.default_rng(4)
        fused, composed = self._both(
            rng.standard_normal((5, 7)), rng.standard_normal((5, 7)), target_requires_grad=True
        )
        self._assert_same(fused, composed)
        assert np.array_equal(fused[3], composed[3])
        assert np.array_equal(fused[3], -fused[2])


def test_composed_losses_unchanged_by_dead_parent_skip():
    """mse_loss / l1_loss against a constant target: same gradients, no target grad."""
    rng = np.random.default_rng(9)
    pred, target = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))

    prediction, constant = Tensor(pred, requires_grad=True), Tensor(target)
    F.mse_loss(prediction, constant).backward()
    diff = pred - target
    spread = np.broadcast_to(np.asarray(1.0) / diff.size, diff.shape).copy()
    assert np.array_equal(prediction.grad, spread * diff + spread * diff)
    assert constant.grad is None

    prediction = Tensor(pred, requires_grad=True)
    F.l1_loss(prediction, constant).backward()
    assert np.array_equal(prediction.grad, spread * np.sign(diff))
