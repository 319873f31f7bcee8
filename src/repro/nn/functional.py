"""Functional interface on top of :class:`repro.nn.tensor.Tensor`.

These free functions mirror a minimal subset of ``torch.nn.functional`` so the
surrogate model and training loop read like their PyTorch equivalents in the
original Melissa code base.

The compute-heavy kernels (:func:`linear`, :func:`conv2d`,
:func:`per_sample_mse`) are recorded as *single* ops on the autograd graph:
one fused forward, and one registered VJP (see
:func:`repro.nn.tensor.register_vjp`) computing every parent gradient in one
pass — instead of the chain of primitive nodes the composed form would
record.  The arithmetic of each fused VJP is the exact operation sequence of
the composed form, so results and gradients are bit-identical; the fusion
removes per-layer graph bookkeeping and skips input gradients entirely when
the input is a leaf that does not require them (the usual case for the first
layer's batch input).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.nn.tensor import Node, Tensor, as_tensor, needs_grad, register_vjp

__all__ = [
    "linear",
    "conv2d",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "mse_loss",
    "per_sample_mse",
    "l1_loss",
]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout: (out, in)).

    Recorded as one fused ``"linear"`` node: the whole batch goes through a
    single GEMM forward, and the registered VJP computes ``grad_x = g @ W``,
    ``grad_W = (xᵀ g)ᵀ`` and ``grad_b = Σ_batch g`` directly.
    """
    xd, w = x.data, weight.data
    if xd.ndim > 2:
        # Rare shapes keep the composed (broadcasting) implementation.
        out = x.matmul(weight.transpose())
        if bias is not None:
            out = out + bias
        return out
    out = xd @ w.T
    if bias is not None:
        out += bias.data  # into the fresh GEMM output: no second array
        parents = (x, weight, bias)
    else:
        parents = (x, weight)
    return x._make(out, parents, "linear", saved=(xd, w))


@register_vjp("linear")
def _vjp_linear(node: Node, grad: np.ndarray):
    """Fused one-GEMM backward of :func:`linear` (dead-input grads skipped)."""
    x = node.parents[0]
    xd, w = node.saved
    if xd.ndim == 1:
        grad_w = (xd[:, None] @ grad[None, :]).transpose()
        grad_x = (grad[None, :] @ w).reshape(xd.shape) if needs_grad(x) else None
        grad_b = grad
    else:
        grad_w = (xd.T @ grad).transpose()
        grad_x = grad @ w if needs_grad(x) else None
        grad_b = grad.sum(axis=0)
    if len(node.parents) == 2:  # no bias
        return grad_x, grad_w
    return grad_x, grad_w, grad_b


def _conv_padding(padding: Union[int, str], kernel: int) -> int:
    if padding == "same":
        if kernel % 2 == 0:
            raise ValueError('padding="same" requires an odd kernel size')
        return (kernel - 1) // 2
    if isinstance(padding, int) and padding >= 0:
        return padding
    raise ValueError(f'padding must be a non-negative int or "same", got {padding!r}')


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    padding: Union[int, str] = 0,
) -> Tensor:
    """2-D cross-correlation, channels-first, stride 1.

    ``x`` has shape ``(batch, in_channels, H, W)`` and ``weight`` the PyTorch
    layout ``(out_channels, in_channels, kh, kw)``.  Implemented as a single
    fused op: the forward lowers the input to an im2col matrix and runs one
    GEMM; the registered VJP computes the weight gradient with the transposed
    GEMM and folds the column gradient back onto the input (col2im) — the
    input gradient is skipped entirely when nothing upstream needs it.
    """
    xd, w = x.data, weight.data
    if xd.ndim != 4 or w.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-D input (B, C, H, W) and weight (O, C, kh, kw); "
            f"got input {xd.shape} and weight {w.shape}"
        )
    batch, channels, height, width = xd.shape
    out_channels, w_channels, kh, kw = w.shape
    if channels != w_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {channels} channels, "
            f"weight expects {w_channels}"
        )
    pad = _conv_padding(padding, kh)
    if padding == "same" and kw % 2 == 0:
        raise ValueError('padding="same" requires an odd kernel size')
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    out_h = xp.shape[2] - kh + 1
    out_w = xp.shape[3] - kw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv2d kernel ({kh}x{kw}) larger than padded input "
            f"({xp.shape[2]}x{xp.shape[3]})"
        )
    # im2col: one (B*Ho*Wo, C*kh*kw) matrix, then a single GEMM.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * out_h * out_w, channels * kh * kw)
    wmat = w.reshape(out_channels, -1)
    out = (cols @ wmat.T).reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)
        parents = (x, weight, bias)
    else:
        parents = (x, weight)
    return x._make(out, parents, "conv2d", saved=(cols, w, xp.shape, pad, (out_h, out_w)))


@register_vjp("conv2d")
def _vjp_conv2d(node: Node, grad: np.ndarray):
    """Fused backward of :func:`conv2d`: GEMMs + a kernel-sized col2im fold."""
    x = node.parents[0]
    cols, w, padded_shape, pad, (out_h, out_w) = node.saved
    batch, channels = padded_shape[0], padded_shape[1]
    out_channels, _, kh, kw = w.shape
    wmat = w.reshape(out_channels, -1)
    # (B, O, Ho, Wo) -> (B*Ho*Wo, O), matching the im2col row order.
    g2 = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_w = (g2.T @ cols).reshape(w.shape)
    grad_x = None
    if needs_grad(x):
        grad_cols = (g2 @ wmat).reshape(batch, out_h, out_w, channels, kh, kw)
        grad_xp = np.zeros(padded_shape, dtype=np.float64)
        # col2im: scatter each kernel tap back onto the padded input.  The
        # loop is over the kernel footprint only (kh*kw iterations).
        for i in range(kh):
            for j in range(kw):
                grad_xp[:, :, i : i + out_h, j : j + out_w] += grad_cols[
                    :, :, :, :, i, j
                ].transpose(0, 3, 1, 2)
        grad_x = grad_xp[:, :, pad : padded_shape[2] - pad, pad : padded_shape[3] - pad] if pad else grad_xp
    if len(node.parents) == 2:  # no bias
        return grad_x, grad_w
    grad_b = grad.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """LeakyReLU implemented from primitive ops (stays differentiable)."""
    positive = x.relu()
    negative = (-x).relu() * (-negative_slope)
    return positive + negative


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean-squared error.

    ``reduction`` is one of ``"mean"``, ``"sum"`` or ``"none"``.  With
    ``"none"`` the per-element squared errors are returned (callers typically
    then reduce per sample, see :func:`per_sample_mse`).
    """
    target = as_tensor(target)
    diff = prediction - target
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    if reduction == "none":
        return squared
    raise ValueError(f"unknown reduction {reduction!r}")


def per_sample_mse(prediction: Tensor, target: Tensor) -> Tensor:
    """Per-sample MSE for a batch: mean over feature axes, keep the batch axis.

    This is the quantity Breed consumes: the loss of each individual sample in
    a batch (``l_{jt}`` in the paper), from which batch mean/std and the
    deviation statistic are computed without any extra forward passes.

    Recorded as one fused ``"per_sample_mse"`` node saving ``diff`` (instead
    of the composed sub → mul → mean chain, whose backward allocates five
    batch-sized arrays where one suffices) when ``target`` is a constant of
    the prediction's shape.
    """
    target = as_tensor(target)
    pd, td = prediction.data, target.data
    if pd.shape != td.shape or needs_grad(target):
        # A broadcasting or live target keeps the composed implementation.
        diff = prediction - target
        squared = diff * diff
        if squared.ndim == 1:
            return squared
        return squared.mean(axis=tuple(range(1, squared.ndim)))
    diff = pd - td
    per_sample = diff * diff
    if diff.ndim > 1:
        per_sample = per_sample.mean(axis=tuple(range(1, diff.ndim)))
    return prediction._make(per_sample, (prediction,), "per_sample_mse", saved=(diff,))


@register_vjp("per_sample_mse")
def _vjp_per_sample_mse(node: Node, grad: np.ndarray):
    """Fused backward of :func:`per_sample_mse`: ``2 · (g / denom) · diff``.

    The composed form sends ``(g / denom) · diff`` into ``diff`` twice (once
    per factor of ``diff * diff``) and adds the two; ``x + x`` and ``2 · x``
    are the same IEEE-754 number, so one product doubled in place is
    bit-identical.
    """
    (diff,) = node.saved
    g = grad / math.prod(diff.shape[1:])
    grad_prediction = g.reshape(g.shape + (1,) * (diff.ndim - 1)) * diff
    grad_prediction *= 2.0
    return (grad_prediction,)


def l1_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    target = as_tensor(target)
    diff = (prediction - target).abs()
    if reduction == "mean":
        return diff.mean()
    if reduction == "sum":
        return diff.sum()
    if reduction == "none":
        return diff
    raise ValueError(f"unknown reduction {reduction!r}")
