"""Weight-initialisation schemes for dense and convolutional layers.

The paper's surrogates are ReLU MLPs; we default to Kaiming-uniform
initialisation (the PyTorch ``nn.Linear`` default) so that training dynamics
are comparable to the original implementation.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "kaiming_uniform",
    "kaiming_normal",
    "xavier_uniform",
    "xavier_normal",
    "uniform_bias",
]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Fan-in/fan-out of a weight shape.

    2-D shapes are dense ``(out, in)`` layouts; 4-D shapes are convolution
    kernels ``(out_channels, in_channels, kh, kw)``, whose fans follow the
    PyTorch convention (channels × receptive-field size).
    """
    if len(shape) == 2:
        out_features, in_features = shape
        return in_features, out_features
    if len(shape) == 4:
        out_channels, in_channels, kh, kw = shape
        receptive = kh * kw
        return in_channels * receptive, out_channels * receptive
    raise ValueError(f"initialisers expect 2-D (dense) or 4-D (conv) weight shapes, got {shape}")


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5)) -> np.ndarray:
    """Kaiming/He uniform init, PyTorch's default for ``nn.Linear``/``nn.Conv2d`` weights."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    std = gain / math.sqrt(fan_in)
    bound = math.sqrt(3.0) * std
    return rng.uniform(-bound, bound, size=shape)


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He normal init suited to ReLU activations."""
    fan_in, _ = _fan_in_out(shape)
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def xavier_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def uniform_bias(out_features: int, in_features: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch's default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(in_features) if in_features > 0 else 0.0
    return rng.uniform(-bound, bound, size=(out_features,))
