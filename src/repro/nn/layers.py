"""Layers and containers used by the surrogate architectures.

Dense layers power the paper's MLP surrogates; :class:`Conv2d`,
:class:`Residual` and :class:`Reshape` open the architecture registry to
convolutional and residual surrogates on top of the autograd tape (see
``docs/AUTOGRAD.md``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "Residual",
    "Reshape",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Identity",
    "Sequential",
]

_INITIALISERS = {
    "kaiming_uniform": init_schemes.kaiming_uniform,
    "kaiming_normal": init_schemes.kaiming_normal,
    "xavier_uniform": init_schemes.xavier_uniform,
    "xavier_normal": init_schemes.xavier_normal,
}


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch-compatible weight layout.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to learn an additive bias (default True).
    rng:
        Generator used for initialisation; a fresh default generator is used
        when omitted (mainly convenient in tests).
    init:
        One of ``"kaiming_uniform"`` (default), ``"kaiming_normal"``,
        ``"xavier_uniform"``, ``"xavier_normal"``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        init: str = "kaiming_uniform",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng()
        if init not in _INITIALISERS:
            raise ValueError(f"unknown init scheme {init!r}; options: {sorted(_INITIALISERS)}")
        weight = _INITIALISERS[init]((out_features, in_features), rng)
        self.weight = Parameter(weight, name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                init_schemes.uniform_bias(out_features, in_features, rng), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution (cross-correlation), channels-first, stride 1.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the input/output feature maps.
    kernel_size:
        Square kernel side length (or an ``(kh, kw)`` tuple).
    padding:
        Zero-padding on both spatial sides: an int, or ``"same"`` (odd
        kernels only) to preserve the spatial resolution.
    bias:
        Whether to learn a per-output-channel additive bias (default True).
    rng, init:
        As for :class:`Linear`; fans follow the PyTorch conv convention
        (``in_channels * kh * kw``).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        padding: Union[int, str] = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        init: str = "kaiming_uniform",
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("Conv2d channel counts must be positive")
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        if kh <= 0 or kw <= 0:
            raise ValueError("Conv2d kernel sizes must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.padding = padding
        rng = rng if rng is not None else np.random.default_rng()
        if init not in _INITIALISERS:
            raise ValueError(f"unknown init scheme {init!r}; options: {sorted(_INITIALISERS)}")
        weight = _INITIALISERS[init]((out_channels, in_channels, kh, kw), rng)
        self.weight = Parameter(weight, name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                init_schemes.uniform_bias(out_channels, in_channels * kh * kw, rng), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, padding={self.padding!r}, "
            f"bias={self.bias is not None})"
        )


class Residual(Module):
    """Skip connection ``y = x + inner(x)`` around any shape-preserving block.

    The additive join relies on the tape's gradient fan-out: the upstream
    gradient accumulates along both the identity path and the inner path.
    """

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.add_module("inner", inner)

    def forward(self, x: Tensor) -> Tensor:
        return x + self.inner(x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Residual({self.inner!r})"


class Reshape(Module):
    """Reshape the non-batch axes (the batch axis is preserved).

    ``Reshape(4, 8, 8)`` maps ``(B, 256) -> (B, 4, 8, 8)`` — the glue between
    the dense stem and the convolutional trunk of a conv surrogate.
    """

    def __init__(self, *shape: int) -> None:
        super().__init__()
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        self.shape = tuple(int(s) for s in shape)

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0],) + self.shape)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Reshape{self.shape}"


class ReLU(Module):
    """Element-wise rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Ordered container applying sub-modules one after another."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            self.add_module(name, module)
            self._order.append(name)

    def __iter__(self) -> Iterable[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x
