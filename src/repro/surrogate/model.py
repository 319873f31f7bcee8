"""The multi-parametric direct surrogate model.

Architecture (Section 4 / Appendix B.1 of the paper): a multilayer perceptron
with an input layer of 6 neurons (``[T0, T1, T2, T3, T4, t]``), ``L`` hidden
layers of ``H`` neurons with ReLU activations, and an output layer of ``M²``
neurons producing the flattened temperature field.

The MLP is the paper's architecture and remains the default; the
``architecture`` registry key on :class:`SurrogateConfig` selects alternative
surrogate bodies — ``"residual"`` (skip-connected MLP) and ``"conv2d"``
(dense stem + convolutional trunk over the square output grid) ship as
built-ins, and :func:`repro.api.register_architecture` accepts user-defined
factories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.surrogate.normalization import SurrogateScalers

__all__ = [
    "SurrogateConfig",
    "DirectSurrogate",
    "build_mlp",
    "build_residual_mlp",
    "build_conv_surrogate",
    "build_surrogate",
]


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyper-parameters of the surrogate MLP.

    Attributes
    ----------
    input_dim:
        NN input size; 6 for the heat case (5 parameters + time step).
    output_dim:
        NN output size; ``M²`` for the heat case.
    hidden_size:
        ``H`` — width of every hidden layer.
    n_hidden_layers:
        ``L`` — number of hidden layers.
    activation:
        Hidden activation, ``"relu"`` (paper default) or ``"tanh"``.
    architecture:
        Surrogate-architecture registry key; ``"mlp"`` (paper default),
        ``"residual"``, ``"conv2d"``, or any name registered through
        :func:`repro.api.register_architecture`.
    """

    input_dim: int = 6
    output_dim: int = 64 * 64
    hidden_size: int = 16
    n_hidden_layers: int = 1
    activation: str = "relu"
    architecture: str = "mlp"

    def __post_init__(self) -> None:
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError("input_dim and output_dim must be positive")
        if self.hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if self.n_hidden_layers < 1:
            raise ValueError("n_hidden_layers must be >= 1")
        from repro.api.registry import ACTIVATIONS, ARCHITECTURES

        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unsupported architecture {self.architecture!r}; "
                f"available: {ARCHITECTURES.names()}"
            )

    @property
    def label(self) -> str:
        """Short label used in figure legends, e.g. ``H=16, L=2``."""
        base = f"H={self.hidden_size}, L={self.n_hidden_layers}"
        if self.architecture != "mlp":
            return f"{base}, {self.architecture}"
        return base


def _activation_module(name: str) -> nn.Module:
    # Imported lazily: the registry lives in repro.api, which itself imports
    # this module at package-initialisation time.
    from repro.api.registry import get_activation

    try:
        factory = get_activation(name)
    except KeyError:
        raise ValueError(f"unsupported activation {name!r}") from None
    return factory()


def build_mlp(config: SurrogateConfig, rng: Optional[np.random.Generator] = None) -> nn.Sequential:
    """Construct the MLP described by ``config`` (the paper's architecture)."""
    rng = rng if rng is not None else np.random.default_rng()
    layers: list[nn.Module] = [nn.Linear(config.input_dim, config.hidden_size, rng=rng)]
    layers.append(_activation_module(config.activation))
    for _ in range(config.n_hidden_layers - 1):
        layers.append(nn.Linear(config.hidden_size, config.hidden_size, rng=rng))
        layers.append(_activation_module(config.activation))
    layers.append(nn.Linear(config.hidden_size, config.output_dim, rng=rng))
    return nn.Sequential(*layers)


def build_residual_mlp(
    config: SurrogateConfig, rng: Optional[np.random.Generator] = None
) -> nn.Sequential:
    """Skip-connected MLP: dense stem, ``L`` residual blocks, dense head.

    Each residual block wraps ``Linear(H, H) → activation`` in an additive
    skip connection, so gradients reach early layers along the identity path.
    Parameter count matches an ``L+1``-layer plain MLP of the same width.
    """
    rng = rng if rng is not None else np.random.default_rng()
    layers: list[nn.Module] = [
        nn.Linear(config.input_dim, config.hidden_size, rng=rng),
        _activation_module(config.activation),
    ]
    for _ in range(config.n_hidden_layers):
        block = nn.Sequential(
            nn.Linear(config.hidden_size, config.hidden_size, rng=rng),
            _activation_module(config.activation),
        )
        layers.append(nn.Residual(block))
    layers.append(nn.Linear(config.hidden_size, config.output_dim, rng=rng))
    return nn.Sequential(*layers)


def build_conv_surrogate(
    config: SurrogateConfig, rng: Optional[np.random.Generator] = None
) -> nn.Sequential:
    """Convolutional surrogate over the square output grid.

    A dense stem lifts the parameter vector ``(λ, t)`` to ``hidden_size``
    feature maps on the ``g×g`` grid (``g = sqrt(output_dim)``); ``L``
    3×3 same-padded conv blocks mix neighbouring cells — matching the local
    stencil structure of the PDE solution operator — and a final 3×3 conv
    projects down to the single-channel field, flattened back to
    ``output_dim``.
    """
    grid = math.isqrt(config.output_dim)
    if grid * grid != config.output_dim:
        raise ValueError(
            f"architecture 'conv2d' requires a square output grid; "
            f"output_dim={config.output_dim} is not a perfect square"
        )
    rng = rng if rng is not None else np.random.default_rng()
    channels = config.hidden_size
    layers: list[nn.Module] = [
        nn.Linear(config.input_dim, channels * grid * grid, rng=rng),
        _activation_module(config.activation),
        nn.Reshape(channels, grid, grid),
    ]
    for _ in range(config.n_hidden_layers):
        layers.append(nn.Conv2d(channels, channels, 3, padding="same", rng=rng))
        layers.append(_activation_module(config.activation))
    layers.append(nn.Conv2d(channels, 1, 3, padding="same", rng=rng))
    layers.append(nn.Reshape(grid * grid))
    return nn.Sequential(*layers)


def build_surrogate(
    config: SurrogateConfig, rng: Optional[np.random.Generator] = None
) -> nn.Module:
    """Construct the surrogate body named by ``config.architecture``.

    Resolution goes through the :data:`repro.api.registry.ARCHITECTURES`
    registry, so user-registered architectures participate on equal footing
    with the built-ins.  For ``"mlp"`` this is exactly :func:`build_mlp`,
    including the RNG draw sequence — checkpoints and seeded runs predating
    the registry reproduce bit-identically.
    """
    from repro.api.registry import get_architecture

    try:
        factory = get_architecture(config.architecture)
    except KeyError:
        raise ValueError(
            f"unsupported architecture {config.architecture!r}"
        ) from None
    return factory(config, rng if rng is not None else np.random.default_rng())


class DirectSurrogate(nn.Module):
    """Multi-parametric direct surrogate ``u_θ(λ, t) = û_λ(·, t)``.

    The model owns its normalisation scalers so callers interact with physical
    units: :meth:`predict_field` accepts raw Kelvin parameters and a time-step
    index and returns a denormalised field.
    """

    def __init__(
        self,
        config: SurrogateConfig,
        scalers: SurrogateScalers,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.scalers = scalers
        # Kept under the historical ``mlp`` attribute name regardless of the
        # selected architecture: state-dict keys (``mlp.layer0.weight``, …)
        # are a checkpoint-format contract.
        self.mlp = build_surrogate(config, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass on already-normalised inputs (shape ``(batch, input_dim)``)."""
        return self.mlp(x)

    # ------------------------------------------------------------ inference
    def predict_field(self, parameters: Sequence[float], timestep: int) -> np.ndarray:
        """Predict the physical (denormalised) field for one ``(λ, t)`` pair."""
        encoded = self.scalers.encode_input(np.asarray(parameters, dtype=np.float64), timestep)
        with nn.no_grad():
            prediction = self.forward(Tensor(encoded[None, :]))
        return self.scalers.decode_output(prediction.data[0])

    def num_parameters(self) -> int:
        return self.mlp.num_parameters()

    def __repr__(self) -> str:  # pragma: no cover
        return f"DirectSurrogate({self.config.label}, params={self.num_parameters()})"
