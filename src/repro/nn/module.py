"""Module/Parameter containers, mirroring the ``torch.nn.Module`` contract."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor flagged as trainable; collected by :meth:`Module.parameters`."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network components.

    Sub-modules and parameters assigned as attributes are registered
    automatically; :meth:`parameters` walks the tree.  Unlike PyTorch the
    implementation is intentionally small: no hooks, no buffers and no
    train/eval mode — the state dict is the parameters.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ----------------------------------------------------------- registration
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ----------------------------------------------------------- forward pass
    def forward(self, *args: Any, **kwargs: Any) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------- traversal
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters()))

    # ----------------------------------------------------------------- state
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for mod_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{mod_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            value = np.asarray(state[key], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value
        for mod_name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{mod_name}.")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        child_repr = ", ".join(f"{k}={v.__class__.__name__}" for k, v in self._modules.items())
        return f"{self.__class__.__name__}({child_repr})"
