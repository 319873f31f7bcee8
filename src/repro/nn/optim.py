"""The Adam optimizer.

The paper trains every surrogate with Adam at learning rate ``1e-3`` (Section
4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class: holds the parameter list and the ``zero_grad`` helper."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        return {"step_count": self.step_count}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.step_count = int(state.get("step_count", 0))


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        # Per-parameter scratch buffers: step() is the per-batch hot path and
        # would otherwise allocate ~6 temporaries per parameter per call.
        self._scratch: List[np.ndarray] = [np.empty_like(p.data) for p in self.parameters]
        self._scratch2: List[np.ndarray] = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """One Adam update over every parameter that has a gradient.

        The update is written with explicit ``out=`` buffers but performs the
        *exact* scalar-by-scalar operation sequence of the textbook form
        (``m/bias1``, ``sqrt(v/bias2) + eps``, ``lr·m̂/denom``), so results
        are bit-identical to the allocating implementation it replaced.
        """
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m[index]
            v = self._v[index]
            s1 = self._scratch[index]
            s2 = self._scratch2[index]
            # m ← β₁·m + (1-β₁)·grad ; v ← β₂·v + (1-β₂)·grad²
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=s1)
            np.multiply(s1, grad, out=s1)
            v += s1
            # denom ← sqrt(v/bias2) + eps ; update ← (lr·(m/bias1)) / denom
            np.divide(v, bias2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bias1, out=s2)
            np.multiply(s2, self.lr, out=s2)
            np.divide(s2, s1, out=s2)
            param.data -= s2

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        for key, buffers in (("m", self._m), ("v", self._v)):
            if key not in state:
                continue
            values = state[key]
            if len(values) != len(buffers):  # type: ignore[arg-type]
                raise ValueError(
                    f"Adam {key!r} state has {len(values)} entries, "  # type: ignore[arg-type]
                    f"optimizer has {len(buffers)} parameters"
                )
            for dst, src in zip(buffers, values):  # type: ignore[arg-type]
                dst[...] = src
