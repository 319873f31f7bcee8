"""Learning-rate schedulers.

The paper keeps the learning rate fixed at ``1e-3``; the schedulers here exist
for extension/ablation studies; no session constructs one.
"""

from __future__ import annotations

import math
from typing import List

from repro.nn.optim import Optimizer

__all__ = ["LRScheduler", "ConstantLR", "StepLR", "CosineAnnealingLR", "ReduceLROnPlateau"]


class LRScheduler:
    """Base class storing the optimizer and its initial learning rate."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = float(optimizer.lr)  # type: ignore[attr-defined]
        self.last_step = 0
        self.history: List[float] = [self.base_lr]

    def get_lr(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        self.last_step += 1
        lr = self.get_lr()
        self.optimizer.lr = lr  # type: ignore[attr-defined]
        self.history.append(lr)
        return lr

    def state_dict(self) -> dict:
        """Schedule progress (step counter, LR trace, current optimizer LR)."""
        return {
            "last_step": self.last_step,
            "base_lr": self.base_lr,
            "history": list(self.history),
            "optimizer_lr": float(self.optimizer.lr),  # type: ignore[attr-defined]
        }

    def load_state_dict(self, state: dict) -> None:
        self.last_step = int(state["last_step"])
        self.base_lr = float(state.get("base_lr", self.base_lr))
        self.history = [float(lr) for lr in state.get("history", self.history)]
        self.optimizer.lr = float(state.get("optimizer_lr", self.history[-1]))  # type: ignore[attr-defined]


class ConstantLR(LRScheduler):
    def get_lr(self) -> float:
        return self.base_lr


class StepLR(LRScheduler):
    """Multiply the LR by ``gamma`` every ``step_size`` scheduler steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * (self.gamma ** (self.last_step // self.step_size))


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``eta_min`` over ``t_max`` steps."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = t_max
        self.eta_min = eta_min

    def get_lr(self) -> float:
        progress = min(self.last_step, self.t_max) / self.t_max
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (1.0 + math.cos(math.pi * progress))


class ReduceLROnPlateau(LRScheduler):
    """Halve (by ``factor``) the LR when a monitored metric stops improving."""

    def __init__(
        self,
        optimizer: Optimizer,
        factor: float = 0.5,
        patience: int = 10,
        min_lr: float = 1e-6,
        threshold: float = 1e-4,
    ) -> None:
        super().__init__(optimizer)
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.threshold = threshold
        self._best = math.inf
        self._bad_steps = 0
        self._current = self.base_lr

    def get_lr(self) -> float:
        return self._current

    def step_metric(self, metric: float) -> float:
        """Update with the latest validation metric and return the new LR."""
        if metric < self._best - self.threshold:
            self._best = metric
            self._bad_steps = 0
        else:
            self._bad_steps += 1
            if self._bad_steps > self.patience:
                self._current = max(self._current * self.factor, self.min_lr)
                self._bad_steps = 0
        return self.step()

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["best"] = self._best
        state["bad_steps"] = self._bad_steps
        state["current"] = self._current
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._best = float(state.get("best", math.inf))
        self._bad_steps = int(state.get("bad_steps", 0))
        self._current = float(state.get("current", self.optimizer.lr))  # type: ignore[attr-defined]
