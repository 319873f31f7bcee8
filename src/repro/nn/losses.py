"""Loss modules.

The training server needs two views on the same loss computation: the scalar
batch loss used for the optimizer step, and the per-sample losses used by
Breed's acquisition metric (Eq. 4 of the paper).  :class:`MSELoss` therefore
exposes :meth:`per_sample`.  The server itself calls the fused
:func:`~repro.nn.functional.per_sample_mse`; the modules wrap the composed
:func:`~repro.nn.functional.mse_loss` / :func:`~repro.nn.functional.l1_loss`,
the reference forms the loss tests compare against.
"""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["MSELoss", "L1Loss"]


class MSELoss(Module):
    """Mean squared error with selectable reduction."""

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return F.mse_loss(prediction, target, reduction=self.reduction)

    @staticmethod
    def per_sample(prediction: Tensor, target: Tensor) -> Tensor:
        """Per-sample MSE (mean over features), keeping the batch axis."""
        return F.per_sample_mse(prediction, target)


class L1Loss(Module):
    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return F.l1_loss(prediction, target, reduction=self.reduction)
