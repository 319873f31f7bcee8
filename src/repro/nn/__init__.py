"""NumPy-based neural-network substrate (autograd, layers, losses, optimizers).

This package replaces PyTorch in the reproduction: it provides exactly the
functionality the paper's surrogate training requires (dense ReLU MLPs plus
residual and convolutional surrogate blocks, MSE with per-sample losses,
Adam) implemented on top of a small reverse-mode autodiff engine — a recorded
op graph with a VJP registry (see ``docs/AUTOGRAD.md``) — that is verified
against finite differences.
"""

from repro.nn import functional
from repro.nn.grad_check import (
    GradCheckEntry,
    GradCheckReport,
    assert_module_gradients,
    check_gradients,
    check_module_gradients,
    grad_check_module,
    numerical_gradient,
)
from repro.nn.init import kaiming_normal, kaiming_uniform, xavier_normal, xavier_uniform
from repro.nn.layers import (
    Conv2d,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Reshape,
    Residual,
    Sequential,
    Tanh,
)
from repro.nn.losses import L1Loss, MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import (
    Node,
    Tape,
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    needs_grad,
    no_grad,
    register_vjp,
    stack,
    vjp_names,
)

__all__ = [
    "functional",
    "GradCheckEntry",
    "GradCheckReport",
    "assert_module_gradients",
    "check_gradients",
    "check_module_gradients",
    "grad_check_module",
    "numerical_gradient",
    "kaiming_normal",
    "kaiming_uniform",
    "xavier_normal",
    "xavier_uniform",
    "Conv2d",
    "Identity",
    "LeakyReLU",
    "Linear",
    "ReLU",
    "Reshape",
    "Residual",
    "Sequential",
    "Tanh",
    "L1Loss",
    "MSELoss",
    "Module",
    "Parameter",
    "Adam",
    "Optimizer",
    "Node",
    "Tape",
    "Tensor",
    "as_tensor",
    "concatenate",
    "is_grad_enabled",
    "needs_grad",
    "no_grad",
    "register_vjp",
    "stack",
    "vjp_names",
]
