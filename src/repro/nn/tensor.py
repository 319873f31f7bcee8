"""A small reverse-mode automatic-differentiation engine on NumPy arrays.

This module is the substitute for PyTorch's tensor/autograd machinery (the
paper trains its surrogates with PyTorch).  It is built around an explicit
*recorded op graph*:

* every differentiable operation records a :class:`Node` — the op name, the
  parent tensors and the saved forward values its backward pass needs,
* backward passes are *derived* from the recorded graph: a topological-order
  walk looks each node's vector-Jacobian product (VJP) up in the
  :data:`VJPS` registry (see :func:`register_vjp`) and accumulates parent
  gradients — no layer hand-wires its own backward,
* a :class:`Tape` context optionally records the nodes of a forward pass in
  execution order, for introspection, testing and overhead measurement,
* full broadcasting support in every binary operation (gradients are
  "un-broadcast" by summing over the broadcast axes),
* gradient accumulation into leaf tensors (``requires_grad=True``),
* ``no_grad`` context to disable graph recording during inference/validation.

Fused kernels stay *op-level*: :func:`repro.nn.functional.linear` records a
single ``"linear"`` node whose registered VJP is the fused one-GEMM backward,
so deriving gradients from the graph costs nothing on the MLP hot path.

The engine is validated against central finite differences in
:mod:`repro.nn.grad_check`, by property-based sweeps over every registered
op, and by exact-equality oracle tests replaying the historical hand-wired
backward implementations (``tests/nn/test_tape_oracle.py``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = [
    "Node",
    "Tape",
    "Tensor",
    "as_tensor",
    "is_grad_enabled",
    "needs_grad",
    "no_grad",
    "register_vjp",
    "vjp_names",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence[float]]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


# ---------------------------------------------------------------------------
# VJP registry: op name -> vector-Jacobian product
# ---------------------------------------------------------------------------

#: op name → ``vjp(node, grad) -> tuple`` of per-parent gradient arrays
#: (``None`` entries mean "no gradient flows into this parent")
VJPS: Dict[str, Callable[["Node", np.ndarray], Tuple[Optional[np.ndarray], ...]]] = {}


def register_vjp(op: str, fn: Optional[Callable] = None, *, overwrite: bool = False) -> Callable:
    """Register the backward rule of a primitive op; usable as a decorator.

    The VJP receives the recorded :class:`Node` and the upstream gradient and
    returns one gradient array per parent (``None`` to skip a parent — the
    dead-input optimisation).  Registering an existing name raises unless
    ``overwrite=True``, so typos cannot silently shadow a kernel.
    """

    def _store(vjp_fn: Callable) -> Callable:
        if op in VJPS and not overwrite:
            raise ValueError(f"VJP for op {op!r} is already registered; pass overwrite=True")
        VJPS[op] = vjp_fn
        return vjp_fn

    if fn is None:
        return _store
    return _store(fn)


def vjp_names() -> List[str]:
    """Sorted names of every op with a registered backward rule."""
    return sorted(VJPS)


class Node:
    """One recorded primitive operation of the autograd graph.

    A node stores only what the backward pass needs: the op name (the
    :data:`VJPS` key), the parent tensors the gradients flow into, and the
    ``saved`` forward values of the op (arrays, shapes, axes...).  The
    output tensor holds its creating node in :attr:`Tensor.grad_fn`.
    """

    __slots__ = ("op", "parents", "saved")

    def __init__(self, op: str, parents: Tuple["Tensor", ...], saved: Tuple = ()) -> None:
        self.op = op
        self.parents = parents
        self.saved = saved

    def vjp(self, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        """Per-parent gradient contributions for an upstream gradient."""
        try:
            rule = VJPS[self.op]
        except KeyError:
            raise KeyError(
                f"op {self.op!r} has no registered VJP; available: {vjp_names()}"
            ) from None
        return rule(self, grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Node(op={self.op!r}, n_parents={len(self.parents)})"


class Tape:
    """Explicit recording of the ops executed during a forward pass.

    The graph itself always lives on the tensors (every op output keeps its
    :class:`Node`); a tape additionally records those nodes *in execution
    order* while active, which makes the recorded program inspectable::

        with Tape() as tape:
            loss = F.mse_loss(model(x), y)
        assert "linear" in tape.ops()

    Tapes nest (the innermost active tape records); recording costs one list
    append per op and is measured by the ``nn/tape_overhead`` bench scenario.
    """

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self._previous: Optional["Tape"] = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._previous = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._previous
        self._previous = None

    def ops(self) -> List[str]:
        """Op names in execution order."""
        return [node.op for node in self.nodes]

    def counts(self) -> Dict[str, int]:
        """Number of recorded nodes per op name."""
        totals: Dict[str, int] = {}
        for node in self.nodes:
            totals[node.op] = totals.get(node.op, 0) + 1
        return totals

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tape({len(self.nodes)} nodes)"


_ACTIVE_TAPE: Optional[Tape] = None


def needs_grad(tensor: "Tensor") -> bool:
    """Whether a backward pass must propagate a gradient into ``tensor``.

    True for leaves that accumulate (``requires_grad``) and for op outputs
    (gradient must flow *through* them).  VJPs use this to skip dead inputs —
    e.g. the batch input of the first layer, which is the usual case.
    """
    return tensor.requires_grad or tensor.grad_fn is not None


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes where the original size was 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array content (copied to ``float64`` unless already a float array).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "grad_fn", "name")
    __array_priority__ = 100  # ensure ndarray.__op__(Tensor) defers to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        #: the :class:`Node` that produced this tensor (None for leaves)
        self.grad_fn: Optional[Node] = None
        self.name = name

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------- graph ops
    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        saved: Tuple = (),
    ) -> "Tensor":
        """Record one op: build the output tensor and its graph node."""
        requires = any(p.requires_grad for p in parents)
        if not (_GRAD_ENABLED and requires):
            return Tensor(data, requires_grad=False)
        node = Node(op, parents, saved)
        if _ACTIVE_TAPE is not None:
            _ACTIVE_TAPE.nodes.append(node)
        out = Tensor(data, requires_grad=True)
        out.grad_fn = node
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to 1.0 and must have the same shape as the tensor.
        The backward pass is *derived* from the recorded graph: nodes are
        visited in reverse topological order and each op's registered VJP
        distributes the upstream gradient to its parents.  Gradients are
        accumulated into every reachable tensor with ``requires_grad=True``.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        # Topological sort of the sub-graph reachable from self.
        topo: List[Tensor] = []
        visited: Set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            tensor, processed = stack.pop()
            if processed:
                topo.append(tensor)
                continue
            if id(tensor) in visited:
                continue
            visited.add(id(tensor))
            stack.append((tensor, True))
            if tensor.grad_fn is not None:
                for parent in tensor.grad_fn.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for tensor in reversed(topo):
            tensor_grad = grads.pop(id(tensor), None)
            if tensor_grad is None:
                continue
            if tensor.requires_grad and tensor.grad_fn is None:
                # Leaf tensor.
                tensor._accumulate(tensor_grad)
            if tensor.grad_fn is not None:
                # Recorded op: its VJP distributes into the per-call dict.
                tensor._route_backward(tensor_grad, grads)

    def _route_backward(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the node's registered VJP, collecting parent gradients."""
        node = self.grad_fn
        assert node is not None
        contributions = node.vjp(grad)
        for parent, contribution in zip(node.parents, contributions):
            if contribution is None:
                continue
            if not needs_grad(parent):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    # --------------------------------------------------------- binary ops
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        return self._make(self.data + other_t.data, (self, other_t), "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        return self._make(self.data - other_t.data, (self, other_t), "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        a, b = self.data, other_t.data
        return self._make(a * b, (self, other_t), "mul", saved=(a, b))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        a, b = self.data, other_t.data
        return self._make(a / b, (self, other_t), "div", saved=(a, b))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self._make(-self.data, (self,), "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return self._make(np.power(self.data, exponent), (self,), "pow", saved=(self.data, exponent))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting (n,k)@(k,m), (k,)@(k,m) and (n,k)@(k,)."""
        other_t = as_tensor(other)
        a, b = self.data, other_t.data
        return self._make(a @ b, (self, other_t), "matmul", saved=(a, b))

    # ---------------------------------------------------------- unary ops
    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        return self._make(self.data * mask, (self,), "relu", saved=(mask,))

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._make(out, (self,), "exp", saved=(out,))

    def log(self) -> "Tensor":
        return self._make(np.log(self.data), (self,), "log", saved=(self.data,))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return self._make(out, (self,), "tanh", saved=(out,))

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out, (self,), "sigmoid", saved=(out,))

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return self._make(np.abs(self.data), (self,), "abs", saved=(sign,))

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return self._make(out, (self,), "sqrt", saved=(out,))

    # ------------------------------------------------------- shape ops
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return self._make(self.data.reshape(shape), (self,), "reshape", saved=(original,))

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        return self._make(self.data.transpose(axes), (self,), "transpose", saved=(axes,))

    def __getitem__(self, index) -> "Tensor":
        return self._make(self.data[index], (self,), "getitem", saved=(self.data.shape, index))

    # --------------------------------------------------------- reductions
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return self._make(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            "sum",
            saved=(self.data.shape, axis, keepdims),
        )

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        original_shape = self.data.shape
        if axis is None:
            denom = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            denom = int(np.prod([original_shape[a] for a in axes]))
        return self._make(
            self.data.mean(axis=axis, keepdims=keepdims),
            (self,),
            "mean",
            saved=(original_shape, axis, keepdims, denom),
        )

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        return self._make(out, (self,), "max", saved=(self.data, out, axis, keepdims))

    # --------------------------------------------------------- comparisons
    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:  # type: ignore[override]
        if isinstance(other, Tensor):
            return bool(np.array_equal(self.data, other.data))
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce a value to :class:`Tensor` without copying existing tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiable w.r.t. every input."""
    tensor_list = list(tensors)
    arrays = [t.data for t in tensor_list]
    out = np.stack(arrays, axis=axis)
    proto = tensor_list[0]
    return proto._make(out, tuple(tensor_list), "stack", saved=(len(tensor_list), axis))


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensor_list = list(tensors)
    arrays = [t.data for t in tensor_list]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    boundaries = np.cumsum(sizes)[:-1]
    proto = tensor_list[0]
    return proto._make(out, tuple(tensor_list), "concatenate", saved=(boundaries, axis))


# ---------------------------------------------------------------------------
# VJPs of the primitive ops.
#
# Every rule is the *exact arithmetic* of the historical hand-wired backward
# closures (same numpy expressions, same evaluation order), so gradients are
# bit-identical to the pre-tape engine — proven by the oracle tests in
# ``tests/nn/test_tape_oracle.py``.  The binary rules return ``None`` for a
# parent nothing flows into (a constant target, a mask, a scalar): its
# gradient would be computed only for ``_route_backward`` to drop it.
# ---------------------------------------------------------------------------


@register_vjp("add")
def _vjp_add(node: Node, grad: np.ndarray):
    a, b = node.parents
    return (
        _unbroadcast(grad, a.data.shape) if needs_grad(a) else None,
        _unbroadcast(grad, b.data.shape) if needs_grad(b) else None,
    )


@register_vjp("sub")
def _vjp_sub(node: Node, grad: np.ndarray):
    a, b = node.parents
    return (
        _unbroadcast(grad, a.data.shape) if needs_grad(a) else None,
        _unbroadcast(-grad, b.data.shape) if needs_grad(b) else None,
    )


@register_vjp("mul")
def _vjp_mul(node: Node, grad: np.ndarray):
    a, b = node.saved
    pa, pb = node.parents
    return (
        _unbroadcast(grad * b, a.shape) if needs_grad(pa) else None,
        _unbroadcast(grad * a, b.shape) if needs_grad(pb) else None,
    )


@register_vjp("div")
def _vjp_div(node: Node, grad: np.ndarray):
    a, b = node.saved
    pa, pb = node.parents
    return (
        _unbroadcast(grad / b, a.shape) if needs_grad(pa) else None,
        _unbroadcast(-grad * a / (b * b), b.shape) if needs_grad(pb) else None,
    )


@register_vjp("neg")
def _vjp_neg(node: Node, grad: np.ndarray):
    return (-grad,)


@register_vjp("pow")
def _vjp_pow(node: Node, grad: np.ndarray):
    a, exponent = node.saved
    return (grad * exponent * np.power(a, exponent - 1),)


@register_vjp("matmul")
def _vjp_matmul(node: Node, grad: np.ndarray):
    a_local, b_local = node.saved
    grad_local = grad
    # Promote vectors to matrices to make the adjoint formulas uniform.
    a2 = a_local[None, :] if a_local.ndim == 1 else a_local
    b2 = b_local[:, None] if b_local.ndim == 1 else b_local
    if a_local.ndim == 1 and b_local.ndim == 1:
        g2 = np.array([[grad_local]]) if np.ndim(grad_local) == 0 else grad_local.reshape(1, 1)
    elif a_local.ndim == 1:
        g2 = grad_local[None, :]
    elif b_local.ndim == 1:
        g2 = grad_local[:, None]
    else:
        g2 = grad_local
    grad_a = g2 @ b2.T
    grad_b = a2.T @ g2
    if a_local.ndim == 1:
        grad_a = grad_a.reshape(a_local.shape)
    if b_local.ndim == 1:
        grad_b = grad_b.reshape(b_local.shape)
    return grad_a, grad_b


@register_vjp("relu")
def _vjp_relu(node: Node, grad: np.ndarray):
    (mask,) = node.saved
    return (grad * mask,)


@register_vjp("exp")
def _vjp_exp(node: Node, grad: np.ndarray):
    (out,) = node.saved
    return (grad * out,)


@register_vjp("log")
def _vjp_log(node: Node, grad: np.ndarray):
    (a,) = node.saved
    return (grad / a,)


@register_vjp("tanh")
def _vjp_tanh(node: Node, grad: np.ndarray):
    (out,) = node.saved
    return (grad * (1.0 - out * out),)


@register_vjp("sigmoid")
def _vjp_sigmoid(node: Node, grad: np.ndarray):
    (out,) = node.saved
    return (grad * out * (1.0 - out),)


@register_vjp("abs")
def _vjp_abs(node: Node, grad: np.ndarray):
    (sign,) = node.saved
    return (grad * sign,)


@register_vjp("sqrt")
def _vjp_sqrt(node: Node, grad: np.ndarray):
    (out,) = node.saved
    return (grad * 0.5 / out,)


@register_vjp("reshape")
def _vjp_reshape(node: Node, grad: np.ndarray):
    (original,) = node.saved
    return (grad.reshape(original),)


@register_vjp("transpose")
def _vjp_transpose(node: Node, grad: np.ndarray):
    (axes,) = node.saved
    if axes is None:
        return (grad.transpose(),)
    inverse = np.argsort(axes)
    return (grad.transpose(inverse),)


@register_vjp("getitem")
def _vjp_getitem(node: Node, grad: np.ndarray):
    original_shape, index = node.saved
    full = np.zeros(original_shape, dtype=np.float64)
    np.add.at(full, index, grad)
    return (full,)


@register_vjp("sum")
def _vjp_sum(node: Node, grad: np.ndarray):
    original_shape, axis, keepdims = node.saved
    g = np.asarray(grad, dtype=np.float64)
    if axis is None:
        return (np.broadcast_to(g, original_shape).copy(),)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        g = np.expand_dims(g, axis=tuple(a % len(original_shape) for a in axes))
    return (np.broadcast_to(g, original_shape).copy(),)


@register_vjp("mean")
def _vjp_mean(node: Node, grad: np.ndarray):
    original_shape, axis, keepdims, denom = node.saved
    g = np.asarray(grad, dtype=np.float64) / denom
    if axis is None:
        return (np.broadcast_to(g, original_shape).copy(),)
    axes_local = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        g = np.expand_dims(g, axis=tuple(a % len(original_shape) for a in axes_local))
    return (np.broadcast_to(g, original_shape).copy(),)


@register_vjp("max")
def _vjp_max(node: Node, grad: np.ndarray):
    original, out, axis, keepdims = node.saved
    if axis is None:
        mask = (original == original.max()).astype(np.float64)
        mask /= mask.sum()
        return (mask * grad,)
    expanded = out if keepdims else np.expand_dims(out, axis)
    mask = (original == expanded).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    g = grad if keepdims else np.expand_dims(grad, axis)
    return (mask * g,)


@register_vjp("stack")
def _vjp_stack(node: Node, grad: np.ndarray):
    n, axis = node.saved
    pieces = np.split(grad, n, axis=axis)
    return tuple(np.squeeze(p, axis=axis) for p in pieces)


@register_vjp("concatenate")
def _vjp_concatenate(node: Node, grad: np.ndarray):
    boundaries, axis = node.saved
    return tuple(np.split(grad, boundaries, axis=axis))
