"""Minimal reverse-mode automatic differentiation on numpy arrays.

The predictor's encoder step, attention, filter rollout and step
density are fused nodes built with ``_node``; the ops here join them:
elementwise arithmetic, exp/log, reductions, stacking, and basic
indexing.  Gradients are accumulated by walking the recorded tape in
reverse topological order.
"""

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(
            data, dtype=float
        )
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:
            # copy: g may alias another node's gradient buffer
            self.grad = np.array(g, dtype=float)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back onto ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _node(data, parents, backward):
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, parents=parents,
                              backward=backward)
    return Tensor(data)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        a._accum(-g)

    return _node(-a.data, (a,), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data),
                                  b.data.shape))

    return _node(a.data / b.data, (a, b), backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accum(g * out_data)

    return _node(out_data, (a,), backward)


def log(a):
    a = as_tensor(a)

    def backward(g):
        a._accum(g / a.data)

    return _node(np.log(a.data), (a,), backward)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]

    def backward(g):
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return _node(np.stack([t.data for t in tensors], axis=axis),
                 tuple(tensors), backward)


def getitem(a, idx):
    a = as_tensor(a)

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return _node(a.data[idx], (a,), backward)


def logsumexp(a, keepdims=False):
    """log(sum(exp(a))) over the last axis, stabilized by the (detached)
    maximum."""
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    total = tsum(exp(sub(a, m)), axis=-1, keepdims=keepdims)
    return add(log(total), m if keepdims else m[..., 0])


def backward(out: Tensor):
    """Backpropagate from a scalar tensor, accumulating into .grad."""
    if out.data.shape != ():
        raise ValueError("backward requires a scalar output")
    if not out.requires_grad:
        return
    topo = []
    visited = set()
    stack_ = [(out, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack_.append((p, False))
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
