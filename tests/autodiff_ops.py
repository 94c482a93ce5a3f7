"""The package's autodiff ops plus four that only the tests use.

``mul``, ``matmul``, ``transpose`` and ``softmax`` have no caller in the
package (its products and the mode softmax are fused nodes), but the
gradient checks weight op outputs with ``mul`` and check the other three
against finite differences.  They are built on the package's node
machinery, and the package ops are re-exported, so a test reaches every
op through this one module.
"""

import numpy as np

from risknet.predictor.autodiff import (  # noqa: F401  (re-exported)
    _node,
    _unbroadcast,
    add,
    as_tensor,
    div,
    exp,
    getitem,
    log,
    logsumexp,
    neg,
    stack,
    sub,
    tsum,
)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    an, bn = a.data.ndim, b.data.ndim

    def backward(g):
        if an == 2 and bn == 2:
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)
        elif an == 2 and bn == 1:
            if a.requires_grad:
                a._accum(np.outer(g, b.data))
            if b.requires_grad:
                b._accum(a.data.T @ g)
        elif an == 1 and bn == 2:
            if a.requires_grad:
                a._accum(b.data @ g)
            if b.requires_grad:
                b._accum(np.outer(a.data, g))
        else:  # 1-D dot product
            if a.requires_grad:
                a._accum(g * b.data)
            if b.requires_grad:
                b._accum(g * a.data)

    return _node(a.data @ b.data, (a, b), backward)


def transpose(a):
    a = as_tensor(a)

    def backward(g):
        a._accum(g.T)

    return _node(a.data.T, (a,), backward)


def softmax(a):
    """Softmax of a 1-D tensor, stabilized by its (detached) maximum."""
    a = as_tensor(a)
    shifted = sub(a, float(a.data.max()))
    e = exp(shifted)
    return div(e, tsum(e))
