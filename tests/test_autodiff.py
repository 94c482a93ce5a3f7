"""Reverse-mode tape: every op's gradient against central finite
differences, plus graph-shape and stability edge cases."""

import numpy as np
import pytest

import autodiff_ops as ad
from risknet.predictor.autodiff import Tensor, as_tensor, backward, no_grad, parameter

RNG = np.random.default_rng(1234)


def fd_gradient(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def check_unary(op, f_np, shape=(3, 4), low=-2.0, high=2.0, tol=1e-6):
    x = RNG.uniform(low, high, shape)
    w = RNG.normal(size=shape)

    def scalar(arr):
        return float(np.sum(f_np(arr) * w))

    t = parameter(x.copy())
    head = ad.tsum(ad.mul(op(t), Tensor(w)))
    backward(head)
    numeric = fd_gradient(scalar, x)
    assert np.allclose(t.grad, numeric, rtol=tol, atol=tol)


def test_add_sub_neg_mul_div_gradients():
    a0 = RNG.uniform(0.5, 2.0, (3, 4))
    b0 = RNG.uniform(0.5, 2.0, (3, 4))
    w = RNG.normal(size=(3, 4))

    def scalar(a, b):
        return float(np.sum((a + b - (-a) * b / (b + 3.0)) * w))

    a, b = parameter(a0.copy()), parameter(b0.copy())
    expr = ad.sub(ad.add(a, b),
                  ad.div(ad.mul(ad.neg(a), b), ad.add(b, Tensor(3.0))))
    backward(ad.tsum(ad.mul(expr, Tensor(w))))
    ga = fd_gradient(lambda arr: scalar(arr, b0), a0)
    gb = fd_gradient(lambda arr: scalar(a0, arr), b0)
    assert np.allclose(a.grad, ga, rtol=1e-6, atol=1e-6)
    assert np.allclose(b.grad, gb, rtol=1e-6, atol=1e-6)


def test_elementwise_unary_gradients():
    check_unary(ad.exp, np.exp)
    check_unary(ad.log, np.log, low=0.2, high=3.0)


@pytest.mark.parametrize("sa,sb", [
    ((3, 4), (4, 5)),   # matrix @ matrix
    ((3, 4), (4,)),     # matrix @ vector
    ((4,), (4, 5)),     # vector @ matrix
    ((4,), (4,)),       # vector @ vector
])
def test_matmul_gradients(sa, sb):
    a0 = RNG.normal(size=sa)
    b0 = RNG.normal(size=sb)
    out_shape = (a0 @ b0).shape if (a0 @ b0).ndim else ()
    w = RNG.normal(size=out_shape) if out_shape else 1.7

    def scalar(a, b):
        return float(np.sum((a @ b) * w))

    a, b = parameter(a0.copy()), parameter(b0.copy())
    backward(ad.tsum(ad.mul(ad.matmul(a, b), Tensor(w))))
    assert np.allclose(a.grad, fd_gradient(lambda x: scalar(x, b0), a0),
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(b.grad, fd_gradient(lambda x: scalar(a0, x), b0),
                       rtol=1e-6, atol=1e-6)


def test_broadcast_gradients():
    a0 = RNG.normal(size=(3, 1))
    b0 = RNG.normal(size=(4,))
    w = RNG.normal(size=(3, 4))

    a, b = parameter(a0.copy()), parameter(b0.copy())
    backward(ad.tsum(ad.mul(ad.add(a, b), Tensor(w))))
    ga = fd_gradient(lambda x: float(np.sum((x + b0) * w)), a0)
    gb = fd_gradient(lambda x: float(np.sum((a0 + x) * w)), b0)
    assert a.grad.shape == a0.shape and b.grad.shape == b0.shape
    assert np.allclose(a.grad, ga, rtol=1e-6, atol=1e-6)
    assert np.allclose(b.grad, gb, rtol=1e-6, atol=1e-6)


def test_scalar_broadcast():
    a = parameter(2.0)
    b = parameter(RNG.normal(size=(2, 3)))
    backward(ad.tsum(ad.mul(a, b)))
    assert a.grad == pytest.approx(float(b.data.sum()))


def test_tsum_axis_gradient():
    x0 = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(4,))
    x = parameter(x0.copy())
    backward(ad.tsum(ad.mul(ad.tsum(x, axis=0), Tensor(w))))
    expected = np.broadcast_to(w, (3, 4))
    assert np.allclose(x.grad, expected)


def test_stack_and_getitem_gradients():
    xs0 = [RNG.normal(size=(4,)) for _ in range(3)]
    w = RNG.normal(size=(3, 4))
    xs = [parameter(x.copy()) for x in xs0]
    stacked = ad.stack(xs)
    backward(ad.tsum(ad.mul(stacked, Tensor(w))))
    for i, x in enumerate(xs):
        assert np.allclose(x.grad, w[i])

    y = parameter(RNG.normal(size=(5, 2)))
    picked = ad.add(ad.getitem(y, 1), ad.getitem(y, 1))
    backward(ad.tsum(picked))
    expected = np.zeros((5, 2))
    expected[1] = 2.0  # the same row picked twice accumulates
    assert np.allclose(y.grad, expected)


def test_transpose_gradient():
    x0 = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(4, 3))
    x = parameter(x0.copy())
    backward(ad.tsum(ad.mul(ad.transpose(x), Tensor(w))))
    assert np.allclose(x.grad, w.T)


def test_softmax_properties_and_gradient():
    s0 = RNG.normal(size=(6,))
    probs = ad.softmax(Tensor(s0))
    assert probs.data.min() >= 0.0
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
    shifted = ad.softmax(Tensor(s0 + 123.4))
    assert np.allclose(probs.data, shifted.data, atol=1e-12)

    w = RNG.normal(size=(6,))
    s = parameter(s0.copy())
    backward(ad.tsum(ad.mul(ad.softmax(s), Tensor(w))))

    def scalar(arr):
        e = np.exp(arr - arr.max())
        return float(np.sum(e / e.sum() * w))

    assert np.allclose(s.grad, fd_gradient(scalar, s0), rtol=1e-6, atol=1e-6)


def test_softmax_logsumexp_stability():
    huge = Tensor(np.array([1000.0, 999.0, 0.0]))
    p = ad.softmax(huge)
    assert np.isfinite(p.data).all()
    l = ad.logsumexp(Tensor(np.array([1000.0, 1000.0])))
    assert l.data == pytest.approx(1000.0 + np.log(2.0))


def test_logsumexp_gradient():
    s0 = RNG.normal(size=(5,))
    s = parameter(s0.copy())
    backward(ad.logsumexp(s))

    def scalar(arr):
        m = arr.max()
        return float(m + np.log(np.exp(arr - m).sum()))

    assert np.allclose(s.grad, fd_gradient(scalar, s0), rtol=1e-6, atol=1e-6)


def test_diamond_graph_accumulates():
    x = parameter(3.0)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, x shared by two paths
    backward(y)
    assert x.grad == pytest.approx(2 * 3.0 + 1.0)


def test_deep_chain_reuse():
    x = parameter(1.1)
    t = x
    for _ in range(50):
        t = ad.mul(t, x)  # x^51
    backward(t)
    assert x.grad == pytest.approx(51 * 1.1 ** 50, rel=1e-9)


def test_backward_requires_scalar():
    x = parameter(np.ones(3))
    with pytest.raises(ValueError):
        backward(ad.mul(x, Tensor(2.0)))


def test_no_grad_builds_no_graph():
    x = parameter(np.ones(3))
    with no_grad():
        y = ad.mul(x, Tensor(2.0))
    assert not y.requires_grad
    backward(ad.tsum(y))  # silent no-op: nothing on the tape needs grads
    assert x.grad is None


def test_constant_tensors_get_no_grad():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    c = ad.mul(a, b)
    assert not c.requires_grad


def test_first_accumulation_copies():
    """The seed gradient flowing into two parents must not be shared
    storage; mutating one parent's grad must not corrupt the other's."""
    x = parameter(np.array([1.0, 2.0]))
    y = parameter(np.array([3.0, 4.0]))
    backward(ad.tsum(ad.add(x, y)))
    x.grad[0] = 99.0
    assert y.grad[0] == 1.0


def test_grad_matches_shape_even_when_scalar_upstream():
    x = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    backward(ad.tsum(x))
    assert x.grad.shape == (2, 2)
    assert np.all(x.grad == 1.0)
