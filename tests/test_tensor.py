import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    concat,
    div,
    log_softmax,
    mul,
    narrow,
    no_grad,
    sub,
    take,
)

from reference_ops import gelu, layer_norm, matmul, softmax


def tensor(data, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True, dtype=dtype)


def test_add_mul_grads_match_hand_derivation():
    a = tensor([1.0, 2.0, 3.0])
    b = tensor([4.0, 5.0, 6.0])
    loss = ((a + b) * a).sum()
    loss.backward()
    # d/da (a^2 + ab) = 2a + b, d/db = a
    np.testing.assert_allclose(a.grad, 2 * a.data + b.data)
    np.testing.assert_allclose(b.grad, a.data)


def test_div_and_sqrt_grads():
    a = tensor([4.0, 9.0])
    b = tensor([2.0, 3.0])
    (a.sqrt() / b).sum().backward()
    np.testing.assert_allclose(a.grad, 1 / (2 * np.sqrt(a.data) * b.data))
    np.testing.assert_allclose(b.grad, -np.sqrt(a.data) / b.data**2)


def test_matmul_grads():
    a = tensor(np.arange(6.0).reshape(2, 3))
    b = tensor(np.arange(12.0).reshape(3, 4))
    matmul(a, b).sum().backward()
    g = np.ones((2, 4))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_diamond_graph_accumulates_once_per_path():
    a = tensor([3.0])
    b = a * 2.0
    c = a * 5.0
    (b + c).sum().backward()
    np.testing.assert_allclose(a.grad, [7.0])


def test_reused_tensor_accumulates():
    a = tensor([2.0])
    (a * a * a).sum().backward()
    np.testing.assert_allclose(a.grad, [3 * 4.0])


@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_broadcast_grad_reduces_to_parameter_shape(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = tensor(rng.normal(size=(rows, cols)))
    b = tensor(rng.normal(size=(1, cols)))
    (a * b).sum().backward()
    assert b.grad.shape == (1, cols)
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0, keepdims=True))


def test_mean_grad_uniform():
    a = tensor(np.arange(8.0).reshape(2, 4))
    a.mean().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 4), 1 / 8))


def test_abs_grad_sign():
    a = tensor([-2.0, 3.0])
    a.abs().sum().backward()
    np.testing.assert_allclose(a.grad, [-1.0, 1.0])


def test_narrow_and_concat_are_adjoint_slices():
    a = tensor(np.arange(10.0))
    narrow(a, 0, 2, 5).sum().backward()
    expected = np.zeros(10)
    expected[2:7] = 1
    np.testing.assert_allclose(a.grad, expected)

    x = tensor(np.arange(4.0).reshape(2, 2))
    y = tensor(np.arange(4.0, 10.0).reshape(3, 2))
    (concat([x, y], axis=0) * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))
    np.testing.assert_allclose(y.grad, np.full((3, 2), 2.0))


def test_take_scatters_gradient_with_repeats():
    a = tensor(np.arange(5.0))
    take(a, np.array([0, 0, 3])).sum().backward()
    np.testing.assert_allclose(a.grad, [2.0, 0, 0, 1.0, 0])


@given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_normalize_and_shift_invariant(seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 6))
    s = softmax(Tensor(x, dtype=np.float64), axis=-1).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), atol=1e-12)
    s2 = softmax(Tensor(x + shift, dtype=np.float64), axis=-1).data
    np.testing.assert_allclose(s, s2, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 7)), dtype=np.float64)
    np.testing.assert_allclose(log_softmax(x, axis=-1).data, np.log(softmax(x, axis=-1).data), atol=1e-12)


def test_layer_norm_zero_mean_unit_variance():
    x = tensor(np.random.default_rng(2).normal(2.0, 3.0, size=(5, 8)))
    gamma = tensor(np.ones(8))
    beta = tensor(np.zeros(8))
    out = layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-7)
    np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-4)


def test_gelu_known_values():
    x = Tensor(np.array([0.0, 100.0, -100.0]), dtype=np.float64)
    out = gelu(x).data
    np.testing.assert_allclose(out, [0.0, 100.0, 0.0], atol=1e-6)


def test_no_grad_suppresses_graph():
    a = tensor([1.0, 2.0])
    with no_grad():
        out = (a * 3.0).sum()
    out.backward()
    assert a.grad is None


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    a, b = tensor([1.0, 2.0]), tensor([3.0, -1.0])
    c = a * b
    d = softmax(c + a, axis=-1)
    loss = (d * c).sum()
    loss.backward()
    for node in (c, d, loss):
        assert node.grad is None and node._grad_fn is None and node._parents == ()
    np.testing.assert_allclose(c.data, [3.0, -2.0])  # values stay
    assert a.grad is not None and b.grad is not None


def test_mixed_dtype_rejected():
    a = Tensor(np.zeros(3, dtype=np.float32), dtype=np.float32)
    b = Tensor(np.zeros(3, dtype=np.float64), dtype=np.float64)
    with pytest.raises(ShapeError):
        a + b
    for op in (sub, mul, div, as_tensor):
        with pytest.raises(ShapeError):
            op(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [add, sub, mul, div])
@pytest.mark.parametrize("const", [0.3, np.array([[1.5], [-2.0]])], ids=["number", "array"])
@pytest.mark.parametrize("tensor_left", [True, False], ids=["tensor_left", "tensor_right"])
def test_number_or_array_operand_joins_as_a_constant(dtype, op, const, tensor_left):
    def run(apply, c):
        x = Tensor(np.array([[0.5, -1.25, 2.0], [1.5, 0.75, -0.5]]), requires_grad=True, dtype=dtype)
        out = apply(x, c) if tensor_left else apply(c, x)
        assert isinstance(out, Tensor)
        (out * out).sum().backward()
        return out, x.grad

    ref, ref_grad = run(op, Tensor(const, dtype=dtype))
    # the function and its operator (`c * x` runs numpy's operator first when c is an array)
    symbol = {add: operator.add, sub: operator.sub, mul: operator.mul, div: operator.truediv}[op]
    for apply in (op, symbol):
        out, grad = run(apply, const)
        assert out.dtype == dtype and grad.dtype == dtype
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(grad, ref_grad)


def test_dtype_is_preserved_through_ops():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True, dtype=np.float32)
    out = softmax(matmul(a, a), axis=-1)
    assert out.data.dtype == np.float32
    out.sum().backward()
    assert a.grad.dtype == np.float32


def test_backward_requires_scalar():
    a = tensor([1.0, 2.0])
    with pytest.raises((GraphError, ShapeError, ValueError)):
        a.backward()


def test_deep_chain_does_not_recurse():
    a = tensor([1.0])
    out = a
    for _ in range(3000):
        out = out * 1.0
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_centre_is_np_mean_and_np_var_bit_for_bit(dtype, order):
    from respox.kernels import _centre, _mean_last

    a = np.asarray(np.random.default_rng(3).normal(2.0, 3.0, size=(7, 301)).astype(dtype), order=order)
    centred, mean, var = _centre(a)
    assert mean.tobytes() == a.mean(axis=-1, keepdims=True).tobytes()
    assert var.tobytes() == a.var(axis=-1, keepdims=True).tobytes()
    assert centred.tobytes() == (a - a.mean(axis=-1, keepdims=True)).tobytes()
    assert _mean_last(a).dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_and_gelu_are_the_textbook_expressions_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(1.0, 2.0, size=(6, 33)).astype(dtype)
    gamma, beta = (rng.uniform(0.5, 1.5, size=33).astype(dtype) for _ in range(2))
    xhat = (x - x.mean(axis=-1, keepdims=True)) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12))
    out = layer_norm(Tensor(x, dtype=dtype), Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype)).data
    assert out.tobytes() == (gamma * xhat + beta).tobytes()
    c, a = 0.7978845608028654, 0.044715
    want = 0.5 * x * (1.0 + np.tanh(c * (x + a * x * x * x)))
    assert gelu(Tensor(x, dtype=dtype)).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_gradients_are_the_textbook_expressions_bit_for_bit(dtype):
    """Values and memory layout, for a gradient that arrives column-major."""
    rng = np.random.default_rng(6)
    x = rng.normal(1.0, 2.0, size=(40, 33)).astype(dtype)
    gamma, beta = (rng.uniform(0.5, 1.5, size=33).astype(dtype) for _ in range(2))
    xt, gt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta))
    upstream = rng.normal(size=(33, 40)).astype(dtype)
    (layer_norm(xt, gt, bt).t() * Tensor(upstream, dtype=dtype)).sum().backward()
    g = upstream.T
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = g * gamma
    want = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert xt.grad.tobytes() == want.tobytes() and xt.grad.strides == want.strides
    assert gt.grad.tobytes() == (g * xhat).reshape(-1, 33).sum(axis=0).tobytes()
    assert bt.grad.tobytes() == g.reshape(-1, 33).sum(axis=0).tobytes()
