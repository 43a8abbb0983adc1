import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox import kernels, model
from respox.config import ModelConfig, tiny_model_config
from respox.kernels import (
    ATTENTION_PARAM_KEYS,
    SCATTER_COLUMNS,
    _gather,
    _im2col,
    _scatter,
    attention_param_shapes,
    batch_norm1d,
    conv1d,
    conv_bn_rrelu,
    conv_output_length,
    conv_transpose1d,
    conv_transpose_output_length,
    multi_head_self_attention,
    rrelu,
)
from respox.tensor import ShapeError, Tensor, _toposort, concat, gelu, layer_norm, matmul, softmax


def t(data, dtype=np.float64, grad=True):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad, dtype=dtype)


def naive_conv(x, w, stride, padding):
    c_out, c_in, k = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding)))
    out_len = (xp.shape[1] - k) // stride + 1
    out = np.zeros((c_out, out_len))
    for o in range(c_out):
        for j in range(out_len):
            out[o, j] = np.sum(xp[:, j * stride : j * stride + k] * w[o])
    return out


@given(
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    length=st.integers(7, 20),
    k=st.sampled_from([1, 3, 7]),
    stride=st.integers(1, 3),
    padding=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_conv1d_matches_naive_loops(c_in, c_out, length, k, stride, padding, seed):
    if length + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c_in, length))
    w = rng.normal(size=(c_out, c_in, k))
    out = conv1d(t(x), t(w), stride=stride, padding=padding).data
    np.testing.assert_allclose(out, naive_conv(x, w, stride, padding), atol=1e-10)


def test_conv_output_length_examples():
    # k=7, p=3 preserves length at stride 1 and exact division at the stated strides
    assert conv_output_length(2400, 7, 1, 3) == 2400
    assert conv_output_length(2400, 7, 2, 3) == 1200
    assert conv_output_length(2400, 7, 5, 3) == 480
    assert conv_transpose_output_length(100, 7, 3, 3, 2) == 300


@given(
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    length=st.integers(4, 12),
    stride=st.integers(1, 3),
    out_pad=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_conv_transpose_is_adjoint_of_conv(c_in, c_out, length, stride, out_pad, seed):
    """<conv(x), y> == <x, conv_transpose(y)> for matching geometry."""
    if out_pad >= stride:
        return
    k, padding = 7, 3
    rng = np.random.default_rng(seed)
    up_len = conv_transpose_output_length(length, k, stride, padding, out_pad)
    x = rng.normal(size=(c_in, length))
    w = rng.normal(size=(c_in, c_out, k))
    y = rng.normal(size=(c_out, up_len))

    up = conv_transpose1d(t(x), t(w), stride=stride, padding=padding, output_padding=out_pad).data
    lhs = float(np.sum(up * y))
    # <conv_t(x), y> must equal <x, adjoint(y)>, the adjoint taken through autodiff
    xt = t(x)
    out = conv_transpose1d(xt, t(w), stride=stride, padding=padding, output_padding=out_pad)
    (out * Tensor(y, dtype=np.float64)).sum().backward()
    rhs = float(np.sum(x * xt.grad))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_conv_transpose_matches_conv_input_gradient():
    rng = np.random.default_rng(7)
    k, stride, padding = 7, 2, 3
    x = rng.normal(size=(2, 16))
    w = rng.normal(size=(3, 2, k))
    g = rng.normal(size=(3, conv_output_length(16, k, stride, padding)))

    xt = t(x)
    out = conv1d(xt, t(w), stride=stride, padding=padding)
    (out * Tensor(g, dtype=np.float64)).sum().backward()

    # conv weight [c_out, c_in, k] reads as transpose weight [C_in, C_out, k] unchanged
    out_pad = 16 - ((g.shape[1] - 1) * stride - 2 * padding + k)
    up = conv_transpose1d(t(g), t(w), stride=stride, padding=padding, output_padding=out_pad).data
    np.testing.assert_allclose(up, xt.grad, atol=1e-10)


def loop_weight_grad(op, x, g, k, stride, padding):
    """dL/dw of conv1d ([C_out, C_in, k]) or conv_transpose1d ([C_in, C_out, k]) by plain loops."""
    if op == "conv1d":
        xp = np.pad(x, ((0, 0), (padding, padding + k)))
        gw = np.zeros((g.shape[0], x.shape[0], k))
        for o, i, j, t in np.ndindex(g.shape[0], x.shape[0], k, g.shape[1]):
            gw[o, i, j] += g[o, t] * xp[i, t * stride + j]
        return gw
    gw = np.zeros((x.shape[0], g.shape[0], k))
    for i, o, j, t in np.ndindex(x.shape[0], g.shape[0], k, x.shape[1]):
        pos = t * stride + j - padding
        if 0 <= pos < g.shape[1]:
            gw[i, o, j] += x[i, t] * g[o, pos]
    return gw


@pytest.mark.parametrize("op", ["conv1d", "conv_transpose1d"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv_weight_gradient_matches_loops(op, stride, x_grad):
    rng = np.random.default_rng(10 * stride + x_grad)
    k, padding, c_in, c_out, length = 7, 3, 2, 3, 11
    x = rng.normal(size=(c_in, length))
    xt = t(x, grad=x_grad)
    if op == "conv1d":
        wt = t(rng.normal(size=(c_out, c_in, k)))
        out = conv1d(xt, wt, stride=stride, padding=padding)
    else:
        wt = t(rng.normal(size=(c_in, c_out, k)))
        out = conv_transpose1d(xt, wt, stride=stride, padding=padding, output_padding=stride - 1)
    g = rng.normal(size=out.shape)
    (out * Tensor(g, dtype=np.float64)).sum().backward()
    np.testing.assert_allclose(wt.grad, loop_weight_grad(op, x, g, k, stride, padding), atol=1e-10)
    assert (xt.grad is not None) == x_grad


def pad_and_window_im2col(x, k, stride, padding, out_len):
    """The im2col construction _im2col replaced: np.pad plus sliding_window_view."""
    c, length = x.shape
    right = max(0, (out_len - 1) * stride + k - (length + padding))
    xp = np.pad(x, ((0, 0), (padding, right)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride, :]
    return windows[:, :out_len, :].transpose(0, 2, 1).reshape(c * k, out_len)


@pytest.mark.parametrize("op", ["conv1d", "conv_bn_rrelu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_weight_gradient_is_g_times_the_im2col_of_x_bit_for_bit(op, dtype, stride):
    # backward rebuilds the im2col matrix of x instead of keeping the
    # forward's; the weight gradient must be the product with that matrix
    k, padding = 7, 3
    operands, (rm, rv) = block_operands(np.random.default_rng(stride), dtype, False, True)
    x, w, bias, gamma, beta = operands
    out_len = conv_output_length(x.shape[1], k, stride, padding)
    g = np.random.default_rng(5).normal(size=(w.shape[0], out_len)).astype(dtype)
    if op == "conv1d":
        (conv1d(x, w, bias, stride=stride, padding=padding) * Tensor(g, dtype=dtype)).sum().backward()
        gh = g
    else:
        out = conv_bn_rrelu(
            x, w, bias, gamma, beta, rm, rv, stride=stride, padding=padding, mode="train",
            rng=np.random.default_rng(9),
        )
        (out * Tensor(g, dtype=dtype)).sum().backward()
        # the gradient reaching the conv output, from the reference kernels
        # on a leaf holding it
        _, (rm, rv) = block_operands(np.random.default_rng(stride), dtype, False, True)
        h = t(conv1d(x, w, bias, stride=stride, padding=padding).data, dtype)
        tail = rrelu(batch_norm1d(h, gamma, beta, rm, rv), mode="train", rng=np.random.default_rng(9))
        (tail * Tensor(g, dtype=dtype)).sum().backward()
        gh = h.grad
    want = (gh @ pad_and_window_im2col(x.data, k, stride, padding, out_len).T).reshape(w.shape)
    assert w.grad.dtype == dtype and w.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_im2col_matches_pad_and_sliding_window_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    cases = 0
    for c, length, k, stride, padding in np.ndindex(3, 9, 8, 4, 4):
        c, length, k, stride = c + 1, length + 1, k + 1, stride + 1
        if length + 2 * padding < k:
            continue
        conv_len = (length + 2 * padding - k) // stride + 1
        # conv_len: conv1d's output length, and the input length of a
        # conv_transpose1d whose output has `length`; that backward's windows
        # run past the gradient's end into the right padding.  Longer out_lens
        # run further past it.
        for out_len in {1, conv_len, conv_len + 2, length + 3}:
            wide = rng.normal(size=(c, 2 * length)).astype(dtype)
            # contiguous, or strided as an upstream gradient may be
            x = wide[:, ::2] if cases % 2 else np.ascontiguousarray(wide[:, :length])
            got = _im2col(x, k, stride, padding, out_len)
            want = pad_and_window_im2col(x, k, stride, padding, out_len)
            assert got.dtype == dtype and got.shape == want.shape == (c * k, out_len)
            assert got.tobytes() == want.tobytes(), (c, length, k, stride, padding, out_len)
            cases += 1
    assert cases > 3000


def test_conv_shape_errors():
    with pytest.raises(ShapeError):
        conv1d(t(np.zeros((2, 10))), t(np.zeros((3, 1, 7))))
    with pytest.raises(ShapeError):
        conv_transpose1d(t(np.zeros((2, 10))), t(np.zeros((2, 3, 7))), stride=2, output_padding=2)


def bn_state(c, dtype=np.float64):
    return (
        t(np.ones(c), dtype),
        t(np.zeros(c), dtype),
        Tensor(np.zeros(c, dtype=dtype), dtype=dtype),
        Tensor(np.ones(c, dtype=dtype), dtype=dtype),
    )


def test_batch_norm_train_normalizes_with_batch_stats():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(4, 50))
    gamma, beta, rm, rv = bn_state(4)
    out = batch_norm1d(t(x), gamma, beta, rm, rv, mode="train").data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(out.var(axis=1), np.ones(4), atol=1e-4)


def test_batch_norm_running_update_rule():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 20))
    gamma, beta, rm, rv = bn_state(3)
    batch_norm1d(t(x), gamma, beta, rm, rv, momentum=0.1, mode="train")
    n = x.shape[1]
    np.testing.assert_allclose(rm.data, 0.9 * 0 + 0.1 * x.mean(axis=1), atol=1e-12)
    np.testing.assert_allclose(rv.data, 0.9 * 1 + 0.1 * x.var(axis=1) * n / (n - 1), atol=1e-12)


def test_batch_norm_eval_uses_running_stats_and_mutates_nothing():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 10))
    gamma, beta, rm, rv = bn_state(2)
    rm.data[:] = [1.0, -1.0]
    rv.data[:] = [4.0, 9.0]
    before = (rm.data.copy(), rv.data.copy())
    out = batch_norm1d(t(x), gamma, beta, rm, rv, eps=0.0, mode="eval").data
    expected = (x - np.array([[1.0], [-1.0]])) / np.array([[2.0], [3.0]])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_array_equal(rm.data, before[0])
    np.testing.assert_array_equal(rv.data, before[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_output_is_the_textbook_expression_bit_for_bit(dtype, mode):
    rng = np.random.default_rng(6)
    x = rng.normal(1.0, 3.0, size=(5, 37)).astype(dtype)
    gamma, beta, rm, rv = (
        Tensor(rng.uniform(0.5, 2.0, size=5).astype(dtype), requires_grad=i < 2, dtype=dtype) for i in range(4)
    )
    if mode == "train":
        mu, var = x.mean(axis=1), x.var(axis=1)
    else:
        mu, var = rm.data.copy(), rv.data.copy()
    xhat = (x - mu[:, None]) * (1.0 / np.sqrt(var + 1e-5))[:, None]
    out = batch_norm1d(Tensor(x, dtype=dtype), gamma, beta, rm, rv, eps=1e-5, mode=mode)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, gamma.data[:, None] * xhat + beta.data[:, None])
    g = rng.normal(size=x.shape).astype(dtype)
    (out * g).sum().backward()
    np.testing.assert_array_equal(gamma.grad, (g * xhat).sum(axis=1))
    np.testing.assert_array_equal(beta.grad, g.sum(axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_input_gradient_is_the_textbook_expression_bit_for_bit(dtype, mode):
    """Values and memory layout: a gradient's layout sets how later reductions sum it."""
    rng = np.random.default_rng(7)
    x = rng.normal(1.0, 3.0, size=(5, 37)).astype(dtype)
    gamma, beta = (t(rng.uniform(0.5, 2.0, size=5), dtype) for _ in range(2))
    rm, rv = (Tensor(rng.uniform(0.5, 2.0, size=5).astype(dtype), dtype=dtype) for _ in range(2))
    mu, var = (x.mean(axis=1), x.var(axis=1)) if mode == "train" else (rm.data.copy(), rv.data.copy())
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu[:, None]) * inv[:, None]
    xt = t(x, dtype)
    out = batch_norm1d(xt, gamma, beta, rm, rv, eps=1e-5, mode=mode)
    upstream = rng.normal(size=x.shape[::-1]).astype(dtype)
    (out.t() * Tensor(upstream, dtype=dtype)).sum().backward()
    g = upstream.T  # column-major, as a transpose hands it back
    if mode == "train":
        dxhat = g * gamma.data[:, None]
        want = inv[:, None] * (dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    else:
        want = g * (gamma.data * inv)[:, None]
    assert xt.grad.tobytes() == want.tobytes() and xt.grad.strides == want.strides


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rrelu_train_draws_one_slope_per_entry_in_row_major_order(dtype):
    x = np.random.default_rng(1).normal(size=(3, 50)).astype(dtype)
    out = rrelu(t(x, dtype), mode="train", rng=np.random.default_rng(2))
    slopes = np.random.default_rng(2).uniform(1 / 8, 1 / 3, size=x.shape).astype(dtype)
    assert out.data.tobytes() == (x * np.where(x >= 0, dtype(1.0), slopes)).tobytes()


def test_rrelu_eval_slope_is_midpoint():
    x = t([-48.0, 48.0])
    out = rrelu(x, mode="eval")
    np.testing.assert_allclose(out.data, [-48.0 * (11 / 48), 48.0])
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [11 / 48, 1.0])


def special_values(dtype):
    """Signed zeros, infinities, NaNs, the smallest normals and subnormals and the largest
    finite values of dtype, then 500 normal draws."""
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.tiny, -info.tiny,
               info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max]
    return np.concatenate([np.array(special, dtype=dtype), np.random.default_rng(4).normal(size=500).astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bounds", [(1 / 8, 1 / 3), (0.0, 0.999)])
def test_rrelu_eval_is_the_factor_product_bit_for_bit(dtype, bounds):
    x = special_values(dtype)
    slope = dtype(sum(bounds) / 2)
    factor = np.where(x >= 0, dtype(1.0), slope)
    xt = t(x, dtype)
    out = rrelu(xt, *bounds, mode="eval")
    bits = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(out.data.view(bits), (x * factor).view(bits))
    g = np.random.default_rng(5).normal(size=x.shape).astype(dtype)
    (out * g).sum().backward()
    np.testing.assert_array_equal(xt.grad.view(bits), (g * factor).view(bits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_rrelu_factor_is_where_x_is_nonnegative_one_else_the_slope_bit_for_bit(dtype, mode):
    # the factor is built as max(slope, x >= 0); it must be np.where's, NaN,
    # signed zeros, infinities and subnormals included
    x = special_values(dtype)
    rng = np.random.default_rng(2) if mode == "train" else None
    _, factor = kernels._rrelu_tail(x.copy(), 1 / 8, 1 / 3, mode, rng, keep=True)
    if mode == "train":
        slopes = np.random.default_rng(2).uniform(1 / 8, 1 / 3, size=x.shape).astype(dtype)
    else:
        slopes = dtype((1 / 8 + 1 / 3) / 2)
    want = np.where(x >= 0, dtype(1.0), slopes)
    bits = np.uint32 if dtype == np.float32 else np.uint64
    assert factor.dtype == dtype
    np.testing.assert_array_equal(factor.view(bits), want.view(bits))


def test_rrelu_train_slopes_within_bounds_and_reused_in_backward():
    rng = np.random.default_rng(3)
    x = t(-np.ones(2000))
    out = rrelu(x, mode="train", rng=rng)
    slopes = -out.data
    assert slopes.min() >= 1 / 8 and slopes.max() <= 1 / 3
    assert slopes.std() > 0.01  # actually random, not a constant
    out.sum().backward()
    np.testing.assert_allclose(x.grad, slopes, atol=1e-12)


def test_rrelu_train_requires_rng():
    with pytest.raises(ShapeError):
        rrelu(t([-1.0]), mode="train")


def attention_params(rng, d, n_heads, d_ff, dtype=np.float64):
    params = {}
    for key, shape in attention_param_shapes(d, n_heads, d_ff).items():
        if key.endswith("_g"):
            params[key] = t(np.ones(shape), dtype)
        elif key.endswith("_b"):
            params[key] = t(np.zeros(shape), dtype)
        else:
            params[key] = t(rng.normal(0, 0.02, size=shape), dtype)
    return params


def test_attention_shape_and_grad_flow():
    rng = np.random.default_rng(4)
    params = attention_params(rng, d=8, n_heads=2, d_ff=16)
    x = t(rng.normal(size=(5, 8)))
    out = multi_head_self_attention(x, params, n_heads=2)
    assert out.shape == (5, 8)
    out.sum().backward()
    assert x.grad is not None and x.grad.shape == (5, 8)
    for key in ATTENTION_PARAM_KEYS:
        assert params[key].grad is not None, key


def test_attention_floor_head_width():
    rng = np.random.default_rng(5)
    params = attention_params(rng, d=7, n_heads=2, d_ff=8)  # head width 3, context 6
    assert params["q_w"].shape == (7, 6) and params["o_w"].shape == (6, 7)
    out = multi_head_self_attention(t(rng.normal(size=(4, 7))), params, n_heads=2)
    assert out.shape == (4, 7)


def test_attention_param_shapes_follow_the_key_order_and_floor_width():
    shapes = attention_param_shapes(7, 2, 8)  # head width 3, context 6
    assert tuple(shapes) == ATTENTION_PARAM_KEYS
    assert shapes["q_w"] == (7, 6) and shapes["q_b"] == (6,) and shapes["o_w"] == (6, 7)
    assert shapes["ff1_w"] == (7, 8) and shapes["ff2_w"] == (8, 7) and shapes["ln2_g"] == (7,)


def test_attention_rejects_too_many_heads_and_wrong_widths():
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        multi_head_self_attention(t(rng.normal(size=(4, 3))), attention_params(rng, 3, 1, 4), n_heads=5)
    params = attention_params(rng, d=8, n_heads=2, d_ff=16)
    params["q_w"] = t(rng.normal(size=(8, 5)))
    params["q_b"] = t(np.zeros(5))
    with pytest.raises(ShapeError):
        multi_head_self_attention(t(rng.normal(size=(4, 8))), params, n_heads=2)


def block_operands(rng, dtype, transposed, x_grad, c_in=3, c_out=4, length=20, k=7):
    x = t(rng.normal(size=(c_in, length)), dtype, grad=x_grad)
    w = t(rng.normal(size=(c_in, c_out, k) if transposed else (c_out, c_in, k)), dtype)
    bias, gamma, beta = (t(rng.normal(size=c_out), dtype) for _ in range(3))
    running = (
        Tensor(rng.normal(size=c_out).astype(dtype), dtype=dtype),
        Tensor(rng.uniform(0.5, 2.0, size=c_out).astype(dtype), dtype=dtype),
    )
    return [x, w, bias, gamma, beta], running


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv_bn_rrelu_is_the_three_kernels_bit_for_bit(dtype, mode, stride, transposed, x_grad):
    k, padding, op = 7, 3, (stride - 1 if transposed else 0)
    results = []
    for fused in (True, False):
        operands, (rm, rv) = block_operands(np.random.default_rng(stride), dtype, transposed, x_grad)
        x, w, bias, gamma, beta = operands
        rng = np.random.default_rng(9)
        if fused:
            out = conv_bn_rrelu(
                x, w, bias, gamma, beta, rm, rv, stride=stride, padding=padding,
                transposed=transposed, output_padding=op, mode=mode, rng=rng,
            )
        else:
            if transposed:
                h = conv_transpose1d(x, w, bias, stride=stride, padding=padding, output_padding=op)
            else:
                h = conv1d(x, w, bias, stride=stride, padding=padding)
            out = rrelu(batch_norm1d(h, gamma, beta, rm, rv, mode=mode), mode=mode, rng=rng)
        g = np.random.default_rng(4).normal(size=out.shape[::-1]).astype(dtype)
        # the upstream gradient arrives transposed, in column-major layout, as
        # the last encoder block's does through the bottleneck
        (out.t() * Tensor(g, dtype=dtype)).sum().backward()
        results.append((out.data, rm.data, rv.data, rng.bit_generator.state, [p.grad for p in operands]))
    (out_f, rm_f, rv_f, state_f, grads_f), (out_r, rm_r, rv_r, state_r, grads_r) = results
    assert out_f.dtype == dtype and out_f.tobytes() == out_r.tobytes()
    assert rm_f.tobytes() == rm_r.tobytes() and rv_f.tobytes() == rv_r.tobytes()
    assert state_f == state_r
    assert (grads_f[0] is None) == (not x_grad)
    for gf, gr in zip(grads_f, grads_r):
        assert (gf is None and gr is None) or gf.tobytes() == gr.tobytes()


def test_conv_bn_rrelu_eval_without_a_graph_matches_and_keeps_nothing():
    operands, (rm, rv) = block_operands(np.random.default_rng(0), np.float32, True, True)
    x, w, bias, gamma, beta = operands
    kwargs = dict(stride=2, padding=3, output_padding=1)
    from respox.tensor import no_grad

    with no_grad():
        fused = conv_bn_rrelu(*operands, rm, rv, transposed=True, **kwargs)
    want = rrelu(batch_norm1d(conv_transpose1d(x, w, bias, **kwargs), gamma, beta, rm, rv, mode="eval"))
    assert fused._grad_fn is None and not fused.requires_grad
    assert fused.data.tobytes() == want.data.tobytes()


def composite_attention(x, params, n_heads):
    """The attention block as 34 tensor ops: the reference for the one-node kernel."""
    d_head = x.shape[1] // n_heads
    scale = 1.0 / float(np.sqrt(d_head))
    q = matmul(x, params["q_w"]) + params["q_b"]
    k = matmul(x, params["k_w"]) + params["k_b"]
    v = matmul(x, params["v_w"]) + params["v_b"]
    contexts = []
    for h in range(n_heads):
        qh = q.narrow(1, h * d_head, d_head)
        kh = k.narrow(1, h * d_head, d_head)
        vh = v.narrow(1, h * d_head, d_head)
        attn = softmax(matmul(qh, kh.t()) * scale, axis=1)
        contexts.append(matmul(attn, vh))
    ctx = contexts[0] if n_heads == 1 else concat(contexts, axis=1)
    attn_out = matmul(ctx, params["o_w"]) + params["o_b"]
    h1 = layer_norm(x + attn_out, params["ln1_g"], params["ln1_b"])
    ff = matmul(gelu(matmul(h1, params["ff1_w"]) + params["ff1_b"]), params["ff2_w"]) + params["ff2_b"]
    return layer_norm(h1 + ff, params["ln2_g"], params["ln2_b"])


def random_attention_params(rng, d, n_heads, d_ff, dtype):
    params = {}
    for key, shape in attention_param_shapes(d, n_heads, d_ff).items():
        lo, hi = (0.5, 1.5) if key.endswith("_g") else (-0.5, 0.5)
        params[key] = t(rng.uniform(lo, hi, size=shape), dtype)
    return params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "length, d, n_heads, d_ff",
    [(10, 4, 2, 8), (100, 256, 6, 512), (10, 10, 3, 20), (7, 8, 1, 16)],
    ids=["micro", "full-width", "heads-do-not-divide", "one-head"],
)
def test_attention_is_the_composite_bit_for_bit(dtype, length, d, n_heads, d_ff):
    results = []
    for attention in (multi_head_self_attention, composite_attention):
        rng = np.random.default_rng(length + d)
        x = t(rng.normal(size=(length, d)), dtype)
        params = random_attention_params(rng, d, n_heads, d_ff, dtype)
        out = attention(x, params, n_heads)
        g = rng.normal(size=(d, length)).astype(dtype)
        # a transposed upstream gradient, as the bottleneck's last layer receives
        (out.t() * Tensor(g, dtype=dtype)).sum().backward()
        results.append([out.data, x.grad] + [params[key].grad for key in ATTENTION_PARAM_KEYS])
    fused, composite = results
    assert len(fused) == 18 and fused[0].dtype == dtype
    for name, a, b in zip(["out", "x"] + list(ATTENTION_PARAM_KEYS), fused, composite):
        assert a.tobytes() == b.tobytes(), name


def test_attention_adds_one_graph_node_and_keeps_none_without_a_graph():
    from respox.tensor import no_grad

    rng = np.random.default_rng(8)
    params = random_attention_params(rng, 8, 2, 16, np.float64)
    x = t(rng.normal(size=(5, 8)))
    out = multi_head_self_attention(x, params, n_heads=2)
    assert [n for n in _toposort(out) if n._grad_fn is not None] == [out]
    assert out._parents[0] is x and len(out._parents) == 17
    with no_grad():
        bare = multi_head_self_attention(x, params, n_heads=2)
    assert bare._grad_fn is None and bare.data.tobytes() == out.data.tobytes()


def arrays_kept_for_backward(node):
    """Every array the node's backward can reach through its closures, views' bases included."""
    kept, seen, stack = [], set(), [node._grad_fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            kept.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not assigned yet
                    pass
    return kept


@pytest.mark.parametrize("transposed", [False, True])
def test_conv_bn_rrelu_keeps_no_im2col_matrix_for_backward(transposed):
    c_in, k, stride, padding = 16, 5, 1, 2
    operands, (rm, rv) = block_operands(np.random.default_rng(1), np.float64, transposed, True, c_in, 3, 60, k)
    out = conv_bn_rrelu(
        *operands, rm, rv, stride=stride, padding=padding, transposed=transposed, mode="train",
        rng=np.random.default_rng(2),
    )
    im2col_size = c_in * k * out.shape[1]
    kept = arrays_kept_for_backward(out)
    assert any(a is operands[0].data for a in kept)  # x itself
    assert max(a.size for a in kept) < im2col_size


def test_attention_keeps_no_per_head_probabilities_for_backward():
    length, d, n_heads = 48, 8, 2
    rng = np.random.default_rng(3)
    params = random_attention_params(rng, d, n_heads, 16, np.float64)
    x = t(rng.normal(size=(length, d)))
    out = multi_head_self_attention(x, params, n_heads)
    kept = arrays_kept_for_backward(out)
    assert any(a.shape == (n_heads, length, d // n_heads) for a in kept)  # q and v
    assert max(a.size for a in kept) < length * length


def per_tap_scatter(x, w, stride, padding, out_len):
    """_scatter as one GEMM per kernel tap: the order of adds the tiled GEMM keeps."""
    c_in, length = x.shape
    _, c_out, k = w.shape
    span = (length - 1) * stride + 1
    full_len = max((length - 1) * stride + k, padding + out_len)
    full = np.zeros((c_out, full_len), dtype=x.dtype)
    for j in range(k):
        full[:, j : j + span : stride] += w[:, :, j].T @ x
    return full[:, padding : padding + out_len]


@functools.lru_cache(maxsize=None)
def model_conv_calls(scale):
    """{"_scatter": calls, "_gather": calls}: (x shape, w shape, stride, padding, out_len)
    of every call of each in one train step of the varaug and cnn variants: nights of
    48 and 240 s at micro and tiny scale, 240 s at full scale."""
    calls = {"_scatter": set(), "_gather": set()}
    cores = {name: getattr(kernels, name) for name in calls}

    def recorder(name):
        def record(x, w, stride, padding, out_len):
            calls[name].add((x.shape, w.shape, stride, padding, out_len))
            return cores[name](x, w, stride, padding, out_len)

        return record

    for name in calls:
        setattr(kernels, name, recorder(name))
    try:
        for variant in ("varaug", "cnn"):
            config = ModelConfig(variant=variant) if scale == "full" else tiny_model_config(scale, variant)
            params = model.build_model(config, seed=0)
            for seconds in (240,) if scale == "full" else (48, 240):
                night = np.random.default_rng(0).normal(size=(model.input_channels(config), 10 * seconds))
                x = t(night, np.float32, grad=False)
                pred = model.forward(params, config, x, v=0, mode="train", rng=np.random.default_rng(0))
                total = pred.y_hat.sum() if pred.u_logits is None else pred.y_hat.sum() + pred.u_logits.sum()
                total.backward()
    finally:
        for name, core in cores.items():
            setattr(kernels, name, core)
    return {name: sorted(found) for name, found in calls.items()}


def scatter_operands(rng, x_shape, w_shape, dtype, order):
    x = np.asarray(rng.normal(size=x_shape), dtype=dtype, order=order)
    return x, rng.normal(size=w_shape).astype(dtype)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", ["micro", "tiny", "full"])
def test_scatter_is_the_per_tap_sum_bit_for_bit(scale, dtype, order):
    # the deconv forward and conv1d's input gradient at every layer of the
    # model, with upstream gradients in either layout
    rng = np.random.default_rng(0)
    calls = model_conv_calls(scale)["_scatter"]
    assert len(calls) > 10
    for x_shape, w_shape, stride, padding, out_len in calls:
        x, w = scatter_operands(rng, x_shape, w_shape, dtype, order)
        got = _scatter(x, w, stride, padding, out_len)
        want = per_tap_scatter(x, w, stride, padding, out_len)
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), (x_shape, w_shape, stride)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_scatter_over_several_column_blocks_is_the_per_tap_sum(stride, dtype, order):
    # each length takes a different split into column blocks; 28,800 columns
    # is the first decoder layers' width on an 8 h night
    rng = np.random.default_rng(stride)
    k, padding = 7, 3
    for c_in, c_out in ((4, 4), (128, 64)):
        for length in (SCATTER_COLUMNS - 1, SCATTER_COLUMNS + 1, 2 * SCATTER_COLUMNS + 3, 28_800):
            x, w = scatter_operands(rng, (c_in, length), (c_in, c_out, k), dtype, order)
            out_len = conv_transpose_output_length(length, k, stride, padding, stride - 1)
            got = _scatter(x, w, stride, padding, out_len)
            want = per_tap_scatter(x, w, stride, padding, out_len)
            if dtype == np.float32:
                assert got.tobytes() == want.tobytes(), (c_in, length)
            else:
                # OpenBLAS's dgemm rounds the columns past its last full tile by
                # the row's place in the GEMM, so one GEMM over every tap can
                # differ there from one GEMM per tap; the order of adds is
                # pinned by the float32 cases
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("transposed", [False, True])
def test_conv_bn_rrelu_over_several_column_blocks_matches_the_per_tap_scatter(transposed, monkeypatch):
    # the deconv block's forward and the conv block's input gradient, each
    # over more than one column block
    stride = 2
    length = SCATTER_COLUMNS + 1 if transposed else 2 * SCATTER_COLUMNS + 3
    results = []
    for scatter in (_scatter, per_tap_scatter):
        monkeypatch.setattr(kernels, "_scatter", scatter)
        operands, (rm, rv) = block_operands(np.random.default_rng(1), np.float32, transposed, True, length=length)
        out = conv_bn_rrelu(
            *operands, rm, rv, stride=stride, padding=3, transposed=transposed,
            output_padding=stride - 1 if transposed else 0, mode="train", rng=np.random.default_rng(2),
        )
        g = np.random.default_rng(3).normal(size=out.shape).astype(np.float32)
        (out * Tensor(g, dtype=np.float32)).sum().backward()
        results.append([out.data] + [p.grad for p in operands])
    scattered = operands[0] if transposed else out  # what _scatter multiplies
    assert scattered.shape[1] > SCATTER_COLUMNS
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_scatter_holds_one_column_block_at_a_time():
    # 128 -> 64 channels over an 8 h night's 28,800 columns: the output buffer
    # and one [64*7, width] block of taps, not the [64*7, 28,800] product
    c_in, c_out, k, length = 128, 64, 7, 28_800
    rng = np.random.default_rng(0)
    x, w = scatter_operands(rng, (c_in, length), (c_in, c_out, k), np.float32, "C")
    width = -(-length // -(-length // SCATTER_COLUMNS))
    assert width < length
    full_bytes = c_out * (length - 1 + k) * 4
    block_bytes = c_out * k * width * 4
    tracemalloc.start()
    try:
        _scatter(x, w, 1, 3, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_bytes + block_bytes + (1 << 20)


def im2col_product(x, w, stride, padding, out_len):
    """_gather as one GEMM over the whole im2col matrix: the product whose bits it keeps."""
    return w.reshape(w.shape[0], -1) @ _im2col(x, w.shape[2], stride, padding, out_len)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", ["micro", "tiny", "full"])
def test_gather_is_the_im2col_product_bit_for_bit(scale, dtype):
    # the conv1d forward at every layer of the model
    rng = np.random.default_rng(0)
    calls = model_conv_calls(scale)["_gather"]
    assert len(calls) > 10
    for x_shape, w_shape, stride, padding, out_len in calls:
        x, w = (rng.normal(size=shape).astype(dtype) for shape in (x_shape, w_shape))
        got = _gather(x, w, stride, padding, out_len)
        want = im2col_product(x, w, stride, padding, out_len)
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), (x_shape, w_shape, stride)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 5])
def test_gather_over_several_column_blocks_is_the_im2col_product(stride, dtype):
    # each output length takes a different split into column blocks; 28,800
    # columns is the encoder's third layer on an 8 h night.  The 1x1
    # projection to 3 channels is the stage head's, whose blocked GEMMs would
    # round differently on a 7,440 s night: it runs as one GEMM
    rng = np.random.default_rng(stride)
    for c_out, c_in, k, padding in ((4, 4, 7, 3), (128, 64, 7, 3), (3, 64, 1, 0)):
        for out_len in (SCATTER_COLUMNS - 1, SCATTER_COLUMNS + 1, 2 * SCATTER_COLUMNS + 3, 7_440, 28_800):
            length = (out_len - 1) * stride + k - 2 * padding
            x, w = (rng.normal(size=shape).astype(dtype) for shape in ((c_in, length), (c_out, c_in, k)))
            got = _gather(x, w, stride, padding, out_len)
            want = im2col_product(x, w, stride, padding, out_len)
            assert got.shape == (c_out, conv_output_length(length, k, stride, padding))
            if dtype == np.float32:
                assert got.tobytes() == want.tobytes(), (c_out, out_len)
            else:
                # dgemm rounds the columns past its last full tile by their
                # place in the GEMM (see the _scatter case above)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("op", ["conv1d", "conv_bn_rrelu"])
def test_conv1d_over_several_column_blocks_matches_the_im2col_product(op, monkeypatch):
    # conv1d and the conv block, forward and every gradient, each over more
    # than one column block of the output
    stride, length = 2, 2 * (2 * SCATTER_COLUMNS + 3)
    results = []
    for gather in (_gather, im2col_product):
        monkeypatch.setattr(kernels, "_gather", gather)
        operands, (rm, rv) = block_operands(np.random.default_rng(1), np.float32, False, True, length=length)
        if op == "conv1d":
            out = conv1d(*operands[:3], stride=stride, padding=3)
        else:
            out = conv_bn_rrelu(*operands, rm, rv, stride=stride, padding=3, mode="train", rng=np.random.default_rng(2))
        g = np.random.default_rng(3).normal(size=out.shape).astype(np.float32)
        (out * Tensor(g, dtype=np.float32)).sum().backward()
        results.append([out.data] + [p.grad for p in operands if p.grad is not None])
    assert out.shape[1] > 2 * SCATTER_COLUMNS
    assert len(results[0]) == len(results[1]) > 1
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_conv1d_forward_holds_no_im2col_matrix():
    # 64 -> 64 channels, k = 7, over an 8 h night's 28,800 columns: the padded
    # input, the output and one block of windows, not the [64*7, 28,800] matrix
    c_in, c_out, k, length = 64, 64, 7, 28_800
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(c_in, length)), np.float32, grad=False)
    w = t(rng.normal(size=(c_out, c_in, k)), np.float32, grad=False)
    im2col_bytes = c_in * k * length * 4
    tracemalloc.start()
    try:
        out = conv1d(x, w, padding=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (c_out, length)
    assert peak < im2col_bytes
