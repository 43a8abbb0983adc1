import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox.kernels import (
    ATTENTION_PARAM_KEYS,
    attention_param_shapes,
    batch_norm1d,
    conv1d,
    conv_output_length,
    conv_transpose1d,
    conv_transpose_output_length,
    multi_head_self_attention,
    rrelu,
)
from respox.tensor import ShapeError, Tensor


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


def test_rrelu_eval_slope_is_midpoint():
    x = t([-48.0, 48.0])
    out = rrelu(x, mode="eval")
    np.testing.assert_allclose(out.data, [-48.0 * (11 / 48), 48.0])
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [11 / 48, 1.0])


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
    d_head = d // n_heads
    all_head = n_heads * d_head
    shapes = {
        "q_w": (d, all_head), "k_w": (d, all_head), "v_w": (d, all_head), "o_w": (all_head, d),
        "q_b": (all_head,), "k_b": (all_head,), "v_b": (all_head,), "o_b": (d,),
        "ln1_g": (d,), "ln1_b": (d,), "ff1_w": (d, d_ff), "ff1_b": (d_ff,),
        "ff2_w": (d_ff, d), "ff2_b": (d,), "ln2_g": (d,), "ln2_b": (d,),
    }
    params = {}
    for key, shape in shapes.items():
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
    params = attention_params(np.random.default_rng(0), d=7, n_heads=2, d_ff=8)
    assert {key: p.shape for key, p in params.items()} == shapes


def test_attention_rejects_too_many_heads_and_wrong_widths():
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        multi_head_self_attention(t(rng.normal(size=(4, 3))), attention_params(rng, 3, 1, 4), n_heads=5)
    params = attention_params(rng, d=8, n_heads=2, d_ff=16)
    params["q_w"] = t(rng.normal(size=(8, 5)))
    params["q_b"] = t(np.zeros(5))
    with pytest.raises(ShapeError):
        multi_head_self_attention(t(rng.normal(size=(4, 8))), params, n_heads=2)


def test_attention_deterministic_between_modes():
    rng = np.random.default_rng(8)
    params = attention_params(rng, d=6, n_heads=3, d_ff=12)
    x = t(rng.normal(size=(5, 6)))
    a = multi_head_self_attention(x, params, n_heads=3, mode="train").data
    b = multi_head_self_attention(x, params, n_heads=3, mode="eval").data
    np.testing.assert_array_equal(a, b)
