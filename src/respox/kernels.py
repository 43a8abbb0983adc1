"""Differentiable 1-D network kernels.

Everything operates in channels-first layout: signals are [C, L], conv
weights are [C_out, C_in, k], transposed-conv weights are [C_in, C_out, k].
conv1d is cross-correlation (no kernel flip); conv_transpose1d is its exact
adjoint, so the pair shares scatter/gather cores and never disagrees.
Both directions of both kernels run through one im2col core plus BLAS
GEMMs: conv1d's forward and weight gradient multiply the im2col matrix of
x, and conv_transpose1d's backward builds the im2col matrix of the
upstream gradient once for both its input and weight gradients.  The
remaining direction of each (conv1d's input gradient, conv_transpose1d's
forward) scatters one GEMM per kernel tap.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _from_op,
    concat,
    gelu,
    layer_norm,
    matmul,
    softmax,
)

__all__ = [
    "conv1d",
    "conv_transpose1d",
    "conv_output_length",
    "conv_transpose_output_length",
    "batch_norm1d",
    "rrelu",
    "RRELU_LOWER",
    "RRELU_UPPER",
    "multi_head_self_attention",
    "ATTENTION_PARAM_KEYS",
    "attention_param_shapes",
]

RRELU_LOWER = 1.0 / 8.0
RRELU_UPPER = 1.0 / 3.0


def conv_output_length(length: int, kernel: int, stride: int, padding: int) -> int:
    if length + 2 * padding < kernel:
        raise ShapeError(
            f"conv input length {length} with padding {padding} is shorter than kernel {kernel}"
        )
    return (length + 2 * padding - kernel) // stride + 1


def conv_transpose_output_length(
    length: int, kernel: int, stride: int, padding: int, output_padding: int = 0
) -> int:
    out = (length - 1) * stride - 2 * padding + kernel + output_padding
    if out < 1:
        raise ShapeError(f"conv_transpose output length {out} is not positive")
    return out


def _check_conv_args(stride: int, padding: int) -> None:
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, out_len: int) -> np.ndarray:
    """The [C*k, out_len] im2col matrix: cols[i*k + j, t] = x_padded[i, t*stride + j]."""
    c, length = x.shape
    needed = (out_len - 1) * stride + k
    right = max(0, needed - (length + padding))
    xp = np.pad(x, ((0, 0), (padding, right)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride, :]
    return windows[:, :out_len, :].transpose(0, 2, 1).reshape(c * k, out_len)


def _scatter(x: np.ndarray, w: np.ndarray, stride: int, padding: int, out_len: int) -> np.ndarray:
    """out[o, t*stride + j - padding] += sum_i x[i, t] * w[i, o, j]."""
    c_in, length = x.shape
    _, c_out, k = w.shape
    span = (length - 1) * stride + 1
    full_len = max((length - 1) * stride + k, padding + out_len)
    full = np.zeros((c_out, full_len), dtype=x.dtype)
    for j in range(k):
        full[:, j : j + span : stride] += w[:, :, j].T @ x
    return full[:, padding : padding + out_len]


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Strided 1-D cross-correlation: [C_in, L] -> [C_out, L_out]."""
    _check_conv_args(stride, padding)
    if x.ndim != 2 or weight.ndim != 3:
        raise ShapeError(f"conv1d expects x [C_in, L] and weight [C_out, C_in, k], got {x.shape}, {weight.shape}")
    c_in, length = x.shape
    c_out, w_in, k = weight.shape
    if w_in != c_in:
        raise ShapeError(f"conv1d channel mismatch: x has {c_in}, weight expects {w_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv1d bias must have shape ({c_out},), got {bias.shape}")
    out_len = conv_output_length(length, k, stride, padding)
    wd = weight.data
    cols = _im2col(x.data, k, stride, padding, out_len)
    out = wd.reshape(c_out, c_in * k) @ cols
    if bias is not None:
        out = out + bias.data[:, None]

    def grad_fn(g):
        gx = _scatter(g, wd, stride, padding, length) if x.requires_grad else None
        gw = (g @ cols.T).reshape(wd.shape) if weight.requires_grad else None
        if bias is None:
            return gx, gw
        gb = g.sum(axis=1) if bias.requires_grad else None
        return gx, gw, gb

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, parents, grad_fn)


def conv_transpose1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Adjoint of conv1d: [C_in, L] -> [C_out, (L-1)*stride - 2*padding + k + output_padding]."""
    _check_conv_args(stride, padding)
    if not 0 <= output_padding < max(stride, 1):
        raise ShapeError(f"output_padding {output_padding} must lie in [0, stride)")
    if x.ndim != 2 or weight.ndim != 3:
        raise ShapeError(
            f"conv_transpose1d expects x [C_in, L] and weight [C_in, C_out, k], got {x.shape}, {weight.shape}"
        )
    c_in, length = x.shape
    w_in, c_out, k = weight.shape
    if w_in != c_in:
        raise ShapeError(f"conv_transpose1d channel mismatch: x has {c_in}, weight expects {w_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv_transpose1d bias must have shape ({c_out},), got {bias.shape}")
    out_len = conv_transpose_output_length(length, k, stride, padding, output_padding)
    out = _scatter(x.data, weight.data, stride, padding, out_len)
    if bias is not None:
        out = out + bias.data[:, None]
    wd = weight.data
    xd = x.data

    def grad_fn(g):
        # g's im2col feeds both products: gx correlates g with the same weight,
        # its axes read as [out=C_in, in=C_out, k].
        cols = _im2col(g, k, stride, padding, length)
        gx = wd.reshape(c_in, c_out * k) @ cols if x.requires_grad else None
        gw = (xd @ cols.T).reshape(wd.shape) if weight.requires_grad else None
        if bias is None:
            return gx, gw
        gb = g.sum(axis=1) if bias.requires_grad else None
        return gx, gw, gb

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, parents, grad_fn)


def batch_norm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    eps: float = 1e-5,
    momentum: float = 0.1,
    mode: str = "train",
) -> Tensor:
    """Per-channel normalization of [C, L] over the time axis.

    Train mode normalizes with biased batch statistics and folds them into
    the running estimates in place (unbiased variance, n/(n-1)); eval mode
    normalizes with the running estimates and touches nothing.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"batch_norm1d mode must be train or eval, got {mode!r}")
    if x.ndim != 2:
        raise ShapeError(f"batch_norm1d expects [C, L], got {x.shape}")
    c, length = x.shape
    if length < 1:
        raise ShapeError("batch_norm1d needs at least one sample per channel")
    for name, t in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean), ("running_var", running_var)):
        if t.shape != (c,):
            raise ShapeError(f"batch_norm1d {name} must have shape ({c},), got {t.shape}")
    xd = x.data
    if mode == "train":
        mu = xd.mean(axis=1)
        var = xd.var(axis=1)
        unbiased = var * (length / (length - 1)) if length > 1 else var
        running_mean.data[...] = (1.0 - momentum) * running_mean.data + momentum * mu
        running_var.data[...] = (1.0 - momentum) * running_var.data + momentum * unbiased
    else:
        mu = running_mean.data
        var = running_var.data
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[:, None]) * inv[:, None]
    out = gamma.data[:, None] * xhat + beta.data[:, None]
    gd = gamma.data

    if mode == "train":

        def grad_fn(g):
            gx = None
            if x.requires_grad:
                dxhat = g * gd[:, None]
                gx = inv[:, None] * (
                    dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
                )
            ggamma = (g * xhat).sum(axis=1) if gamma.requires_grad else None
            gbeta = g.sum(axis=1) if beta.requires_grad else None
            return gx, ggamma, gbeta

    else:

        def grad_fn(g):
            gx = g * (gd * inv)[:, None] if x.requires_grad else None
            ggamma = (g * xhat).sum(axis=1) if gamma.requires_grad else None
            gbeta = g.sum(axis=1) if beta.requires_grad else None
            return gx, ggamma, gbeta

    return _from_op(out, (x, gamma, beta), grad_fn)


def rrelu(
    x: Tensor,
    lower: float = RRELU_LOWER,
    upper: float = RRELU_UPPER,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Randomized leaky ReLU.

    Train mode draws one slope per negative entry from U[lower, upper] and
    reuses the drawn slopes in backward; eval mode uses the fixed slope
    (lower + upper) / 2.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"rrelu mode must be train or eval, got {mode!r}")
    if not (0.0 <= lower <= upper < 1.0):
        raise ShapeError(f"rrelu bounds must satisfy 0 <= lower <= upper < 1, got ({lower}, {upper})")
    xd = x.data
    if mode == "train":
        if rng is None:
            raise ShapeError("rrelu train mode requires an rng")
        slopes = rng.uniform(lower, upper, size=xd.shape).astype(xd.dtype)
    else:
        slopes = xd.dtype.type((lower + upper) / 2.0)
    factor = np.where(xd >= 0, xd.dtype.type(1.0), slopes)
    out = xd * factor

    def grad_fn(g):
        return (g * factor,)

    return _from_op(out, (x,), grad_fn)


ATTENTION_PARAM_KEYS = (
    "q_w", "q_b", "k_w", "k_b", "v_w", "v_b", "o_w", "o_b",
    "ln1_g", "ln1_b", "ff1_w", "ff1_b", "ff2_w", "ff2_b", "ln2_g", "ln2_b",
)


def attention_param_shapes(d: int, n_heads: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    """Shape of each multi_head_self_attention parameter, in ATTENTION_PARAM_KEYS order."""
    a = n_heads * (d // n_heads)
    return {
        "q_w": (d, a), "q_b": (a,), "k_w": (d, a), "k_b": (a,), "v_w": (d, a), "v_b": (a,),
        "o_w": (a, d), "o_b": (d,), "ln1_g": (d,), "ln1_b": (d,),
        "ff1_w": (d, d_ff), "ff1_b": (d_ff,), "ff2_w": (d_ff, d), "ff2_b": (d,),
        "ln2_g": (d,), "ln2_b": (d,),
    }


def multi_head_self_attention(
    x: Tensor,
    params: dict[str, Tensor],
    n_heads: int,
    mode: str = "eval",
) -> Tensor:
    """One post-norm transformer encoder block on [L, d] token rows.

    Self-attention -> residual add -> layer norm -> GELU feed-forward ->
    residual add -> layer norm.  Weights are [d_in, d_out]; `mode` is
    accepted for interface symmetry (the block has no stochastic parts).

    Head width is floor(d / n_heads), so Q/K/V projections map d to
    n_heads * head_width columns and the output projection maps back to d.
    When n_heads divides d that is the usual square layout; otherwise the
    concatenated context is slightly narrower than d.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"attention mode must be train or eval, got {mode!r}")
    if x.ndim != 2:
        raise ShapeError(f"attention expects [L, d] tokens, got {x.shape}")
    length, d = x.shape
    if n_heads < 1 or d // n_heads < 1:
        raise ShapeError(f"model width {d} cannot host {n_heads} heads")
    missing = [key for key in ATTENTION_PARAM_KEYS if key not in params]
    if missing:
        raise ShapeError(f"attention params missing {missing}")
    d_head = d // n_heads
    scale = 1.0 / float(np.sqrt(d_head))

    q = matmul(x, params["q_w"]) + params["q_b"]
    k = matmul(x, params["k_w"]) + params["k_b"]
    v = matmul(x, params["v_w"]) + params["v_b"]
    all_head = n_heads * d_head
    if q.shape[1] != all_head or k.shape[1] != all_head or v.shape[1] != all_head:
        raise ShapeError(
            f"q/k/v projections must be {all_head} wide for {n_heads} heads of {d_head},"
            f" got {q.shape[1]}/{k.shape[1]}/{v.shape[1]}"
        )

    contexts = []
    for h in range(n_heads):
        qh = q.narrow(1, h * d_head, d_head)
        kh = k.narrow(1, h * d_head, d_head)
        vh = v.narrow(1, h * d_head, d_head)
        scores = matmul(qh, kh.t()) * scale
        attn = softmax(scores, axis=1)
        contexts.append(matmul(attn, vh))
    ctx = contexts[0] if n_heads == 1 else concat(contexts, axis=1)

    attn_out = matmul(ctx, params["o_w"]) + params["o_b"]
    h1 = layer_norm(x + attn_out, params["ln1_g"], params["ln1_b"])
    ff = matmul(gelu(matmul(h1, params["ff1_w"]) + params["ff1_b"]), params["ff2_w"]) + params["ff2_b"]
    return layer_norm(h1 + ff, params["ln2_g"], params["ln2_b"])
