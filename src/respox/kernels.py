"""Differentiable 1-D network kernels.

Everything operates in channels-first layout: signals are [C, L], conv
weights are [C_out, C_in, k], transposed-conv weights are [C_in, C_out, k].
conv1d is cross-correlation (no kernel flip); conv_transpose1d is its exact
adjoint, so the pair shares scatter/gather cores and never disagrees.
Both directions of both kernels run through one strided window view of
the padded input plus BLAS GEMMs, tiled into blocks of at most
SCATTER_COLUMNS columns.  conv1d's forward is a gather: each block of
output columns copies its windows into one reused buffer and takes one
GEMM, so the whole [C_in*k, L_out] im2col matrix never exists.
conv_transpose1d's forward and conv1d's input gradient are a scatter: one
GEMM per block of input columns yields every kernel tap of the block, and
k strided adds place the taps.  The two backward products that reduce over
columns keep the whole im2col matrix, so their sums keep one order:
conv1d's weight gradient, and conv_transpose1d's backward, which builds
the matrix of the upstream gradient once for both its gradients.

The network's layers are two fused kernels, each one graph node that runs
the numpy operations of the composition it replaces, in the same order, so
outputs, running statistics, rrelu draws and gradients match it bit for bit.
Backward keeps inputs, statistics and activation terms, and rebuilds with
the forward's operations anything larger than the input:

- conv_bn_rrelu: conv1d (or conv_transpose1d), batch_norm1d, rrelu.  Keeps
  x, xhat, the per-channel 1/sqrt(var + eps) and the rrelu factor; rebuilds
  conv1d's [C_in*k, L_out] im2col matrix of x.
- multi_head_self_attention: a post-norm transformer encoder block.  Keeps
  the per-head q, k and v, both layer norms' xhat and 1/sqrt(var + eps), and
  the GELU input and tanh; rebuilds each head's [L, L] probabilities and
  context, the first layer norm's output and the GELU output.

conv1d, conv_transpose1d, batch_norm1d and rrelu are the references the fused
block is checked against; the decoders' 1x1 projections use conv1d.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _builds_graph,
    _centre,
    _from_op,
    _gelu_slope,
    _gelu_tanh,
    _gelu_value,
    _layer_norm_backward,
    _layer_norm_forward,
    _unnormalize_grad,
)

__all__ = [
    "conv1d",
    "conv_transpose1d",
    "conv_output_length",
    "conv_transpose_output_length",
    "batch_norm1d",
    "rrelu",
    "conv_bn_rrelu",
    "RRELU_LOWER",
    "RRELU_UPPER",
    "multi_head_self_attention",
    "ATTENTION_PARAM_KEYS",
    "attention_param_shapes",
]

RRELU_LOWER = 1.0 / 8.0
RRELU_UPPER = 1.0 / 3.0
LAYER_NORM_EPS = 1e-12
SCATTER_COLUMNS = 4096  # columns per _scatter or _gather GEMM


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


def _windows(x: np.ndarray, k: int, stride: int, padding: int, out_len: int) -> np.ndarray:
    """The [C, k, out_len] view windows[i, j, t] = x_padded[i, t*stride + j] of a padded copy of x."""
    c, length = x.shape
    xp = np.zeros((c, max(padding + length, (out_len - 1) * stride + k)), dtype=x.dtype)
    xp[:, padding : padding + length] = x
    s0, s1 = xp.strides
    return np.ndarray((c, k, out_len), xp.dtype, xp, 0, (s0, s1, stride * s1))


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, out_len: int) -> np.ndarray:
    """The [C*k, out_len] im2col matrix: cols[i*k + j, t] = x_padded[i, t*stride + j]."""
    return _windows(x, k, stride, padding, out_len).reshape(x.shape[0] * k, out_len)


def _column_blocks(length: int) -> tuple[range, int]:
    """(starts, width) of the fewest blocks of at most SCATTER_COLUMNS columns that cover
    range(length), balanced so that no block is a one-column tail."""
    blocks = max(1, -(-length // SCATTER_COLUMNS))
    width = max(1, -(-length // blocks))
    return range(0, length, width), width


def _gather(x: np.ndarray, w: np.ndarray, stride: int, padding: int, out_len: int) -> np.ndarray:
    """out[o, t] = sum_{i,j} w[o, i, j] * x_padded[i, t*stride + j]: conv1d without bias.

    The product w.reshape(c_out, c_in*k) @ _im2col(x, ...), one block of at
    most SCATTER_COLUMNS output columns at a time: each block's windows are
    copied into one reused buffer and one GEMM writes the block's columns.
    The blocks are _scatter's balanced ones, so no [c_in*k, out_len] matrix
    exists: 51.6 MB for the 64-channel k = 7 layer of an 8 h night.

    Each output column reduces over the same products as in the whole GEMM,
    so float32 outputs equal its bits wherever OpenBLAS gives a column the
    same bits whatever the columns around it: on every conv1d of the model
    at micro, tiny and full scale, and at full scale on nights of 4,320 to
    28,800 s.  GEMMs of at most four output rows over 16 or more input
    channels can round a block's columns differently (OpenBLAS's
    small-matrix and gemv paths).  The model's 1x1 projections to one or
    three channels are such GEMMs; their im2col matrix is no larger than x,
    so they run as one GEMM.  So does an output of one block, whose GEMM is
    the block's own on the same operands, without the buffer.  In float64,
    dgemm rounds the columns past its last full tile by their place in the
    GEMM.
    """
    c_out, c_in, k = w.shape
    windows = _windows(x, k, stride, padding, out_len)
    taps = w.reshape(c_out, c_in * k)
    if k == 1 or out_len <= SCATTER_COLUMNS:  # the im2col matrix is no larger than x, or one block
        return taps @ windows.reshape(c_in * k, out_len)
    out = np.empty((c_out, out_len), dtype=np.result_type(x, w))
    starts, width = _column_blocks(out_len)
    buf = np.empty(c_in * k * width, dtype=x.dtype)
    for t0 in starts:
        n = min(width, out_len - t0)
        cols = buf[: c_in * k * n].reshape(c_in, k, n)
        np.copyto(cols, windows[:, :, t0 : t0 + n])
        np.matmul(taps, cols.reshape(c_in * k, n), out=out[:, t0 : t0 + n])
    return out


def _scatter(x: np.ndarray, w: np.ndarray, stride: int, padding: int, out_len: int) -> np.ndarray:
    """out[o, t*stride + j - padding] += sum_i x[i, t] * w[i, o, j], as a window of a new buffer.

    Each block of at most SCATTER_COLUMNS input columns takes one GEMM for
    all k taps, [c_out*k, width] = w.reshape(c_in, c_out*k).T @ x[:, block],
    into one reused buffer, so x is read once, not once per tap; k strided
    adds then place the taps.  The blocks are balanced, and without the
    tiling the product of a 28,800-column layer would be one 51.6 MB block.

    Block order: output position p takes its taps in ascending j, and j
    ascends as t descends, so the blocks are walked from last to first.
    Every position then sums its taps in the order of one GEMM per tap, and
    float32 outputs equal that loop's bit for bit wherever OpenBLAS gives a
    GEMM row the same bits whatever the rows around it: on micro and tiny
    nights of 48 s and longer and full-scale nights of 240 s and longer.
    They differ in the last bits on 24 s nights, whose one-token bottleneck
    makes numpy call gemv, and on full-scale nights under 240 s, where the
    all-tap GEMMs of the 512-channel layer cross OpenBLAS's small-matrix
    threshold and the per-tap ones do not.  In float64, dgemm rounds the
    columns past its last full tile by a row's place in the GEMM, so those
    columns can differ too.
    """
    c_in, length = x.shape
    _, c_out, k = w.shape
    full_len = max((length - 1) * stride + k, padding + out_len)
    full = np.zeros((c_out, full_len), dtype=x.dtype)
    starts, width = _column_blocks(length)
    taps = w.reshape(c_in, c_out * k).T
    buf = np.empty(c_out * k * width, dtype=x.dtype)
    for t0 in reversed(starts):
        n = min(width, length - t0)
        y = np.matmul(taps, x[:, t0 : t0 + n], out=buf[: c_out * k * n].reshape(c_out * k, n))
        y = y.reshape(c_out, k, n)
        start = t0 * stride
        span = (n - 1) * stride + 1
        for j in range(k):
            full[:, start + j : start + j + span : stride] += y[:, j]
    return full[:, padding : padding + out_len]


def _conv_length(x, weight, bias, stride, padding, output_padding, transposed) -> int:
    """Output length of conv1d (or conv_transpose1d), after checking every operand's shape."""
    name = "conv_transpose1d" if transposed else "conv1d"
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    if transposed and not 0 <= output_padding < max(stride, 1):
        raise ShapeError(f"output_padding {output_padding} must lie in [0, stride)")
    if x.ndim != 2 or weight.ndim != 3:
        layout = "[C_in, C_out, k]" if transposed else "[C_out, C_in, k]"
        raise ShapeError(f"{name} expects x [C_in, L] and weight {layout}, got {x.shape}, {weight.shape}")
    c_in, length = x.shape
    c_out, w_in = weight.shape[:2]
    if transposed:
        w_in, c_out = c_out, w_in
    if w_in != c_in:
        raise ShapeError(f"{name} channel mismatch: x has {c_in}, weight expects {w_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"{name} bias must have shape ({c_out},), got {bias.shape}")
    if transposed:
        return conv_transpose_output_length(length, weight.shape[2], stride, padding, output_padding)
    return conv_output_length(length, weight.shape[2], stride, padding)


def _conv_forward(xd, wd, stride, padding, out_len, transposed):
    """conv1d (or conv_transpose1d) of the arrays, without bias."""
    if transposed:
        return _scatter(xd, wd, stride, padding, out_len)
    return _gather(xd, wd, stride, padding, out_len)


def _conv_grad(g, xd, wd, stride, padding, transposed, need_x, need_w):
    """(gx, gw) of _conv_forward for the upstream gradient g."""
    k, length = wd.shape[2], xd.shape[1]
    if transposed:
        # g's im2col feeds both products: gx correlates g with the same weight,
        # its axes read as [out=C_in, in=C_out, k].
        cols = _im2col(g, k, stride, padding, length)
        gx = wd.reshape(wd.shape[0], -1) @ cols if need_x else None
        gw = (xd @ cols.T).reshape(wd.shape) if need_w else None
    else:
        gx = _scatter(g, wd, stride, padding, length) if need_x else None
        # x's im2col, rebuilt as the forward built it
        gw = (g @ _im2col(xd, k, stride, padding, g.shape[1]).T).reshape(wd.shape) if need_w else None
    return gx, gw


def _conv(x, weight, bias, stride, padding, output_padding, transposed):
    out_len = _conv_length(x, weight, bias, stride, padding, output_padding, transposed)
    xd, wd = x.data, weight.data
    out = _conv_forward(xd, wd, stride, padding, out_len, transposed)
    if bias is not None:
        out = out + bias.data[:, None]

    def grad_fn(g):
        gx, gw = _conv_grad(g, xd, wd, stride, padding, transposed, x.requires_grad, weight.requires_grad)
        if bias is None:
            return gx, gw
        return gx, gw, (g.sum(axis=1) if bias.requires_grad else None)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, parents, grad_fn)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Strided 1-D cross-correlation: [C_in, L] -> [C_out, L_out]."""
    return _conv(x, weight, bias, stride, padding, 0, transposed=False)


def conv_transpose1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Adjoint of conv1d: [C_in, L] -> [C_out, (L-1)*stride - 2*padding + k + output_padding]."""
    return _conv(x, weight, bias, stride, padding, output_padding, transposed=True)


def _check_batch_norm(shape, gamma, beta, running_mean, running_var, mode) -> None:
    if mode not in ("train", "eval"):
        raise ShapeError(f"batch_norm1d mode must be train or eval, got {mode!r}")
    if len(shape) != 2:
        raise ShapeError(f"batch_norm1d expects [C, L], got {shape}")
    c, length = shape
    if length < 1:
        raise ShapeError("batch_norm1d needs at least one sample per channel")
    for name, t in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean), ("running_var", running_var)):
        if t.shape != (c,):
            raise ShapeError(f"batch_norm1d {name} must have shape ({c},), got {t.shape}")


def _batch_norm(h, gamma, beta, running_mean, running_var, eps, momentum, mode, keep):
    """Batch norm of the array h [C, L] over time: (output, xhat or None, inv [C]).

    Train mode normalizes with the biased batch statistics (np.mean and np.var
    bit for bit) and folds them into the running estimates in place; eval
    mode normalizes with the running estimates, overwriting h.  xhat is
    returned for backward when `keep`; otherwise the output is built in it.
    """
    if mode == "train":
        xhat, mean, var = _centre(h)
        mu, var = mean[:, 0], var[:, 0]
        length = h.shape[1]
        unbiased = var * (length / (length - 1)) if length > 1 else var
        running_mean.data[...] = (1.0 - momentum) * running_mean.data + momentum * mu
        running_var.data[...] = (1.0 - momentum) * running_var.data + momentum * unbiased
    else:
        var = running_var.data
        xhat = np.subtract(h, running_mean.data[:, None], out=h)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[:, None]
    gd = gamma.data[:, None]
    out = xhat * gd if keep else np.multiply(xhat, gd, out=xhat)
    out += beta.data[:, None]
    return out, (xhat if keep else None), inv


def _batch_norm_grad(g, xhat, inv, gd, mode, need_x, need_gamma, need_beta):
    """(gx, ggamma, gbeta) of _batch_norm for the upstream gradient g."""
    gx = None
    if need_x:
        if mode == "train":
            gx = _unnormalize_grad(g * gd[:, None], xhat, inv[:, None])
        else:
            gx = g * (gd * inv)[:, None]
    ggamma = (g * xhat).sum(axis=1) if need_gamma else None
    gbeta = g.sum(axis=1) if need_beta else None
    return gx, ggamma, gbeta


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
    _check_batch_norm(x.shape, gamma, beta, running_mean, running_var, mode)
    parents = (x, gamma, beta)
    # _batch_norm may overwrite its input
    out, xhat, inv = _batch_norm(
        x.data.copy(), gamma, beta, running_mean, running_var, eps, momentum, mode, keep=_builds_graph(parents)
    )

    def grad_fn(g):
        return _batch_norm_grad(g, xhat, inv, gamma.data, mode, x.requires_grad, gamma.requires_grad, beta.requires_grad)

    return _from_op(out, parents, grad_fn)


def _rrelu_tail(y, lower, upper, mode, rng, keep):
    """rrelu of the array y: (output, the factor backward multiplies by, or None).

    Train mode draws one slope per entry from U[lower, upper], in y's shape,
    and uses it where y < 0.  Eval mode uses the fixed slope
    (lower + upper) / 2 and returns the factor only when `keep`.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"rrelu mode must be train or eval, got {mode!r}")
    if not (0.0 <= lower <= upper < 1.0):
        raise ShapeError(f"rrelu bounds must satisfy 0 <= lower <= upper < 1, got ({lower}, {upper})")
    # the factor is where(y >= 0, 1, slope) as max(slope, y >= 0): slopes lie
    # in [0, 1), so the two agree on every y, NaN included, and the maximum
    # skips np.where's slow path for a scalar operand
    if mode == "train":
        if rng is None:
            raise ShapeError("rrelu train mode requires an rng")
        slopes = rng.uniform(lower, upper, size=y.shape).astype(y.dtype, copy=False)
        factor = np.maximum(slopes, y >= 0, out=slopes)
        return y * factor, factor
    # max(slope * y, y) equals y * factor bit for bit, -0.0, NaN payloads and
    # underflow included; the one exception is +inf at slope 0, which gives NaN
    slope = y.dtype.type((lower + upper) / 2.0)
    return np.maximum(slope * y, y), (np.maximum(slope, y >= 0, dtype=y.dtype) if keep else None)


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
    out, factor = _rrelu_tail(x.data, lower, upper, mode, rng, keep=_builds_graph((x,)))
    return _from_op(out, (x,), lambda g: (g * factor,))


def conv_bn_rrelu(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    stride: int = 1,
    padding: int = 0,
    transposed: bool = False,
    output_padding: int = 0,
    eps: float = 1e-5,
    momentum: float = 0.1,
    lower: float = RRELU_LOWER,
    upper: float = RRELU_UPPER,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """conv1d (conv_transpose1d when `transposed`), batch_norm1d, then rrelu, as one graph node.

    Bit for bit the composition of the three kernels: output, running
    statistics, rrelu draws and every gradient.  Without a graph the bias
    and the eval batch norm run in place on the conv output.
    """
    out_len = _conv_length(x, weight, bias, stride, padding, output_padding, transposed)
    _check_batch_norm((weight.shape[1 if transposed else 0], out_len), gamma, beta, running_mean, running_var, mode)
    parents = (x, weight, bias, gamma, beta)
    graph = _builds_graph(parents)
    xd, wd = x.data, weight.data
    h = _conv_forward(xd, wd, stride, padding, out_len, transposed)
    if transposed:
        h = h + bias.data[:, None]  # h was a window of _scatter's buffer
    else:
        h += bias.data[:, None]
    y, xhat, inv = _batch_norm(h, gamma, beta, running_mean, running_var, eps, momentum, mode, keep=graph)
    del h
    out, factor = _rrelu_tail(y, lower, upper, mode, rng, keep=graph)
    need_h = x.requires_grad or weight.requires_grad or bias.requires_grad

    def grad_fn(g):
        gh, ggamma, gbeta = _batch_norm_grad(
            g * factor, xhat, inv, gamma.data, mode, need_h, gamma.requires_grad, beta.requires_grad
        )
        if gh is None:
            return None, None, None, ggamma, gbeta
        gx, gw = _conv_grad(gh, xd, wd, stride, padding, transposed, x.requires_grad, weight.requires_grad)
        return gx, gw, (gh.sum(axis=1) if bias.requires_grad else None), ggamma, gbeta

    return _from_op(out, parents, grad_fn)


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


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a @ w
    out += b
    return out


def multi_head_self_attention(
    x: Tensor,
    params: dict[str, Tensor],
    n_heads: int,
) -> Tensor:
    """One post-norm transformer encoder block on [L, d] token rows, as one graph node.

    Self-attention -> residual add -> layer norm -> GELU feed-forward ->
    residual add -> layer norm.  Weights are [d_in, d_out].

    Head width is floor(d / n_heads), so Q/K/V projections map d to
    n_heads * head_width columns and the output projection maps back to d.
    When n_heads divides d that is the usual square layout; otherwise the
    concatenated context is slightly narrower than d.

    Each head's q and v are laid out once as contiguous [h, L, d_head]
    copies and k as [h, d_head, L], so every head runs the GEMMs of the
    composition of tensor ops bit for bit.  One [L, L] buffer holds each
    head's probabilities in turn, and backward rebuilds them from q and k.
    """
    if x.ndim != 2:
        raise ShapeError(f"attention expects [L, d] tokens, got {x.shape}")
    length, d = x.shape
    if n_heads < 1 or d // n_heads < 1:
        raise ShapeError(f"model width {d} cannot host {n_heads} heads")
    missing = [key for key in ATTENTION_PARAM_KEYS if key not in params]
    if missing:
        raise ShapeError(f"attention params missing {missing}")
    weights = [params[key] for key in ATTENTION_PARAM_KEYS]
    shapes = attention_param_shapes(d, n_heads, params["ff1_w"].shape[-1])
    for key, t in zip(ATTENTION_PARAM_KEYS, weights):
        if t.shape != shapes[key] or t.dtype != x.dtype:
            raise ShapeError(f"attention {key} must be {shapes[key]} {x.dtype}, got {t.shape} {t.dtype}")
    qw, qb, kw, kb, vw, vb, ow, ob, g1, b1, fw1, fb1, fw2, fb2, g2, b2 = (t.data for t in weights)
    xd = x.data
    d_head = d // n_heads
    scale = xd.dtype.type(1.0 / float(np.sqrt(d_head)))

    def per_head(a, axes):
        return np.ascontiguousarray(a.reshape(length, n_heads, d_head).transpose(axes))

    q = per_head(_affine(xd, qw, qb), (1, 0, 2))
    k = per_head(_affine(xd, kw, kb), (1, 2, 0))
    v = per_head(_affine(xd, vw, vb), (1, 0, 2))

    def head_probs(h, p):
        """Head h's softmax probabilities, built in place in the [L, L] buffer p."""
        np.matmul(q[h], k[h], out=p)
        p *= scale
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        return p

    p = np.empty((length, length), dtype=xd.dtype)
    contexts = [head_probs(h, p) @ v[h] for h in range(n_heads)]
    r1 = _affine(np.concatenate(contexts, axis=1), ow, ob)
    r1 += xd
    del contexts
    h1, xhat1, inv1 = _layer_norm_forward(r1, g1, b1, LAYER_NORM_EPS)
    f1 = _affine(h1, fw1, fb1)
    th = _gelu_tanh(f1)
    r2 = _affine(_gelu_value(f1, th), fw2, fb2)
    r2 += h1
    out, xhat2, inv2 = _layer_norm_forward(r2, g2, b2, LAYER_NORM_EPS)

    def grad_fn(g):
        gr2, g_g2, g_b2 = _layer_norm_backward(g, g2, xhat2, inv2)
        g_f1 = (gr2 @ fw2.T) * _gelu_slope(f1, th)
        h1 = xhat1 * g1 + b1
        gr1, g_g1, g_b1 = _layer_norm_backward(gr2 + g_f1 @ fw1.T, g1, xhat1, inv1)
        g_ctx = gr1 @ ow.T
        ctx, dq, dk, dv = (np.empty((length, n_heads * d_head), dtype=xd.dtype) for _ in range(4))
        p = np.empty((length, length), dtype=xd.dtype)
        for h in range(n_heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            gc = g_ctx[:, cols]
            ctx[:, cols] = head_probs(h, p) @ v[h]
            dv[:, cols] = p.T @ gc
            ds = gc @ v[h].T  # through the softmax and the scale, in place
            ds -= (ds * p).sum(axis=1, keepdims=True)
            ds *= p
            ds *= scale
            dq[:, cols] = ds @ k[h].T
            dk[:, cols] = (q[h].T @ ds).T
        # the residual's gradient first, then the q, k and v projections', each
        # sum a new array as the composition's accumulation made it
        gx = gr1 + dq @ qw.T
        gx = gx + dk @ kw.T
        gx = gx + dv @ vw.T
        grads = (
            gx,
            xd.T @ dq, dq.sum(axis=0), xd.T @ dk, dk.sum(axis=0), xd.T @ dv, dv.sum(axis=0),
            ctx.T @ gr1, gr1.sum(axis=0), g_g1, g_b1,
            h1.T @ g_f1, g_f1.sum(axis=0), _gelu_value(f1, th).T @ gr2, gr2.sum(axis=0), g_g2, g_b2,
        )
        return tuple(gr if t.requires_grad else None for t, gr in zip((x, *weights), grads))

    return _from_op(out, (x, *weights), grad_fn)
