"""Tensor-level ops that only tests use, as references and as graph inputs.

The model runs attention as one fused node (kernels.multi_head_self_attention);
these ops build the same block from small graph nodes, so tests can compare
the two and exercise the graph engine.  layer_norm and gelu run the kernels'
own array halves, so both sides perform the same numpy operations in the
same order.
"""

import numpy as np

from respox.kernels import (
    _gelu_slope,
    _gelu_tanh,
    _gelu_value,
    _layer_norm_backward,
    _layer_norm_forward,
)
from respox.tensor import ShapeError, Tensor, _check_same_dtype, _from_op


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _from_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        raise ShapeError("matmul expects two tensors")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul is 2-D only, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    _check_same_dtype(a, b)
    ad, bd = a.data, b.data
    data = ad @ bd

    def grad_fn(g):
        ga = g @ bd.T if a.requires_grad else None
        gb = ad.T @ g if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _from_op(out, (a,), grad_fn)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    th = _gelu_tanh(x)
    return _from_op(_gelu_value(x, th), (a,), lambda g: (g * _gelu_slope(x, th),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis of x to zero mean / unit variance, then scale-shift."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(f"layer_norm scale/shift must have shape ({x.shape[-1]},)")
    out, xhat, inv = _layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def grad_fn(g):
        grads = _layer_norm_backward(g, gamma.data, xhat, inv)
        return tuple(gr if t.requires_grad else None for t, gr in zip((x, gamma, beta), grads))

    return _from_op(out, (x, gamma, beta), grad_fn)
