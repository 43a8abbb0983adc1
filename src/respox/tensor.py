"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps one float32/float64 ndarray.  Operations build the graph
eagerly; each op output keeps references to its parents plus a closure
that maps the upstream gradient to per-parent gradients.  backward() on
a scalar walks the graph once in reverse topological order.

Operand rule for + - * /: a Python number or numpy array beside a Tensor
joins as a constant in that tensor's dtype (as_tensor): a leaf that takes
no gradient.  Two tensors must share one dtype.

This module holds the graph (Tensor, backward, no_grad, and the _from_op
and _builds_graph hooks every op goes through) and the small ops the model
differentiates outside its layers: arithmetic, reductions, reshaping,
slicing and the stage loss's log_softmax.  The network's layers and the
array numerics they run (batch and layer norm statistics, GELU) live in
kernels.py; Tensor-level matmul, softmax, tanh, gelu and layer_norm exist
only as test references, in tests/reference_ops.py.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_ALLOWED_DTYPES = (np.float32, np.float64)

_GRAD_STACK = [True]


class ShapeError(ValueError):
    """Operand shapes or dtypes are incompatible with the requested op."""


class GraphError(RuntimeError):
    """The autodiff graph was used outside its contract."""


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    _GRAD_STACK.append(False)
    try:
        yield
    finally:
        _GRAD_STACK.pop()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")
    # numpy operators defer to Tensor's reflected ones, so `array * tensor`
    # follows the operand rule instead of broadcasting over the Tensor object
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable | None = None

    # ---- introspection ----

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __float__(self) -> float:
        return self.item()

    # ---- graph walk ----

    def backward(self) -> None:
        if self.size != 1:
            raise GraphError(f"backward() requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        while order:
            node = order.pop()
            grad_fn, parents, g = node._grad_fn, node._parents, node.grad
            if grad_fn is None or g is None:
                continue  # a leaf keeps its gradient
            # the graph is spent as it is walked: drop this node's grad, closure and parents
            node.grad, node._grad_fn, node._parents = None, None, ()
            for parent, pg in zip(parents, grad_fn(g)):
                if pg is None:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg

    # ---- operator sugar ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def abs(self) -> "Tensor":
        return tabs(self)

    def sqrt(self) -> "Tensor":
        return tsqrt(self)

    def t(self) -> "Tensor":
        return transpose(self)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        return narrow(self, axis, start, length)


def _toposort(root: Tensor) -> list[Tensor]:
    """The root and every node above it that has parents, in post-order.

    Leaves (parameters, constants) have nothing to walk, so they are left
    out; that leaves the order of the other nodes as it is.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._parents and id(p) not in seen:
                stack.append((p, False))
    return order


def _builds_graph(parents: Sequence[Tensor]) -> bool:
    """Whether an op on these parents records a graph node (what _from_op decides)."""
    if _GRAD_STACK[-1]:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _from_op(data: np.ndarray, parents: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _builds_graph(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _check_same_dtype(a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")


def as_tensor(value, like: Tensor) -> Tensor:
    """A number or array as a constant Tensor in `like`'s dtype; a Tensor of that dtype passes through."""
    if isinstance(value, Tensor):
        _check_same_dtype(value, like)
        return value
    return Tensor(value, dtype=like.dtype)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, as_tensor(b, a)
    return as_tensor(a, b), b


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---- elementwise arithmetic ----


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data

    def grad_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data - b.data

    def grad_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    ad, bd = a.data, b.data
    data = ad * bd

    def grad_fn(g):
        ga = _unbroadcast(g * bd, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    ad, bd = a.data, b.data
    data = ad / bd

    def grad_fn(g):
        ga = _unbroadcast(g / bd, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    return _from_op(-a.data, (a,), lambda g: (-g,))


def tabs(a: Tensor) -> Tensor:
    ad = a.data
    return _from_op(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


def tsqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _from_op(out, (a,), lambda g: (g * (0.5 / out),))


# ---- reductions ----


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape).copy()
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def grad_fn(g):
        return (_expand_reduced(np.asarray(g), shape, axis, keepdims),)

    return _from_op(np.asarray(data), (a,), grad_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= shape[ax % len(shape)]

    def grad_fn(g):
        return (_expand_reduced(np.asarray(g) / count, shape, axis, keepdims),)

    return _from_op(np.asarray(data), (a,), grad_fn)


# ---- structure ----


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose is 2-D only, got shape {a.shape}")
    return _from_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of an empty sequence")
    sizes = [p.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(piece if p.requires_grad else None for p, piece in zip(parts, pieces))

    return _from_op(data, tuple(parts), grad_fn)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if axis < 0 or axis >= a.ndim:
        raise ShapeError(f"narrow axis {axis} out of range for shape {a.shape}")
    if start < 0 or length < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow window [{start}, {start + length}) exceeds axis size {a.shape[axis]}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    shape = a.shape

    def grad_fn(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _from_op(a.data[index].copy(), (a,), grad_fn)


def take(a: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError("take expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise ShapeError(f"take index out of range for axis size {a.shape[axis]}")
    data = np.take(a.data, idx, axis=axis)
    shape = a.shape

    def grad_fn(g):
        full = np.zeros(shape, dtype=g.dtype)
        if axis == 0:
            np.add.at(full, idx, g)
        else:
            moved = np.moveaxis(full, axis, 0)
            np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        return (full,)

    return _from_op(data, (a,), grad_fn)


# ---- losses ----


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def grad_fn(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _from_op(out, (a,), grad_fn)
