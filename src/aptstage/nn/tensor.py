"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus a closure that routes an incoming adjoint to
its parents. Tapes are rebuilt on every forward pass; parameters are leaf
tensors whose .data the optimizer mutates in place. Everything runs in
float64 (DTYPE); the oracle tests compare against it at 1e-12.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DTYPE = np.float64
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    # Operator sugar; full op set lives in the module-level functions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Reverse-accumulate adjoints from this scalar into the tape's leaves."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    """Wrap plain arrays/scalars as constant (no-grad) tensors."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad and not t._parents:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape a broadcast input started from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.T)

    return _make(a.data.T, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        _accum(a, g * out)

    return _make(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / out)

    return _make(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(ge, a.data.shape).copy())

    return _make(data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _make(data, tuple(parts), backward)


def slice_cols(a, j0: int, j1: int) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        _accum(a, full)

    return _make(a.data[:, j0:j1].copy(), (a,), backward)


def gather_rows(a, idx) -> Tensor:
    """Select rows by integer index; adjoint scatter-adds back."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _make(a.data[idx], (a,), backward)


def segment_sum(a, seg, num_segments: int) -> Tensor:
    """Sum rows of `a` into `num_segments` buckets. `seg` must be sorted
    ascending; empty segments yield zero rows."""
    a = as_tensor(a)
    seg = np.asarray(seg, dtype=np.intp)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=a.data.dtype)
    if seg.size:
        counts = np.bincount(seg, minlength=num_segments)
        nonempty = np.nonzero(counts)[0]
        starts = np.searchsorted(seg, nonempty, side="left")
        out[nonempty] = np.add.reduceat(a.data, starts, axis=0)

    def backward(g):
        _accum(a, g[seg])

    return _make(out, (a,), backward)
