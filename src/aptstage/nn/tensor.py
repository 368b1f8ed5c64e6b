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


def _needs_grad(t: Tensor) -> bool:
    """True when an adjoint routed to `t` is kept: it is a parameter or lies
    on the tape."""
    return t.requires_grad or bool(t._parents)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add the adjoint `g` into t.grad. A first adjoint is copied, since an
    op may pass an array that it or another input still holds (add's one `g`,
    transpose's view). `fresh=True` says that nothing else holds `g`: a new
    float64 array that t.grad may take over as it is."""
    if not _needs_grad(t):
        return
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(_needs_grad(p) for p in parents):
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
        # a constant operand's adjoint would be discarded: skip its GEMM
        if _needs_grad(a):
            _accum(a, g @ b.data.T, fresh=True)
        if _needs_grad(b):
            _accum(b, a.data.T @ g, fresh=True)

    return _make(data, (a, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.T)

    return _make(a.data.T, (a,), backward)


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


def gather_rows(a, idx) -> Tensor:
    """Select rows by integer index; adjoint scatter-adds back."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _make(a.data[idx], (a,), backward)
