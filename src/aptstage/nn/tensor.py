"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus a closure that routes an incoming adjoint to
its parents. Tapes are rebuilt on every forward pass; parameters are leaf
tensors whose .data the optimizer mutates in place. Everything runs in
float64 (DTYPE); the oracle tests compare against it at 1e-12.

The model's layers are fused ops with hand-written backwards (the rounds and
readout in `encoder`, each LSTM layer and the classifier head in
`estimator`, the losses in `training.losses`). This module holds the tape
itself and the three generic ops they are joined with: `linear` (the
projection, whose input may be a constant sparse array, and the
next-embedding head), `gather_rows` and `weighted_sum`.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

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


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add the adjoint `g` into t.grad. A first adjoint is copied, since an
    op may pass an array that it or another input still holds (one `g` for
    both inputs of a sum, or a view). `fresh=True` says that nothing else
    holds `g`: a new float64 array that t.grad may take over as it is."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    """An op's output. While recording, it joins the tape when a parent takes
    an adjoint, with `requires_grad` on: the flag marks every tensor that
    takes one, a trainable leaf or a tape output."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def gather_rows(a, idx) -> Tensor:
    """Select rows by integer index; adjoint scatter-adds back."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _make(a.data[idx], (a,), backward)


def _linear_adjoints(g: np.ndarray, x, W: Tensor, b: Tensor) -> None:
    """Route the adjoint `g` of y = x·Wᵀ + b to x (when kept), W and b. A
    sparse x is a constant: dW is xᵀ·g, sparse × dense."""
    if sp.issparse(x):
        dW = np.ascontiguousarray((x.T @ g).T)
    else:
        if x.requires_grad:
            _accum(x, g @ W.data, fresh=True)
        dW = g.T @ x.data
    _accum(W, dW, fresh=True)
    _accum(b, g.sum(axis=0), fresh=True)


def linear(x, W: Tensor, b: Tensor) -> Tensor:
    """x·Wᵀ + b row-wise, as one op. `x` is a tensor or a scipy sparse
    array; a sparse x (the raw node features) is a constant that joins no
    tape."""
    if sp.issparse(x):
        out, parents = x @ W.data.T, (W, b)
    else:
        x = as_tensor(x)
        out, parents = x.data @ W.data.T, (x, W, b)
    out += b.data
    return _make(out, parents, lambda g: _linear_adjoints(g, x, W, b))


def weighted_sum(terms) -> Tensor:
    """Σ_k λ_k·t_k over (λ_k, scalar tensor t_k) pairs, as one op."""
    terms = [(float(lam), as_tensor(t)) for lam, t in terms]

    def backward(g):
        for lam, t in terms:
            _accum(t, g * lam, fresh=True)

    return _make(sum(lam * t.data for lam, t in terms), tuple(t for _, t in terms), backward)
