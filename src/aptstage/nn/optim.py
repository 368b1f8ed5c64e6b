"""Adam with decoupled weight decay plus global-norm gradient clipping."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore


# Adam's moment decay rates and denominator guard (the Kingma & Ba defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def clip_gradients(store: ParamStore, max_norm: float = 5.0) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.
    Frozen parameters are off the tape and get no gradient, so they do not
    count toward the norm. Returns the applied scale (1.0 when already within
    bounds). A non-finite norm leaves the gradients as they are and returns
    nan."""
    total = 0.0
    for name in store.names():
        t = store.tensor(name)
        if t.grad is not None:
            total += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        return float("nan")
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for name in store.names():
        t = store.tensor(name)
        if t.grad is not None:
            t.grad *= scale
    return scale


def adam_step(store: ParamStore, state: AdamState, lr: float, weight_decay: float = 1e-5) -> None:
    """Decoupled weight decay (theta -= lr*wd*theta) followed by the
    bias-corrected Adam update, for each parameter with requires_grad on; one
    without a gradient takes a zero gradient. Frozen ones stay untouched."""
    state.t += 1
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in store.names():
        t = store.tensor(name)
        if not t.requires_grad:
            continue
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if weight_decay:
            t.data -= lr * weight_decay * t.data
        if name not in state.m:
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        t.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
