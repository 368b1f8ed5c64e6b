"""Recurrent stage estimation over window-embedding sequences.

A two-layer gated recurrent network (standard i/f/g/o cell, H=128 default)
consumes g_1..g_T with h_0 = c_0 = 0; inverted dropout (rate 0.3) sits between
the layers in train mode only. Each layer is one autodiff op over the whole
batch of sequences: one input GEMM for all steps, the recurrence over
(batch, H) states, and a hand-written backward through time. The classifier
head emits the 7-class stage distribution via a max-subtracted softmax, one
op with its own backward; the prediction head, one `linear` op, maps h_t to
the next-window embedding for self-supervision. Widths, depth, dropout and
class count come from the checked `model.ModelConfig` (d_g, hidden,
lstm_layers, dropout, num_classes).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, ValidationError
from .nn import ParamStore, Tensor, as_tensor, linear
from .nn.tensor import _accum, _linear_adjoints, _make

if TYPE_CHECKING:  # model imports this module; the config is only annotated here
    from .model import ModelConfig


FORGET_BIAS = 1.0  # initial forget-gate bias: cells start out remembering


def estimator_param_spec(cfg: ModelConfig) -> dict:
    spec = {}
    for layer in range(cfg.lstm_layers):
        in_dim = cfg.d_g if layer == 0 else cfg.hidden
        spec[f"lstm.L{layer}.Wih"] = (4 * cfg.hidden, in_dim)
        spec[f"lstm.L{layer}.Whh"] = (4 * cfg.hidden, cfg.hidden)
        spec[f"lstm.L{layer}.b"] = (4 * cfg.hidden,)
    spec["head.stage.W"] = (cfg.num_classes, cfg.hidden)
    spec["head.stage.b"] = (cfg.num_classes,)
    spec["head.next.W"] = (cfg.d_g, cfg.hidden)
    spec["head.next.b"] = (cfg.d_g,)
    return spec


def apply_forget_bias(store: ParamStore, cfg: ModelConfig) -> None:
    """Initialize the forget-gate bias slice to `FORGET_BIAS` (gate order i,f,g,o)."""
    H = cfg.hidden
    for layer in range(cfg.lstm_layers):
        store.tensor(f"lstm.L{layer}.b").data[H : 2 * H] = FORGET_BIAS


def _lstm_layer(x: Tensor, Wih: Tensor, Whh: Tensor, b: Tensor, batch: int,
                mask: np.ndarray | None) -> Tensor:
    """One LSTM layer over `batch` sequence-major sequences, as one op.

    x: (batch*T, d_in), row b*T + t. One input GEMM covers every step; the
    recurrence then runs over (batch, H) states and keeps the gates, cell
    states and tanh(c) for a hand-written BPTT. `mask` (batch, T, H), if
    given, scales the output (inter-layer dropout) but not the state carried
    to the next step. Returns (batch*T, H) in the same row order."""
    B = batch
    T = x.data.shape[0] // B
    H = Whh.data.shape[1]
    xw = (x.data @ Wih.data.T).reshape(B, T, 4, H)
    act = np.empty((B, T, 4, H))  # i, f, g, o after their nonlinearities
    cs = np.zeros((B, T + 1, H))  # c_0 = 0, then c_t at t + 1
    tcs = np.empty((B, T, H))
    hs = np.empty((B, T, H))
    h = np.zeros((B, H))
    for t in range(T):
        gates = xw[:, t] + (h @ Whh.data.T).reshape(B, 4, H)
        gates += b.data.reshape(4, H)
        act[:, t] = 1.0 / (1.0 + np.exp(-gates))
        act[:, t, 2] = np.tanh(gates[:, 2])
        i, f, g, o = act[:, t, 0], act[:, t, 1], act[:, t, 2], act[:, t, 3]
        cs[:, t + 1] = f * cs[:, t] + i * g
        tcs[:, t] = np.tanh(cs[:, t + 1])
        h = o * tcs[:, t]
        hs[:, t] = h
    out = hs if mask is None else hs * mask

    def backward(g_out):
        dh_out = g_out.reshape(B, T, H)
        if mask is not None:
            dh_out = dh_out * mask
        i, f, g, o = act[:, :, 0], act[:, :, 1], act[:, :, 2], act[:, :, 3]
        # c = f*c_prev + i*g and h = o*tanh(c): each gate's adjoint is dc (dh
        # for o) times its partner in that product, times the slope of its
        # nonlinearity; both factors are known before the loop
        slope = act * (1.0 - act)
        slope[:, :, 2] = 1.0 - g * g
        partner = np.stack([g, cs[:, :-1], i, tcs], axis=2) * slope
        dc_dh = o * (1.0 - tcs * tcs)
        d_gates = np.empty((B, T, 4, H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = dh_out[:, t] + dh_next
            dc = dc_next + dh * dc_dh[:, t]
            d_gates[:, t, :3] = partner[:, t, :3] * dc[:, None]
            d_gates[:, t, 3] = partner[:, t, 3] * dh
            dh_next = d_gates[:, t].reshape(B, 4 * H) @ Whh.data
            dc_next = dc * f[:, t]
        d_flat = d_gates.reshape(B * T, 4 * H)
        _accum(Wih, d_flat.T @ x.data, fresh=True)
        _accum(Whh, d_gates[:, 1:].reshape(-1, 4 * H).T @ hs[:, :-1].reshape(-1, H), fresh=True)
        _accum(b, d_flat.sum(axis=0), fresh=True)
        if x.requires_grad:
            _accum(x, d_flat @ Wih.data, fresh=True)

    return _make(out.reshape(B * T, H), (x, Wih, Whh, b), backward)


def recurrent_forward(x: Tensor, store: ParamStore, cfg: ModelConfig,
                      mode: str = "eval", dropout_seed: int = 0,
                      batch: int = 1) -> Tensor:
    """Run the stacked recurrence over `batch` same-length sequences.

    x: (batch*T, d_g) laid out sequence-major (row b*T + t). Returns top-layer
    hidden states with the same layout, (batch*T, H). Deterministic given
    (mode, dropout_seed).
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = as_tensor(x)
    total, d_in = x.data.shape
    if d_in != cfg.d_g:
        raise DimensionError(f"input width {d_in} != d_g {cfg.d_g}")
    if batch < 1 or total % batch:
        raise DimensionError(f"row count {total} not divisible by batch {batch}")
    T = total // batch
    if T < 1:
        raise DimensionError("need at least one step")
    H = cfg.hidden

    masks = None
    if mode == "train" and cfg.dropout > 0 and cfg.lstm_layers > 1:
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - cfg.dropout
        # one mask per (layer gap, step); prefix of the stream is identical
        # for shorter T, preserving causal determinism
        masks = (rng.random((cfg.lstm_layers - 1, T, batch, H)) < keep).astype(x.data.dtype) / keep

    layer_in = x
    for layer in range(cfg.lstm_layers):
        mask = None
        if masks is not None and layer < cfg.lstm_layers - 1:
            mask = masks[layer].transpose(1, 0, 2)  # (batch, T, H)
        layer_in = _lstm_layer(layer_in, store.tensor(f"lstm.L{layer}.Wih"),
                               store.tensor(f"lstm.L{layer}.Whh"),
                               store.tensor(f"lstm.L{layer}.b"), batch, mask)
    return layer_in


def classify(h: Tensor, store: ParamStore) -> Tensor:
    """p = softmax(W_stage·h + B_stage), row-wise, max-subtracted, as one op."""
    h = as_tensor(h)
    W, b = store.tensor("head.stage.W"), store.tensor("head.stage.b")
    logits = h.data @ W.data.T + b.data
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = ex / ex.sum(axis=1, keepdims=True)

    def backward(g):
        # softmax Jacobian-vector product: p ⊙ (g − Σ_row g⊙p)
        _linear_adjoints(p * (g - (g * p).sum(axis=1, keepdims=True)), h, W, b)

    return _make(p, (h, W, b), backward)


def predict_next(h: Tensor, store: ParamStore) -> Tensor:
    """ĝ_{t+1} = W_o·h_t + b_o, row-wise."""
    return linear(h, store.tensor("head.next.W"), store.tensor("head.next.b"))
