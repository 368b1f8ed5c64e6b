"""Training objectives: next-embedding prediction, temporal InfoNCE, and
class-weighted cross-entropy."""
from __future__ import annotations

import numpy as np

from ..errors import DimensionError, TrainingError
from ..nn import Tensor, as_tensor
from ..nn.tensor import _accum, _make, _needs_grad

COSINE_EPS = 1e-12


def loss_pred(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean squared Euclidean error over the T−1 predictable steps,
    (1/(T−1)) Σ_t ‖g_{t+1} − ĝ_{t+1}‖², as one op."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    if predictions.data.shape != targets.data.shape:
        raise DimensionError(
            f"prediction shape {predictions.data.shape} != target shape {targets.data.shape}"
        )
    n = predictions.data.shape[0]
    if n < 1:
        raise TrainingError("prediction loss needs at least two windows (one transition)")
    diff = targets.data - predictions.data

    def backward(g):
        d = diff * (g * (2.0 / n))
        if _needs_grad(predictions):
            _accum(predictions, -d, fresh=True)
        _accum(targets, d, fresh=True)

    return _make((diff * diff).sum() * (1.0 / n), (predictions, targets), backward)


def _unit_rows(v: np.ndarray):
    """Rows scaled to unit length, v / (‖v‖ + ε), and the norms ‖v‖."""
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    return v / (norms + COSINE_EPS), norms


def _unit_rows_adjoint(d_unit: np.ndarray, v: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Adjoint of `_unit_rows` at v. A zero row gets a zero adjoint: its unit
    row is 0 whatever the parameters, so no parameter can move it."""
    live = norms > 0
    den = norms + COSINE_EPS
    radial = (v * d_unit).sum(axis=1, keepdims=True) / (np.where(live, norms, 1.0) * den * den)
    return np.where(live, d_unit / den - v * radial, 0.0)


def loss_contrastive_pooled(anchors: Tensor, positives: Tensor, pool: Tensor,
                            neg_counts: np.ndarray, tau: float = 0.2) -> Tensor:
    """Normalized InfoNCE with the positive in the denominator, against a
    shared candidate pool, as one op with a closed-form backward.

    anchors/positives: (S, d); pool: (U, d); ``neg_counts[s, u]`` holds the
    number of times pool row u was drawn as a negative for anchor s.
    Similarity is cosine with a 1e-12 guard added to each norm. The value
    equals InfoNCE over the explicitly gathered (S·K, d) negatives, but one
    (S, U) matmul replaces the gather.
    """
    anchors = as_tensor(anchors)
    positives = as_tensor(positives)
    pool = as_tensor(pool)
    S = anchors.data.shape[0]
    if S < 1:
        raise TrainingError("contrastive loss needs at least one anchor")
    counts = np.asarray(neg_counts, dtype=float)
    if counts.shape != (S, pool.data.shape[0]):
        raise DimensionError(
            f"count matrix shape {counts.shape} != ({S}, {pool.data.shape[0]})")
    if tau <= 0:
        raise TrainingError("temperature must be positive")

    na, norm_a = _unit_rows(anchors.data)
    np_, norm_p = _unit_rows(positives.data)
    npool, norm_u = _unit_rows(pool.data)
    inv_tau = 1.0 / tau

    pos_sim = (na * np_).sum(axis=1) * inv_tau                  # (S,)
    neg_terms = np.exp((na @ npool.T) * inv_tau) * counts         # (S, U)
    pos_term = np.exp(pos_sim)
    den = pos_term + neg_terms.sum(axis=1)                        # (S,)
    loss = (np.log(den) - pos_sim).sum() * (1.0 / S)

    def backward(g):
        # loss = mean over anchors of log(den_s) - pos_sim_s
        scale = g * (inv_tau / S) / den                           # (S,)
        d_pos = (scale * pos_term - g * (inv_tau / S)).reshape(-1, 1)  # dL/d(na·np_)
        d_neg = neg_terms * scale.reshape(-1, 1)                  # dL/d(na·npoolᵀ)
        _accum(anchors, _unit_rows_adjoint(d_pos * np_ + d_neg @ npool, anchors.data, norm_a),
               fresh=True)
        _accum(positives, _unit_rows_adjoint(d_pos * na, positives.data, norm_p), fresh=True)
        if _needs_grad(pool):
            _accum(pool, _unit_rows_adjoint(d_neg.T @ na, pool.data, norm_u), fresh=True)

    return _make(loss, (anchors, positives, pool), backward)


def loss_supervised(probabilities: Tensor, labels, weights, eps: float = 1e-8) -> Tensor:
    """Weighted cross-entropy −(1/T) Σ_t w_{y_t} ln(p_t^{(y_t)} + ε), as one
    op; a label outside 0..C−1 is refused."""
    probabilities = as_tensor(probabilities)
    T, C = probabilities.data.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (T,):
        raise DimensionError(f"labels shape {labels.shape} != ({T},)")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (C,):
        raise DimensionError(f"weights shape {weights.shape} != ({C},)")
    if (weights <= 0).any():
        raise TrainingError("class weights must be positive")
    bad = np.flatnonzero((labels < 0) | (labels >= C))
    if bad.size:
        raise TrainingError(f"label {labels[bad[0]]} at row {bad[0]} is outside 0..{C - 1}")
    onehot = np.zeros((T, C))
    onehot[np.arange(T), labels] = weights[labels]
    shifted = probabilities.data + eps

    def backward(g):
        _accum(probabilities, g * (-1.0 / T) * onehot / shifted, fresh=True)

    return _make((np.log(shifted) * onehot).sum() * (-1.0 / T), (probabilities,), backward)
