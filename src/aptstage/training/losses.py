"""Training objectives: next-embedding prediction, temporal InfoNCE, and
class-weighted cross-entropy."""
from __future__ import annotations

import numpy as np

from ..errors import DimensionError, TrainingError
from ..nn import (
    Tensor,
    as_tensor,
    div,
    exp,
    log,
    matmul,
    mul,
    sqrt,
    sub,
    transpose,
    tsum,
)

COSINE_EPS = 1e-12


def loss_pred(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean squared Euclidean error over the T−1 predictable steps:
    (1/(T−1)) Σ_t ‖g_{t+1} − ĝ_{t+1}‖²."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    if predictions.data.shape != targets.data.shape:
        raise DimensionError(
            f"prediction shape {predictions.data.shape} != target shape {targets.data.shape}"
        )
    n = predictions.data.shape[0]
    if n < 1:
        raise TrainingError("prediction loss needs at least two windows (one transition)")
    diff = sub(targets, predictions)
    return mul(tsum(mul(diff, diff)), as_tensor(1.0 / n))


def _row_normalize(v: Tensor) -> Tensor:
    norms = sqrt(tsum(mul(v, v), axis=1, keepdims=True))
    return div(v, norms + as_tensor(COSINE_EPS))


def loss_contrastive_pooled(anchors: Tensor, positives: Tensor, pool: Tensor,
                            neg_counts: np.ndarray, tau: float = 0.2) -> Tensor:
    """Normalized InfoNCE with the positive in the denominator, against a
    shared candidate pool.

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

    na = _row_normalize(anchors)
    np_ = _row_normalize(positives)
    npool = _row_normalize(pool)
    inv_tau = as_tensor(1.0 / tau)

    pos_sim = mul(tsum(mul(na, np_), axis=1), inv_tau)                  # (S,)
    sims = mul(matmul(na, transpose(npool)), inv_tau)                   # (S, U)
    neg_den = tsum(mul(exp(sims), as_tensor(counts)), axis=1)           # (S,)
    den = exp(pos_sim) + neg_den
    per_anchor = sub(log(den), pos_sim)
    return mul(tsum(per_anchor), as_tensor(1.0 / S))


def loss_supervised(probabilities: Tensor, labels, weights, eps: float = 1e-8) -> Tensor:
    """Weighted cross-entropy −(1/T) Σ_t w_{y_t} ln(p_t^{(y_t)} + ε)."""
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
    onehot = np.zeros((T, C))
    onehot[np.arange(T), labels] = weights[labels]
    picked = mul(log(probabilities + as_tensor(eps)), as_tensor(onehot))
    return mul(tsum(picked), as_tensor(-1.0 / T))
