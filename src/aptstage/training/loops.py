"""Self-supervised pretraining and two-phase supervised fine-tuning.

Pretraining slides length-20 subsequences over each trace and optimizes
λ_pred·L_pred + λ_ctr·L_ctr with Adam; negatives are drawn uniformly with
replacement from the batch's other windows. Fine-tuning phase 1 trains the
upper recurrent layer and heads with everything else frozen (the training
and validation windows' embeddings are cached once, since the encoder cannot
change); phase 2 unfreezes end-to-end. Both phases use a linear 10→30
sequence-length curriculum and early stopping on validation macro F1 with
best-checkpoint restore.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..errors import TrainingError, ValidationError
from ..estimator import classify, predict_next, recurrent_forward
from ..evaluation import macro_f1
from ..features import featurize_graph
from ..model import (
    FREEZE_ENCODER,
    FREEZE_LOWER_RECURRENT,
    ModelConfig,
    encode_windows,
    infer_probabilities,
    stage_probabilities,
)
from ..nn import AdamState, adam_step, as_tensor, clip_gradients, gather_rows, no_grad, weighted_sum
from ..telemetry.records import NUM_STAGES
from .losses import loss_contrastive_pooled, loss_pred, loss_supervised

log = logging.getLogger(__name__)


class WindowRecord(NamedTuple):
    """A featurized window; `model.encode_windows` reads its first three fields."""

    X: sp.csr_array  # (|V|, d_x) raw node features, sparse
    Z: np.ndarray    # (|E|, d_e) raw edge features
    graph: object
    label: int | None = None


@dataclass
class Trace:
    trace_id: str
    windows: list


@dataclass(frozen=True)
class PretrainConfig:
    seq_len: int = 20
    tau: float = 0.2
    negatives: int = 256
    lambda_pred: float = 1.0
    lambda_ctr: float = 1.0
    lr: float = 1e-3
    weight_decay: float = 1e-5
    batch: int = 64
    epochs: int = 20
    clip: float = 5.0
    train_encoder: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("tau must be > 0")
        if self.negatives < 1:
            raise ValidationError("negatives must be >= 1")
        if self.seq_len < 2:
            raise ValidationError("seq_len must be >= 2")
        if self.lambda_pred < 0 or self.lambda_ctr < 0:
            raise ValidationError("lambda_pred and lambda_ctr must be >= 0")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValidationError("lr and weight_decay must be >= 0")
        if self.batch < 1 or self.epochs < 1 or self.clip <= 0:
            raise ValidationError("batch, epochs and clip must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class FinetuneConfig:
    eps: float = 1e-8
    phase1_epochs: int = 10
    phase1_lr: float = 1e-4
    phase2_epochs: int = 20
    phase2_lr: float = 5e-5
    curriculum_start: int = 10
    curriculum_end: int = 30
    patience: int = 5
    batch: int = 64
    weight_decay: float = 1e-5
    clip: float = 5.0
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValidationError("eps must be > 0: it keeps ln(p + eps) finite")
        if self.phase1_epochs < 1 or self.phase2_epochs < 1:
            raise ValidationError("phase1_epochs and phase2_epochs must be >= 1")
        if not (0 < self.curriculum_start <= self.curriculum_end):
            raise ValidationError("curriculum lengths must satisfy 0 < start <= end")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if not (0 < self.val_fraction < 1):
            raise ValidationError("val_fraction must be in (0, 1)")
        if self.phase1_lr < 0 or self.phase2_lr < 0 or self.weight_decay < 0:
            raise ValidationError("phase1_lr, phase2_lr and weight_decay must be >= 0")
        if self.batch < 1 or self.clip <= 0:
            raise ValidationError("batch and clip must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


def curriculum_length(start: int, end: int, epoch: int, total_epochs: int) -> int:
    """Linear interpolation from `start` (epoch 1) to `end` (final epoch)."""
    if total_epochs <= 1:
        return end
    frac = (epoch - 1) / (total_epochs - 1)
    return int(round(start + (end - start) * frac))


def class_weights(labels, num_classes: int = NUM_STAGES) -> np.ndarray:
    """w_k = total/(C·count_k) with a median fallback for absent classes."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=num_classes)[:num_classes]
    total = counts.sum()
    if total == 0:
        raise TrainingError("no labeled windows")
    w = np.zeros(num_classes)
    present = counts > 0
    w[present] = total / (num_classes * counts[present])
    if (~present).any():
        fallback = float(np.median(w[present]))
        w[~present] = fallback
        log.warning("classes %s absent from training split; using median weight %.4g",
                    np.nonzero(~present)[0].tolist(), fallback)
    return w


def _subsequences(traces, seq_len: int, min_len: int):
    items = []  # (trace_idx, start, length)
    for ti, tr in enumerate(traces):
        n = len(tr.windows)
        L = min(seq_len, n)
        if L < min_len:
            continue
        items.extend((ti, s, L) for s in range(n - L + 1))
    return items


def _batches(items, batch_size: int, rng) -> list:
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    shuffled.sort(key=lambda it: it[2])  # stable: same-length runs keep shuffle order
    out, cur = [], []
    for it in shuffled:
        if cur and (len(cur) == batch_size or cur[0][2] != it[2]):
            out.append(cur)
            cur = []
        cur.append(it)
    if cur:
        out.append(cur)
    return out


def _batch_layout(batch):
    """Unique (trace, window) refs of a batch plus the (B, L) row matrix."""
    refs, index = [], {}
    for ti, s, L in batch:
        for w in range(s, s + L):
            if (ti, w) not in index:
                index[(ti, w)] = len(refs)
                refs.append((ti, w))
    seq_rows = np.array([[index[(ti, s + t)] for t in range(L)] for ti, s, L in batch],
                        dtype=np.int64)
    return refs, seq_rows


def _anchor_rows(B: int, L: int) -> np.ndarray:
    return (np.arange(L - 1)[None, :] + np.arange(B)[:, None] * L).ravel()


def _batch_forward(batch, traces, cache, store, mcfg: ModelConfig, dropout_seed: int):
    """Train-mode forward of one batch up to the recurrence: encode its unique
    windows (or read them from the frozen-encoder cache), lay them out as
    sequence-major rows and run the LSTM. Returns (g_all, seq_rows, g_seq, h):
    unique embeddings, the (B, L) row matrix into them, and the (B*L, ·)
    recurrence inputs and top-layer states."""
    refs, seq_rows = _batch_layout(batch)
    if cache is None:
        g_all = encode_windows([traces[ti].windows[w] for ti, w in refs], store, mcfg).g
    else:
        g_all = as_tensor(np.stack([cache[ti][w] for ti, w in refs]))
    g_seq = gather_rows(g_all, seq_rows.ravel())
    h = recurrent_forward(g_seq, store, mcfg, mode="train",
                          dropout_seed=dropout_seed, batch=seq_rows.shape[0])
    return g_all, seq_rows, g_seq, h


def _optimizer_step(loss, store, adam: AdamState, lr: float, weight_decay: float,
                    clip: float, where: str) -> None:
    """zero_grad, backward, global-norm clip and Adam. A non-finite loss or
    gradient norm stops training before Adam sees it; the error names the
    first parameter whose gradient is non-finite."""
    if not np.isfinite(loss.data).all():
        raise TrainingError(f"non-finite loss at {where}")
    store.zero_grad()
    loss.backward()
    if not np.isfinite(clip_gradients(store, clip)):
        bad = [n for n in store.names() if store.tensor(n).grad is not None
               and not np.isfinite(store.tensor(n).grad).all()]
        raise TrainingError(f"non-finite gradient at {where}: "
                            + (bad[0] if bad else "the global norm overflows"))
    adam_step(store, adam, lr=lr, weight_decay=weight_decay)


def _embedding_cache(traces, store, mcfg: ModelConfig):
    """Per-trace g_t matrices computed once; only valid while encoder and
    projection parameters stay frozen."""
    caches = []
    with no_grad():
        for tr in traces:
            caches.append(encode_windows(tr.windows, store, mcfg).g.data.copy())
    return caches


def _derive_seed(*parts) -> np.random.Generator:
    return np.random.default_rng(tuple(int(p) for p in parts))


def _dropout_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


@dataclass
class PretrainResult:
    loss_log: list = field(default_factory=list)


def pretrain(traces, store, mcfg: ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    """Optimize L_ssl = λ_pred·L_pred + λ_ctr·L_ctr over sliding subsequences."""
    items = _subsequences(traces, cfg.seq_len, min_len=2)
    if not items:
        raise TrainingError("pretraining corpus has no usable sequences (need >= 2 windows)")

    cache = None if cfg.train_encoder else _embedding_cache(traces, store, mcfg)
    adam = AdamState()
    result = PretrainResult()

    def train_batch(batch, epoch: int, bi: int):
        """One optimizer step; returns (L_pred, L_ctr, anchors) as plain
        numbers so no tape outlives the step."""
        g_all, seq_rows, g_seq, h = _batch_forward(
            batch, traces, cache, store, mcfg, _dropout_seed(cfg.seed, 13, epoch, bi))
        B, L = seq_rows.shape
        arows = _anchor_rows(B, L)
        ghat = predict_next(gather_rows(h, arows), store)
        g_target = gather_rows(g_seq, arows + 1)

        l_pred = loss_pred(ghat, g_target)

        # min_len=2 gives every batch at least two unique windows (U >= 2)
        U = g_all.data.shape[0]
        pos_unique = seq_rows.ravel()[arows + 1]
        neg_rng = _derive_seed(cfg.seed, 17, epoch, bi)
        S = arows.shape[0]
        draw = neg_rng.integers(0, U - 1, size=(S, cfg.negatives))
        draw = draw + (draw >= pos_unique[:, None])  # uniform over pool minus positive
        counts = np.bincount((draw + U * np.arange(S)[:, None]).ravel(),
                             minlength=S * U).reshape(S, U)
        # pooled form == explicit (S·K, d) gather, without materializing it
        l_ctr = loss_contrastive_pooled(ghat, g_target, g_all, counts, tau=cfg.tau)

        loss = weighted_sum([(cfg.lambda_pred, l_pred), (cfg.lambda_ctr, l_ctr)])
        _optimizer_step(loss, store, adam, cfg.lr, cfg.weight_decay, cfg.clip,
                        f"pretrain epoch {epoch} batch {bi}")
        return float(l_pred.data), float(l_ctr.data), S

    with store.frozen(() if cfg.train_encoder else FREEZE_ENCODER):
        for epoch in range(1, cfg.epochs + 1):
            rng = _derive_seed(cfg.seed, 11, epoch)
            sum_pred = sum_ctr = 0.0
            n_anchors = 0
            for bi, batch in enumerate(_batches(items, cfg.batch, rng)):
                l_pred, l_ctr, S = train_batch(batch, epoch, bi)
                sum_pred += l_pred * S
                sum_ctr += l_ctr * S
                n_anchors += S
            mean_pred = sum_pred / n_anchors
            mean_ctr = sum_ctr / n_anchors
            result.loss_log.append({
                "epoch": epoch,
                "loss_pred": mean_pred,
                "loss_ctr": mean_ctr,
                "loss_ssl": cfg.lambda_pred * mean_pred + cfg.lambda_ctr * mean_ctr,
            })
    return result


def predict_trace(trace, store, mcfg: ModelConfig, g=None) -> np.ndarray:
    """Eval-mode per-window stage probabilities for one trace. `g`, the
    trace's window embeddings from `_embedding_cache`, replaces encoding
    while the encoder is frozen."""
    if g is not None:
        return stage_probabilities(g, store, mcfg)
    return infer_probabilities(trace.windows, store, mcfg)


def predict_traces(traces, store, mcfg: ModelConfig, cache=None):
    """Eval-mode predictions over labeled traces, one `predict_trace` each
    (from `cache[i]`, the embeddings of trace i, if given). Returns (y_true,
    y_pred, probabilities (n_windows, C), per-trace predicted stage
    sequences)."""
    y_true, y_pred, probs, sequences = [], [], [np.zeros((0, mcfg.num_classes))], []
    for i, tr in enumerate(traces):
        p = predict_trace(tr, store, mcfg, None if cache is None else cache[i])
        pred = p.argmax(axis=1)
        y_true.extend(int(w.label) for w in tr.windows)
        y_pred.extend(int(k) for k in pred)
        probs.append(p)
        sequences.append(pred)
    return y_true, y_pred, np.concatenate(probs, axis=0), sequences


def featurize_trace(trace_id: str, graphs, labels, vocab, stats, config) -> Trace:
    """A Trace of featurized windows from a time-ordered graph sequence;
    `labels` holds one stage per window, or is None for unlabeled data."""
    return Trace(trace_id=trace_id, windows=[
        WindowRecord(*featurize_graph(g, vocab, stats, config), graph=g,
                     label=None if labels is None else labels[i])
        for i, g in enumerate(graphs)])


def _validation_macro_f1(val_traces, store, mcfg: ModelConfig, cache=None) -> float:
    y_true, y_pred, _, _ = predict_traces(val_traces, store, mcfg, cache)
    if not y_true:
        raise TrainingError("validation split has no labeled windows")
    return macro_f1(y_true, y_pred, num_classes=mcfg.num_classes)


def split_train_val(traces, val_fraction: float):
    """Hold out the temporally-last traces for validation (no shuffling). A
    single trace holds out its last windows, so validation is never training."""
    if len(traces) == 1:
        (tr,) = traces
        if len(tr.windows) < 2:
            raise TrainingError(f"trace {tr.trace_id} has {len(tr.windows)} window(s); "
                                "at least 2 are needed so the last ones validate")
        train, val = split_train_val(tr.windows, val_fraction)  # the same rule over windows
        return [Trace(tr.trace_id, train)], [Trace(f"{tr.trace_id}-val", val)]
    n_val = min(max(1, int(round(val_fraction * len(traces)))), len(traces) - 1)
    return list(traces[:-n_val]), list(traces[-n_val:])


@dataclass
class FinetuneResult:
    metric_log: list = field(default_factory=list)


def finetune(traces, store, mcfg: ModelConfig, cfg: FinetuneConfig,
             val_traces=None, val_metric_fn=None) -> FinetuneResult:
    """Two-phase supervised fine-tuning. `val_metric_fn(store, phase, epoch)`
    may replace the default validation macro-F1 computation (used by tests)."""
    if val_traces is None:
        train_traces, val_traces = split_train_val(traces, cfg.val_fraction)
    else:
        train_traces = list(traces)
    for tr in train_traces:
        for w in tr.windows:
            if w.label is None:
                raise TrainingError(f"trace {tr.trace_id} has unlabeled windows")

    labels = [w.label for tr in train_traces for w in tr.windows]
    weights = class_weights(labels, num_classes=mcfg.num_classes)
    result = FinetuneResult()

    def train_batch(batch, cache, adam, lr, phase: str, pi: int, epoch: int, bi: int):
        """One optimizer step; returns (summed L_sup, rows) as plain numbers
        so no tape outlives the step."""
        _, _, _, h = _batch_forward(batch, train_traces, cache, store, mcfg,
                                    _dropout_seed(cfg.seed, 23 + pi, epoch, bi))
        p = classify(h, store)
        y = np.array([train_traces[ti].windows[s + t].label
                      for ti, s, L in batch for t in range(L)], dtype=np.int64)
        l_sup = loss_supervised(p, y, weights, eps=cfg.eps)
        _optimizer_step(l_sup, store, adam, lr, cfg.weight_decay, cfg.clip,
                        f"{phase} epoch {epoch} batch {bi}")
        return float(l_sup.data) * y.shape[0], y.shape[0]

    phases = (  # (name, epochs, learning rate, frozen parameter-name prefixes)
        ("phase1", cfg.phase1_epochs, cfg.phase1_lr, FREEZE_LOWER_RECURRENT + FREEZE_ENCODER),
        ("phase2", cfg.phase2_epochs, cfg.phase2_lr, ()),
    )
    for pi, (phase, epochs, lr, frozen) in enumerate(phases):
        with store.frozen(frozen):
            cache = _embedding_cache(train_traces, store, mcfg) if frozen else None
            val_cache = (_embedding_cache(val_traces, store, mcfg)
                         if frozen and val_metric_fn is None else None)
            adam = AdamState()
            best_f1 = -np.inf
            best_snap = store.snapshot()
            bad = 0
            for epoch in range(1, epochs + 1):
                seq_len = curriculum_length(cfg.curriculum_start, cfg.curriculum_end,
                                            epoch, epochs)
                items = _subsequences(train_traces, seq_len, min_len=1)
                if not items:
                    raise TrainingError("no training subsequences")
                rng = _derive_seed(cfg.seed, 19 + pi, epoch)
                sum_loss = 0.0
                n_rows = 0
                for bi, batch in enumerate(_batches(items, cfg.batch, rng)):
                    loss, rows = train_batch(batch, cache, adam, lr, phase, pi, epoch, bi)
                    sum_loss += loss
                    n_rows += rows

                if val_metric_fn is not None:
                    val_f1 = float(val_metric_fn(store, phase, epoch))
                else:
                    val_f1 = _validation_macro_f1(val_traces, store, mcfg, val_cache)
                result.metric_log.append({
                    "phase": phase,
                    "epoch": epoch,
                    "seq_len": seq_len,
                    "loss_sup": sum_loss / max(1, n_rows),
                    "val_f1": val_f1,
                })
                if val_f1 > best_f1:
                    best_f1 = val_f1
                    best_snap = store.snapshot()
                    bad = 0
                else:
                    bad += 1
                    if bad >= cfg.patience:
                        break
            store.set_values(best_snap)
    return result
