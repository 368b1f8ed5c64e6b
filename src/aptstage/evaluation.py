"""Detection-quality and temporal-stability metrics.

Per-class precision/recall/F1 use the zero-denominator→0 convention and macro
averages are unweighted over all 7 classes. AUPR is non-interpolated average
precision per one-vs-rest class (ties broken by window index), averaged over
classes with at least one positive. The temporal flip rate is the fraction of
adjacent same-trace windows whose predicted stages differ. Fold evaluation
splits traces into k contiguous temporal blocks and reports mean ± sample std.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, MetricError
from .telemetry.records import NUM_STAGES


def confusion_matrix(y_true, y_pred, num_classes: int = NUM_STAGES) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise InputError(f"label lengths differ: {y_true.shape} vs {y_pred.shape}")
    if y_true.size and not ((0 <= y_true).all() and (y_true < num_classes).all()
                            and (0 <= y_pred).all() and (y_pred < num_classes).all()):
        raise InputError(f"labels must lie in [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def classification_metrics(y_true, y_pred, num_classes: int = NUM_STAGES) -> dict:
    """Per-class and macro precision/recall/F1 plus accuracy."""
    cm = confusion_matrix(y_true, y_pred, num_classes)
    tp = np.diag(cm).astype(float)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    total = cm.sum()
    return {
        "confusion": cm,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_precision": float(precision.mean()),
        "macro_recall": float(recall.mean()),
        "macro_f1": float(f1.mean()),
        "accuracy": float(tp.sum() / total) if total else 0.0,
    }


def macro_f1(y_true, y_pred, num_classes: int = NUM_STAGES) -> float:
    return classification_metrics(y_true, y_pred, num_classes)["macro_f1"]


def average_precision(y_true_binary, scores) -> float:
    """Non-interpolated AP: mean of precision@rank over positive positions,
    ranked by descending score with ties broken by window index."""
    y = np.asarray(y_true_binary, dtype=bool)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape:
        raise InputError("score/label length mismatch")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("average precision undefined without positives")
    order = np.argsort(-s, kind="stable")  # stable keeps index order among ties
    hits = y[order]
    cum_tp = np.cumsum(hits)
    ranks = np.arange(1, y.size + 1)
    return float((cum_tp[hits] / ranks[hits]).sum() / n_pos)


def aupr(y_true, probabilities, num_classes: int = NUM_STAGES) -> float:
    """Macro AUPR over one-vs-rest classes that have at least one positive."""
    y_true = np.asarray(y_true, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or probs.shape != (y_true.size, num_classes):
        raise InputError(f"probability matrix must be ({y_true.size}, {num_classes})")
    aps = []
    for k in range(num_classes):
        positives = y_true == k
        if positives.any():
            aps.append(average_precision(positives, probs[:, k]))
    if not aps:
        raise MetricError("no class has positive examples")
    return float(np.mean(aps))


def temporal_flip_rate(y_pred) -> float:
    """(1/(T−1)) Σ 1[ŷ_t ≠ ŷ_{t−1}] over one time-ordered trace."""
    y = np.asarray(y_pred)
    if y.size < 2:
        raise MetricError("flip rate undefined for sequences shorter than 2")
    return float(np.mean(y[1:] != y[:-1]))


def flip_rate_over_traces(sequences) -> float:
    """Mean per-trace flip rate; traces shorter than 2 windows are skipped."""
    rates = [temporal_flip_rate(s) for s in sequences if len(s) >= 2]
    if not rates:
        raise MetricError("no trace long enough for a flip rate")
    return float(np.mean(rates))


def trace_scores(y_true, y_pred, probabilities, sequences) -> dict:
    """`classification_metrics` plus `aupr` and `tfr` (`flip_rate_over_traces`)
    over the four outputs of `training.predict_traces`."""
    return {**classification_metrics(y_true, y_pred),
            "aupr": aupr(y_true, probabilities),
            "tfr": flip_rate_over_traces(sequences)}


@dataclass
class MetricReport:
    """Aggregate over folds: metric name -> (mean, std); plus per-fold rows."""

    per_fold: list = field(default_factory=list)  # list of dict metric -> value
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"per_fold": self.per_fold, "mean": self.mean, "std": self.std}


def fold_blocks(n_items: int, k: int) -> list:
    """k contiguous index blocks covering range(n_items), sizes differing by
    at most one."""
    if k < 1:
        raise InputError("fold count must be >= 1")
    if n_items < k:
        raise InputError(f"cannot split {n_items} items into {k} folds")
    bounds = np.linspace(0, n_items, k + 1).round().astype(int)
    return [list(range(bounds[i], bounds[i + 1])) for i in range(k)]


def evaluate_folds(blocks: list, fit_eval) -> MetricReport:
    """Temporal k-fold evaluation over a list of k time-ordered blocks, as
    `fold_blocks` cuts them: each block is the test fold once, and
    `fit_eval(train_blocks, test_block)` runs the experiment recipe (training
    included) on the other blocks, in order, and returns a {metric: value}
    dict per fold."""
    report = MetricReport()
    for i, test_block in enumerate(blocks):
        report.per_fold.append(dict(fit_eval(blocks[:i] + blocks[i + 1:], test_block)))
    names = sorted({name for row in report.per_fold for name in row})
    for name in names:
        vals = np.array([row[name] for row in report.per_fold if name in row], dtype=float)
        report.mean[name] = float(vals.mean())
        report.std[name] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return report


def write_metrics_csv(path, report: MetricReport) -> None:
    """One row per fold plus an aggregate mean/std pair."""
    names = sorted(report.mean)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fold"] + names)
        for i, row in enumerate(report.per_fold):
            w.writerow([i] + [f"{row[n]:.10g}" if n in row else "" for n in names])
        w.writerow(["mean"] + [f"{report.mean[n]:.10g}" for n in names])
        w.writerow(["std"] + [f"{report.std[n]:.10g}" for n in names])


def write_metrics_json(path, report: MetricReport, extra: dict | None = None) -> None:
    doc = report.to_json_dict()
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
