"""Reference computations made apart from the program, for output checks.

Nothing here imports `aptstage`: each oracle recomputes a quantity from raw
records, labels or predictions with plain Python, so a fault in the
program's own metric, windowing or fusion code cannot also hide in its check.
"""
from __future__ import annotations

import json
import math

WINDOW_SECONDS = 300.0


def macro_f1(y_true, y_pred, num_classes: int = 7):
    """(macro F1, per-class F1) from a confusion matrix built here, with the
    zero-denominator -> 0 convention, averaged over all classes."""
    cm = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(y_true, y_pred, strict=True):
        cm[int(t)][int(p)] += 1
    f1 = []
    for c in range(num_classes):
        tp = cm[c][c]
        fp = sum(cm[r][c] for r in range(num_classes)) - tp
        fn = sum(cm[c]) - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1) / num_classes, f1


def majority_macro_f1(train_labels, y_true, num_classes: int = 7) -> float:
    """Macro F1 of always predicting the most frequent training label."""
    counts = [0] * num_classes
    for k in train_labels:
        counts[int(k)] += 1
    majority = counts.index(max(counts))
    return macro_f1(y_true, [majority] * len(y_true), num_classes)[0]


def flips(sequence) -> int:
    return sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)


def flip_rate(sequences) -> float:
    """Mean over sequences of at least two steps of flips / (T - 1)."""
    rates = [flips(s) / (len(s) - 1) for s in sequences if len(s) >= 2]
    return sum(rates) / len(rates)


def jsonl_timestamps(text: str) -> list:
    return [float(json.loads(line)["ts"]) for line in text.splitlines() if line.strip()]


def window_count(stamps) -> int:
    """floor((max - min) / 300) + 1 over every raw record timestamp."""
    return int(math.floor((max(stamps) - min(stamps)) / WINDOW_SECONDS)) + 1


def alerts_per_window(event_stamps, alert_stamps) -> list:
    """Raw alerts falling in each window (the last window is closed). Each
    must become one alert node and one triggered_by edge."""
    stamps = list(event_stamps) + list(alert_stamps)
    t0, n = min(stamps), window_count(stamps)
    counts = [0] * n
    for ts in alert_stamps:
        counts[min(n - 1, int(math.floor((ts - t0) / WINDOW_SECONDS)))] += 1
    return counts


def curriculum(start: int, end: int, epoch: int, epochs: int) -> int:
    """Sequence length of a fine-tuning epoch: linear from start to end."""
    if epochs <= 1:
        return end
    return int(round(start + (end - start) * (epoch - 1) / (epochs - 1)))


def windows_per_epoch(trace_lengths, seq_len: int, min_len: int) -> int:
    """Windows through the recurrence in one epoch of sliding subsequences:
    each trace of n windows gives n - L + 1 subsequences of L = min(seq_len, n)."""
    total = 0
    for n in trace_lengths:
        L = min(seq_len, n)
        if L >= min_len:
            total += (n - L + 1) * L
    return total


def simplex_error(rows) -> float:
    """Largest deviation of a probability row from the simplex."""
    worst = 0.0
    for row in rows:
        worst = max(worst, abs(sum(float(v) for v in row) - 1.0), -min(float(v) for v in row))
    return worst


def argmax(row) -> int:
    """First index of the largest value."""
    best = 0
    for k in range(1, len(row)):
        if row[k] > row[best]:
            best = k
    return best
