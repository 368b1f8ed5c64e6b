"""Classification metrics, average precision, flip rate, fold evaluation."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aptstage.errors import InputError, MetricError
from aptstage.evaluation import (
    aupr,
    average_precision,
    classification_metrics,
    confusion_matrix,
    evaluate_folds,
    flip_rate_over_traces,
    fold_blocks,
    macro_f1,
    temporal_flip_rate,
    trace_scores,
    write_metrics_csv,
    write_metrics_json,
)


def brute_force_metrics(y_true, y_pred, C):
    """Per-class P/R/F1 by counting loops (zero-denominator -> 0)."""
    precision, recall, f1 = [], [], []
    for k in range(C):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == k and p == k)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != k and p == k)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == k and p != k)
        P = tp / (tp + fp) if tp + fp else 0.0
        R = tp / (tp + fn) if tp + fn else 0.0
        precision.append(P)
        recall.append(R)
        f1.append(2 * P * R / (P + R) if P + R else 0.0)
    acc = sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)
    return precision, recall, f1, acc


def test_metrics_match_brute_force_over_many_cases():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, 7, size=n)
        y_pred = rng.integers(0, 7, size=n)
        got = classification_metrics(y_true, y_pred)
        P, R, F, acc = brute_force_metrics(y_true, y_pred, 7)
        assert np.allclose(got["precision"], P)
        assert np.allclose(got["recall"], R)
        assert np.allclose(got["f1"], F)
        assert got["accuracy"] == pytest.approx(acc)
        assert got["macro_f1"] == pytest.approx(float(np.mean(F)))


def test_metrics_hand_case():
    got = classification_metrics([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
    assert got["precision"][1] == pytest.approx(2 / 3)
    assert got["recall"][1] == pytest.approx(1.0)
    assert got["f1"][1] == pytest.approx(0.8)
    assert got["precision"][0] == pytest.approx(1.0)
    assert got["recall"][0] == pytest.approx(0.5)
    assert got["f1"][0] == pytest.approx(2 / 3)
    assert got["accuracy"] == pytest.approx(0.75)


def test_zero_denominator_convention():
    # class 2 never occurs in truth or prediction -> all zeros, no NaN
    got = classification_metrics([0, 1], [1, 0], num_classes=3)
    assert got["precision"][2] == got["recall"][2] == got["f1"][2] == 0.0
    assert np.isfinite(got["macro_f1"])


def test_confusion_matrix_errors():
    with pytest.raises(InputError):
        confusion_matrix([0, 1], [0])
    with pytest.raises(InputError):
        confusion_matrix([0, 9], [0, 1], num_classes=7)


def test_macro_f1_invariant_to_consistent_relabeling(rng):
    y_true = rng.integers(0, 7, size=50)
    y_pred = rng.integers(0, 7, size=50)
    perm = rng.permutation(7)
    assert macro_f1(perm[y_true], perm[y_pred]) == pytest.approx(
        macro_f1(y_true, y_pred))


# ---------------------------------------------------------------- AP / AUPR


def ap_oracle(y, s):
    """Average precision via explicit precision-at-each-positive-rank."""
    order = sorted(range(len(s)), key=lambda i: (-s[i], i))
    tp = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if y[i]:
            tp += 1
            total += tp / rank
    return total / sum(y)


def test_average_precision_perfect_ranking():
    assert average_precision([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(1.0)


def test_average_precision_positive_ranked_last():
    assert average_precision([0, 0, 0, 1], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(0.25)


def test_average_precision_matches_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 30))
        y = rng.integers(0, 2, size=n)
        if not y.any():
            y[0] = 1
        s = np.round(rng.random(n), 2)  # coarse scores force ties
        assert average_precision(y, s) == pytest.approx(ap_oracle(y, s), abs=1e-9)


def test_average_precision_monotone_transform_invariant(rng):
    y = rng.integers(0, 2, size=20)
    y[0] = 1
    s = rng.random(20)
    assert average_precision(y, s) == pytest.approx(
        average_precision(y, 10.0 * s - 3.0), abs=1e-12)


def test_average_precision_no_positives():
    with pytest.raises(MetricError):
        average_precision([0, 0], [0.5, 0.4])


def test_aupr_macro_over_present_classes(rng):
    y = np.array([0, 1, 0, 1, 2])
    probs = rng.random((5, 7))
    want = np.mean([ap_oracle(y == k, probs[:, k].tolist()) for k in (0, 1, 2)])
    assert aupr(y, probs) == pytest.approx(want, abs=1e-9)


def test_aupr_errors():
    with pytest.raises(InputError):
        aupr([0, 1], np.zeros((2, 5)))
    with pytest.raises(MetricError):
        aupr(np.zeros(0, dtype=int), np.zeros((0, 7)))


# ---------------------------------------------------------------- flip rate


def test_trace_scores_joins_the_three_metric_helpers():
    # two traces of three windows, as `predict_traces` returns them
    y_true = [0, 1, 2, 2, 3, 1]
    sequences = [np.array([0, 1, 1]), np.array([2, 3, 3])]
    y_pred = np.concatenate(sequences).tolist()
    probs = np.full((6, 7), 0.05)
    probs[np.arange(6), y_pred] = 0.7
    probs[1, 2] = 0.2  # window 1 ranks class 2 above the other non-predicted windows
    got = trace_scores(y_true, y_pred, probs, sequences)
    want = classification_metrics(y_true, y_pred)
    assert set(got) == set(want) | {"aupr", "tfr"}
    for name, value in want.items():
        assert np.array_equal(got[name], value), name
    assert got["aupr"] == aupr(y_true, probs)
    assert got["tfr"] == flip_rate_over_traces(sequences) == 0.5


def test_flip_rate_example():
    assert temporal_flip_rate([1, 1, 2, 2, 2]) == pytest.approx(0.25)


def test_flip_rate_constant_and_alternating():
    assert temporal_flip_rate([3, 3, 3, 3]) == 0.0
    assert temporal_flip_rate([0, 1, 0, 1]) == 1.0


def test_flip_rate_short_sequence():
    with pytest.raises(MetricError):
        temporal_flip_rate([1])


def test_flip_rate_over_traces_averages_per_trace():
    # per-trace rates 0.25 and 1.0 -> mean 0.625 (not pooled over windows)
    got = flip_rate_over_traces([[1, 1, 2, 2, 2], [0, 1]])
    assert got == pytest.approx((0.25 + 1.0) / 2)


def test_flip_rate_over_traces_skips_short():
    assert flip_rate_over_traces([[1], [2, 2]]) == 0.0
    with pytest.raises(MetricError):
        flip_rate_over_traces([[1], [2]])


@given(st.lists(st.integers(0, 6), min_size=2, max_size=50))
def test_flip_rate_counts_changes(seq):
    changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    assert temporal_flip_rate(seq) == pytest.approx(changes / (len(seq) - 1))


# ---------------------------------------------------------------- folds


def test_fold_blocks_cover_and_balance():
    blocks = fold_blocks(23, 5)
    assert [i for b in blocks for i in b] == list(range(23))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_fold_blocks_errors():
    with pytest.raises(InputError):
        fold_blocks(3, 5)
    with pytest.raises(InputError):
        fold_blocks(3, 0)


def test_evaluate_folds_mean_and_sample_std():
    blocks = fold_blocks(10, 2)
    values = iter([0.9, 1.0])

    def fit_eval(train, test):
        assert len(train) + 1 == 2
        assert test not in train
        return {"macro_f1": next(values)}

    report = evaluate_folds(blocks, fit_eval)
    assert report.mean["macro_f1"] == pytest.approx(0.95)
    assert report.std["macro_f1"] == pytest.approx(
        math.sqrt(((0.9 - 0.95) ** 2 + (1.0 - 0.95) ** 2) / 1), abs=1e-12)
    assert report.std["macro_f1"] == pytest.approx(0.0707, abs=5e-5)


def test_evaluate_folds_single_fold_std_zero():
    report = evaluate_folds([[1, 2, 3]], lambda tr, te: {"m": 0.5})
    assert report.std["m"] == 0.0
    # one block trains on the empty complement; the recipe decides whether that is valid
    assert report.per_fold == [{"m": 0.5}]


def test_evaluate_folds_temporal_blocks():
    seen = []
    evaluate_folds(fold_blocks(6, 3), lambda tr, te: seen.append((tr, te)) or {"m": 0.0})
    assert seen == [([[2, 3], [4, 5]], [0, 1]),
                    ([[0, 1], [4, 5]], [2, 3]),
                    ([[0, 1], [2, 3]], [4, 5])]


def test_metric_writers(tmp_path):
    report = evaluate_folds(fold_blocks(4, 2),
                            lambda tr, te: {"macro_f1": 0.5 + 0.1 * te[0]})
    csv_path = tmp_path / "metrics.csv"
    json_path = tmp_path / "metrics.json"
    write_metrics_csv(csv_path, report)
    write_metrics_json(json_path, report, extra={"config_hash": "abc"})
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fold", "macro_f1"]
    assert rows[-2][0] == "mean" and rows[-1][0] == "std"
    assert float(rows[-2][1]) == pytest.approx(report.mean["macro_f1"])
    doc = json.loads(json_path.read_text())
    assert doc["config_hash"] == "abc"
    assert doc["mean"]["macro_f1"] == pytest.approx(report.mean["macro_f1"])
