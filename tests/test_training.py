"""Training objectives and the pretrain/finetune loops."""
import logging
import math
import weakref

import numpy as np
import pytest

from aptstage.errors import DimensionError, TrainingError
from aptstage.features import fit_vocab_and_stats
from aptstage.graphs import Edge, Node, NodeKind, ProvenanceGraph, Relation, build_graph_sequence
from aptstage.model import ModelConfig, build_param_store
from aptstage.nn import AdamState, ParamStore, sqrt, tsum
from aptstage.telemetry import ScenarioConfig, default_campaign_schedule, generate_scenario
from aptstage.training import (
    FinetuneConfig,
    PretrainConfig,
    Trace,
    WindowRecord,
    class_weights,
    curriculum_length,
    featurize_trace,
    finetune,
    loss_contrastive_pooled,
    loss_pred,
    loss_supervised,
    pretrain,
    split_train_val,
)
from aptstage.training import loops

from nn_reference import block_counts, loss_contrastive

# ---------------------------------------------------------------- loss_pred


def test_loss_pred_zero_for_exact_prediction(rng):
    g = rng.normal(size=(4, 3))
    assert float(loss_pred(g, g).data) == 0.0


def test_loss_pred_matches_scalar_oracle(rng):
    pred = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 3))
    want = sum(
        sum((target[t, j] - pred[t, j]) ** 2 for j in range(3)) for t in range(5)
    ) / 5.0
    assert abs(float(loss_pred(pred, target).data) - want) < 1e-12


def test_loss_pred_errors():
    with pytest.raises(DimensionError):
        loss_pred(np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(TrainingError):
        loss_pred(np.zeros((0, 2)), np.zeros((0, 2)))


# ---------------------------------------------------------------- InfoNCE


def pooled_nce(anchors, positives, negatives, tau):
    """`loss_contrastive_pooled` with the K = rows / S explicit negatives of
    each anchor as the pool."""
    S = anchors.shape[0]
    counts = block_counts(S, negatives.shape[0] // S)
    return float(loss_contrastive_pooled(anchors, positives, negatives, counts, tau=tau).data)


def test_contrastive_uniform_similarities():
    # every candidate identical -> softmax over 257 equal terms
    v = np.tile([1.0, 2.0, 3.0], (1, 1))
    negatives = np.tile([1.0, 2.0, 3.0], (256, 1))
    loss = pooled_nce(v, v, negatives, tau=0.2)
    assert abs(loss - math.log(257)) < 1e-9


def test_contrastive_single_equal_negative():
    v = np.array([[0.3, -0.7]])
    loss = pooled_nce(v, v, v, tau=0.2)
    assert abs(loss - math.log(2)) < 1e-9


def test_contrastive_saturated_positive():
    # cos(anchor, positive)=1, cos(anchor, negatives)=-1, tau=0.2
    a = np.array([[1.0, 0.0]])
    negatives = np.tile([-1.0, 0.0], (256, 1))
    loss = pooled_nce(a, a, negatives, tau=0.2)
    want = math.log(1 + 256 * math.exp(-10.0))
    assert abs(loss - want) < 1e-9
    assert abs(loss - 1.16e-2) < 2e-4


def _nce_oracle(anchors, positives, negatives, tau):
    eps = 1e-12
    S, K = anchors.shape[0], negatives.shape[0] // anchors.shape[0]

    def unit(v):
        return v / (np.linalg.norm(v) + eps)

    total = 0.0
    for s in range(S):
        a = unit(anchors[s])
        pos = math.exp(np.dot(a, unit(positives[s])) / tau)
        den = pos + sum(
            math.exp(np.dot(a, unit(negatives[s * K + k])) / tau) for k in range(K)
        )
        total += -math.log(pos / den)
    return total / S


def test_contrastive_matches_scalar_oracle(rng):
    S, K, d = 4, 3, 5
    anchors = rng.normal(size=(S, d))
    positives = rng.normal(size=(S, d))
    negatives = rng.normal(size=(S * K, d))
    got = pooled_nce(anchors, positives, negatives, 0.2)
    assert abs(got - _nce_oracle(anchors, positives, negatives, 0.2)) < 1e-12


def test_pooled_contrastive_equals_gathered_rows(rng):
    S, K, U, d = 5, 7, 6, 4
    anchors = rng.normal(size=(S, d))
    positives = rng.normal(size=(S, d))
    pool = rng.normal(size=(U, d))
    draw = rng.integers(0, U, size=(S, K))
    counts = np.zeros((S, U))
    np.add.at(counts, (np.repeat(np.arange(S), K), draw.ravel()), 1.0)
    negatives = pool[draw.ravel()]
    lhs = float(loss_contrastive_pooled(anchors, positives, pool, counts, tau=0.2).data)
    rhs = float(loss_contrastive(anchors, positives, negatives, tau=0.2).data)
    assert abs(lhs - rhs) < 1e-12


def test_contrastive_errors():
    v = np.ones((2, 3))
    with pytest.raises(DimensionError):
        loss_contrastive_pooled(v, v, np.ones((4, 3)), np.zeros((2, 5)))
    with pytest.raises(TrainingError):
        loss_contrastive_pooled(v, v, np.ones((2, 3)), np.ones((2, 2)), tau=0.0)
    with pytest.raises(TrainingError):
        loss_contrastive_pooled(np.ones((0, 3)), np.ones((0, 3)), v, np.zeros((0, 2)))


# ---------------------------------------------------------------- supervised


def test_supervised_perfect_prediction():
    p = np.eye(7)[np.array([2, 5])]
    loss = float(loss_supervised(p, [2, 5], np.ones(7)).data)
    assert abs(loss) < 1e-7


def test_supervised_uniform_gives_ln7():
    p = np.full((3, 7), 1.0 / 7.0)
    loss = float(loss_supervised(p, [0, 3, 6], np.ones(7)).data)
    assert abs(loss - math.log(7)) < 1e-6


def test_supervised_matches_scalar_oracle(rng):
    T, C = 6, 7
    logits = rng.normal(size=(T, C))
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    y = rng.integers(0, C, size=T)
    w = rng.uniform(0.5, 2.0, size=C)
    want = -sum(w[y[t]] * math.log(p[t, y[t]] + 1e-8) for t in range(T)) / T
    got = float(loss_supervised(p, y, w).data)
    assert abs(got - want) < 1e-12


def test_supervised_errors():
    p = np.full((2, 7), 1.0 / 7.0)
    with pytest.raises(DimensionError):
        loss_supervised(p, [0], np.ones(7))
    with pytest.raises(DimensionError):
        loss_supervised(p, [0, 1], np.ones(5))
    with pytest.raises(TrainingError):
        loss_supervised(p, [0, 1], np.zeros(7))


# ---------------------------------------------------------------- weights


def test_class_weights_balanced():
    w = class_weights([0, 1, 2, 3, 4, 5, 6] * 3)
    assert np.allclose(w, 1.0)


def test_class_weights_inverse_frequency():
    # 6 windows: class 0 x4, class 1 x2 over C=2
    w = class_weights([0, 0, 0, 0, 1, 1], num_classes=2)
    assert np.allclose(w, [6 / (2 * 4), 6 / (2 * 2)])


def test_class_weights_median_fallback_warns(caplog):
    with caplog.at_level(logging.WARNING):
        w = class_weights([0, 0, 1, 1, 1, 1, 2], num_classes=7)
    present = w[[0, 1, 2]]
    assert np.allclose(w[3:], np.median(present))
    assert any("absent" in r.message for r in caplog.records)


def test_class_weights_empty():
    with pytest.raises(TrainingError):
        class_weights([])


# ---------------------------------------------------------------- schedule


def test_curriculum_endpoints_and_monotone():
    lens = [curriculum_length(10, 30, e, 20) for e in range(1, 21)]
    assert lens[0] == 10
    assert lens[-1] == 30
    assert all(b >= a for a, b in zip(lens, lens[1:]))
    assert curriculum_length(10, 30, 1, 1) == 30


def test_split_train_val_temporal():
    traces = [Trace(f"t{i}", []) for i in range(10)]
    train, val = split_train_val(traces, 0.2)
    assert [t.trace_id for t in val] == ["t8", "t9"]
    assert len(train) == 8
    # a single trace holds out its last windows: round(0.2 * 8) = 2
    windows = [WindowRecord(None, None, None, label=i) for i in range(8)]
    train, val = split_train_val([Trace("only", windows)], 0.2)
    assert [w.label for tr in train for w in tr.windows] == list(range(6))
    assert [w.label for tr in val for w in tr.windows] == [6, 7]
    # at least one window on each side
    train, val = split_train_val([Trace("pair", windows[:2])], 0.9)
    assert [len(tr.windows) for tr in train + val] == [1, 1]
    with pytest.raises(TrainingError, match="at least 2"):
        split_train_val([Trace("one", windows[:1])], 0.2)


# ---------------------------------------------------------------- loops

D_X, D_E = 196, 26
MCFG = ModelConfig(d_h=8, d_g=8, hidden=8)


def make_trace(tid, n_windows, rng, offset=0):
    windows = []
    for w in range(n_windows):
        n = 3
        nodes = tuple(Node(NodeKind.PROCESS, f"{tid}n{i}", {"first_ts": 0.0})
                      for i in range(n))
        edges = (Edge(Relation.READ, 0, 1, 1.0), Edge(Relation.WRITE, 1, 2, 2.0)) + tuple(
            Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(n))
        g = ProvenanceGraph(w, w * 300.0, nodes, edges)
        windows.append(WindowRecord(
            X=rng.normal(size=(n, D_X)), Z=rng.normal(size=(len(edges), D_E)),
            graph=g, label=(w + offset) % 7))
    return Trace(tid, windows)


def corpus(rng, n_traces=3, n_windows=6):
    return [make_trace(f"t{i}", n_windows, rng, offset=i) for i in range(n_traces)]


def test_pretrain_zero_lr_leaves_params_untouched(rng):
    traces = corpus(rng)
    store = build_param_store(MCFG)
    before = store.snapshot()
    pretrain(traces, store, MCFG, PretrainConfig(epochs=2, batch=2, negatives=4,
                                                 lr=0.0, weight_decay=0.0))
    after = store.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_pretrain_loss_mix():
    rng = np.random.default_rng(1)
    traces = corpus(rng)
    store = build_param_store(MCFG)
    cfg = PretrainConfig(epochs=1, batch=2, negatives=4, lambda_ctr=0.0)
    log_pred = pretrain(traces, store, MCFG, cfg).loss_log[0]
    assert log_pred["loss_ssl"] == pytest.approx(log_pred["loss_pred"])
    store2 = build_param_store(MCFG)
    cfg2 = PretrainConfig(epochs=1, batch=2, negatives=4, lambda_pred=0.0)
    log_ctr = pretrain(traces, store2, MCFG, cfg2).loss_log[0]
    assert log_ctr["loss_ssl"] == pytest.approx(log_ctr["loss_ctr"])


def test_pretrain_seed_reproducible(rng):
    traces = corpus(rng)
    outs = []
    for _ in range(2):
        store = build_param_store(MCFG)
        res = pretrain(traces, store, MCFG,
                       PretrainConfig(epochs=2, batch=2, negatives=4, seed=5))
        outs.append((store.snapshot(), res.loss_log))
    (s1, l1), (s2, l2) = outs
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    assert l1 == l2


def test_pretrain_rejects_single_window_traces(rng):
    traces = [make_trace("t0", 1, rng)]
    store = build_param_store(MCFG)
    with pytest.raises(TrainingError):
        pretrain(traces, store, MCFG, PretrainConfig(epochs=1))


def test_pretrain_with_frozen_encoder_trains_the_recurrence_only(monkeypatch):
    sequences = [build_graph_sequence(*generate_scenario(ScenarioConfig(
        num_hosts=1, duration=1800.0, stage_schedule=default_campaign_schedule(1800.0),
        seed=seed))[:2]) for seed in (0, 1, 2)]
    vocab, stats = fit_vocab_and_stats([g for gs in sequences for g in gs], MCFG.featurizer)
    traces = [featurize_trace(f"t{i}", gs, None, vocab, stats, MCFG.featurizer)
              for i, gs in enumerate(sequences)]
    encoded = []
    encode = loops.encode_windows
    monkeypatch.setattr(loops, "encode_windows",
                        lambda windows, *args: encoded.append(len(windows)) or encode(windows, *args))
    store = build_param_store(MCFG)
    before = store.snapshot()
    log = pretrain(traces, store, MCFG, PretrainConfig(epochs=2, batch=4, negatives=8,
                                                       train_encoder=False)).loss_log
    after = store.snapshot()
    assert encoded == [len(tr.windows) for tr in traces]  # once per trace, into the cache
    assert all(np.array_equal(before[k], after[k]) for k in before if k.startswith(("enc.", "proj.")))
    assert any(not np.array_equal(before[k], after[k]) for k in before if k.startswith("lstm."))
    assert len(log) == 2
    assert all(math.isfinite(row[k]) for row in log for k in ("loss_pred", "loss_ctr", "loss_ssl"))


def test_finetune_phase1_freezes_encoder_and_lower_recurrent(rng):
    traces = corpus(rng)
    store = build_param_store(MCFG)
    before = store.snapshot()
    cfg = FinetuneConfig(phase1_epochs=2, phase2_epochs=1, phase2_lr=0.0,
                         patience=3, batch=2, val_fraction=0.34)
    finetune(traces, store, MCFG, cfg)
    after = store.snapshot()
    frozen_prefixes = ("enc.", "proj.", "lstm.L0.")
    thawed = [k for k in before if not k.startswith(frozen_prefixes)]
    assert all(np.array_equal(before[k], after[k])
               for k in before if k.startswith(frozen_prefixes))
    assert any(not np.array_equal(before[k], after[k]) for k in thawed)


def test_finetune_early_stopping_restores_best(rng):
    traces = corpus(rng)
    store = build_param_store(MCFG)
    snaps = {}
    calls = []

    def scripted(st, phase, epoch):
        calls.append((phase, epoch))
        if phase == "phase1" and epoch == 1:
            snaps["best"] = st.snapshot()
        return 1.0 / epoch  # strictly decreasing -> epoch 1 is always best

    cfg = FinetuneConfig(phase1_epochs=50, phase2_epochs=50, phase2_lr=0.0,
                         patience=5, batch=2)
    res = finetune(traces, store, MCFG, cfg, val_traces=[], val_metric_fn=scripted)
    phase1 = [r for r in res.metric_log if r["phase"] == "phase1"]
    phase2 = [r for r in res.metric_log if r["phase"] == "phase2"]
    # epoch 1 best, epochs 2..6 exhaust patience 5
    assert len(phase1) == 6 and len(phase2) == 6
    final = store.snapshot()
    assert all(np.array_equal(final[k], snaps["best"][k]) for k in final)


def test_finetune_curriculum_logged(rng):
    traces = corpus(rng)
    store = build_param_store(MCFG)
    cfg = FinetuneConfig(phase1_epochs=5, phase2_epochs=5, patience=10, batch=2,
                         curriculum_start=2, curriculum_end=6)
    res = finetune(traces, store, MCFG, cfg)
    for phase in ("phase1", "phase2"):
        lens = [r["seq_len"] for r in res.metric_log if r["phase"] == phase]
        assert lens[0] == 2 and lens[-1] == 6
        assert all(b >= a for a, b in zip(lens, lens[1:]))


def test_finetune_requires_labels(rng):
    traces = corpus(rng)
    traces[0].windows[2].label = None
    store = build_param_store(MCFG)
    with pytest.raises(TrainingError):
        finetune(traces, store, MCFG, FinetuneConfig(phase1_epochs=1, phase2_epochs=1))


def test_finetune_seed_reproducible(rng):
    traces = corpus(rng)
    cfg = FinetuneConfig(phase1_epochs=2, phase2_epochs=2, patience=5, batch=2,
                         seed=3)
    snaps = []
    for _ in range(2):
        store = build_param_store(MCFG)
        finetune(traces, store, MCFG, cfg)
        snaps.append(store.snapshot())
    assert all(np.array_equal(snaps[0][k], snaps[1][k]) for k in snaps[0])


# ---------------------------------------------------------------- step hygiene


def _track_batch_tapes(monkeypatch, loss_name):
    """Wrap `loops.<loss_name>`. Each call records whether the previous
    call's loss value and prediction input are already garbage, i.e. whether
    batch k's autodiff tape is gone when batch k+1 reaches its loss."""
    original = getattr(loops, loss_name)
    prev, freed = [], []

    def tracked(pred, *args, **kwargs):
        if prev:
            freed.append(all(ref() is None for ref in prev))
        out = original(pred, *args, **kwargs)
        prev[:] = [weakref.ref(out.data), weakref.ref(pred.data)]
        return out

    monkeypatch.setattr(loops, loss_name, tracked)
    return freed


def test_pretrain_frees_each_tape_before_the_next_batch(rng, monkeypatch):
    freed = _track_batch_tapes(monkeypatch, "loss_pred")
    pretrain(corpus(rng), build_param_store(MCFG), MCFG,
             PretrainConfig(epochs=2, batch=2, negatives=4))
    assert len(freed) == 3 and all(freed)


def test_finetune_frees_each_tape_before_the_next_batch(rng, monkeypatch):
    freed = _track_batch_tapes(monkeypatch, "loss_supervised")
    finetune(corpus(rng), build_param_store(MCFG), MCFG,
             FinetuneConfig(phase1_epochs=1, phase2_epochs=1, batch=2,
                            curriculum_start=6, curriculum_end=6),
             val_traces=[], val_metric_fn=lambda st, ph, ep: 0.0)
    assert len(freed) == 3 and all(freed)


def test_non_finite_gradient_names_the_parameter():
    store = ParamStore()
    b = store.add("b", np.array([2.0]))
    a = store.add("a", np.array([1.0, 0.0]))
    loss = tsum(sqrt(a)) + tsum(b * b)  # finite, but d sqrt(a)/da is inf at a = 0
    with np.errstate(divide="ignore"), \
            pytest.raises(TrainingError, match="non-finite gradient at step 3: a$"):
        loops._optimizer_step(loss, store, AdamState(), 1e-3, 0.0, 5.0, frozenset(), "step 3")
    assert np.array_equal(a.data, [1.0, 0.0]) and np.array_equal(b.data, [2.0])


def test_non_finite_loss_names_phase_epoch_and_batch(rng):
    traces = corpus(rng)
    store = build_param_store(MCFG)
    store.tensor("lstm.L1.Wih").data[0, 0] = np.nan
    with pytest.raises(TrainingError, match="pretrain epoch 1 batch 0"):
        pretrain(traces, store, MCFG, PretrainConfig(epochs=1, batch=2, negatives=4))
    store = build_param_store(MCFG)
    store.tensor("lstm.L1.Wih").data[0, 0] = np.nan
    with pytest.raises(TrainingError, match="phase1 epoch 1 batch 0"):
        finetune(traces, store, MCFG, FinetuneConfig(phase1_epochs=1, phase2_epochs=1, batch=2))
