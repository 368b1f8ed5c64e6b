"""Model assembly: parameter store construction and forward helpers."""
from dataclasses import asdict

import numpy as np

from aptstage.graphs import Edge, Node, NodeKind, ProvenanceGraph, Relation
from aptstage.model import (
    FREEZE_ENCODER,
    FREEZE_LOWER_RECURRENT,
    ModelConfig,
    build_param_store,
    encode_windows,
    frozen_names,
    infer_probabilities,
)
from aptstage.training import Trace, WindowRecord
from aptstage.training.loops import _batch_forward

MCFG = ModelConfig(d_h=8, d_g=8, hidden=8)


def window(rng, tag, n=3):
    nodes = tuple(Node(NodeKind.PROCESS, f"{tag}n{i}", {"first_ts": 0.0})
                  for i in range(n))
    edges = (Edge(Relation.READ, 0, 1, 1.0),) + tuple(
        Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(n))
    g = ProvenanceGraph(0, 0.0, nodes, edges)
    fz = MCFG.featurizer
    return (rng.normal(size=(n, fz.node_dim)),
            rng.normal(size=(len(edges), fz.edge_dim)), g)


def test_store_covers_encoder_and_estimator():
    store = build_param_store(MCFG)
    names = set(store.names())
    assert {"proj.Wx", "proj.bx", "proj.Wz", "proj.bz",
            "enc.attn.a", "enc.out.Wg",
            "lstm.L0.Wih", "lstm.L1.Whh",
            "head.stage.W", "head.next.b"} <= names
    # 4 projection + layers*relations message weights + 2 readout
    # + 3 per recurrent layer + 4 head tensors
    assert len(names) == 4 + MCFG.gnn_layers * 10 + 2 + 3 * MCFG.lstm_layers + 4


def test_store_seed_determinism():
    a = build_param_store(ModelConfig(d_h=8, d_g=8, hidden=8, seed=3)).snapshot()
    b = build_param_store(ModelConfig(d_h=8, d_g=8, hidden=8, seed=3)).snapshot()
    c = build_param_store(ModelConfig(d_h=8, d_g=8, hidden=8, seed=4)).snapshot()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_store_applies_forget_bias():
    store = build_param_store(MCFG)
    H = MCFG.hidden
    for layer in range(MCFG.lstm_layers):
        b = store.tensor(f"lstm.L{layer}.b").data
        assert np.all(b[H:2 * H] == 1.0)
        assert np.all(b[:H] == 0.0)


def test_frozen_name_prefixes():
    store = build_param_store(MCFG)
    frozen = frozen_names(store, FREEZE_LOWER_RECURRENT + FREEZE_ENCODER)
    assert "lstm.L0.Wih" in frozen
    assert "proj.Wx" in frozen
    assert all(n.startswith(("lstm.L0.", "enc.", "proj.")) for n in frozen)
    assert "lstm.L1.Wih" not in frozen
    assert "head.stage.W" not in frozen


def test_modelconfig_roundtrip():
    cfg = ModelConfig(d_h=16, d_g=12, hidden=24, dropout=0.1, seed=9)
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


def test_encode_windows_keeps_input_order(rng):
    wins = [window(rng, f"w{i}") for i in range(4)]
    store = build_param_store(MCFG)
    batch = encode_windows(wins, store, MCFG)
    assert batch.g.data.shape == (4, MCFG.d_g)
    flipped = encode_windows(wins[::-1], store, MCFG)
    assert np.allclose(flipped.g.data, batch.g.data[::-1], atol=1e-12)


def test_sequence_batch_forward_layout(rng):
    wins = [window(rng, f"w{i}") for i in range(4)]
    store = build_param_store(MCFG)
    traces = [Trace(f"t{i}", [WindowRecord(*wins[2 * i + t]) for t in range(2)])
              for i in range(2)]
    batch = [(0, 0, 2), (1, 0, 2)]  # (trace, start, length)
    _, seq_rows, g_seq, h_top = _batch_forward(batch, traces, None, store, MCFG, 0)
    assert np.array_equal(seq_rows, [[0, 1], [2, 3]])
    assert g_seq.data.shape == (4, MCFG.d_g)
    assert h_top.data.shape == (4, MCFG.hidden)
    enc = encode_windows(wins, store, MCFG)
    assert np.allclose(g_seq.data, enc.g.data, atol=1e-12)


def test_infer_probabilities_simplex(rng):
    wins = [window(rng, f"w{i}") for i in range(5)]
    store = build_param_store(MCFG)
    probs = infer_probabilities(wins, store, MCFG)
    assert probs.shape == (5, 7)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_infer_probabilities_empty():
    store = build_param_store(MCFG)
    probs = infer_probabilities([], store, MCFG)
    assert probs.shape == (0, 7)
