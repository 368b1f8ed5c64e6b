"""Model assembly: parameter store construction and forward helpers."""
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp

from aptstage.config import from_dict
from aptstage.errors import InputError, ValidationError
from aptstage.evaluation import confusion_matrix
from aptstage.graphs import Edge, Node, NodeKind, Relation
from aptstage.model import (
    FREEZE_ENCODER,
    FREEZE_LOWER_RECURRENT,
    ModelConfig,
    build_param_store,
    encode_windows,
    infer_probabilities,
)
from aptstage.nn import no_grad
from aptstage.telemetry import ScenarioConfig, StageInterval
from aptstage.telemetry.records import NUM_STAGES, STAGE_NAMES
from aptstage.training import Trace, WindowRecord, class_weights
from aptstage.training.loops import _batch_forward

from graph_helpers import make_graph

MCFG = ModelConfig(d_h=8, d_g=8, hidden=8)


def window(rng, tag, n=3):
    nodes = tuple(Node(NodeKind.PROCESS, f"{tag}n{i}", {"first_ts": 0.0})
                  for i in range(n))
    edges = (Edge(Relation.READ, 0, 1, 1.0),) + tuple(
        Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(n))
    g = make_graph(0, 0.0, nodes, edges)
    fz = MCFG.featurizer
    return (sp.csr_array(rng.normal(size=(n, fz.node_dim))),
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
    with store.frozen(FREEZE_LOWER_RECURRENT + FREEZE_ENCODER):
        frozen = {n for n in store.names() if not store.tensor(n).requires_grad}
    assert all(store.tensor(n).requires_grad for n in store.names())
    assert "lstm.L0.Wih" in frozen
    assert "proj.Wx" in frozen
    assert all(n.startswith(("lstm.L0.", "enc.", "proj.")) for n in frozen)
    assert "lstm.L1.Wih" not in frozen
    assert "head.stage.W" not in frozen


def test_modelconfig_roundtrip():
    cfg = ModelConfig(d_h=16, d_g=12, hidden=24, dropout=0.1, seed=9)
    assert from_dict(ModelConfig, asdict(cfg)) == cfg


def test_encode_windows_keeps_input_order(rng):
    wins = [window(rng, f"w{i}") for i in range(4)]
    store = build_param_store(MCFG)
    batch = encode_windows(wins, store, MCFG)
    assert batch.g.data.shape == (4, MCFG.d_g)
    flipped = encode_windows(wins[::-1], store, MCFG)
    assert np.allclose(flipped.g.data, batch.g.data[::-1], atol=1e-12)


def test_encode_windows_of_no_windows_is_a_zero_row_batch():
    with no_grad():
        batch = encode_windows([], build_param_store(MCFG), MCFG)
    assert batch.g.data.shape == (0, MCFG.d_g)
    assert batch.alpha.data.shape == (0,)


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


def test_infer_probabilities_rejects_non_finite(rng):
    store = build_param_store(MCFG)
    store.tensor("head.stage.b").data[3] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        infer_probabilities([window(rng, "w0"), window(rng, "w1")], store, MCFG)


def test_batch_attention_equals_per_window_attention(rng):
    wins = [window(rng, f"w{i}", n=3 + i) for i in range(4)]
    store = build_param_store(MCFG)
    with no_grad():
        alpha = encode_windows(wins, store, MCFG).alpha.data
        alone = [encode_windows([w], store, MCFG).alpha.data for w in wins]
    assert np.array_equal(alpha, np.concatenate(alone))


def test_window_records_and_their_triples_give_bit_identical_results(rng):
    records = [WindowRecord(*window(rng, f"w{i}", n=3 + i), label=i) for i in range(4)]
    triples = [(w.X, w.Z, w.graph) for w in records]
    store = build_param_store(MCFG)
    with no_grad():
        enc, enc_triples = (encode_windows(wins, store, MCFG) for wins in (records, triples))
    assert np.array_equal(enc.g.data, enc_triples.g.data)
    assert np.array_equal(enc.alpha.data, enc_triples.alpha.data)
    assert np.array_equal(infer_probabilities(records, store, MCFG),
                          infer_probabilities(triples, store, MCFG))


def test_infer_probabilities_empty():
    store = build_param_store(MCFG)
    probs = infer_probabilities([], store, MCFG)
    assert probs.shape == (0, 7)


def test_stage_vocabulary_declared_once():
    """One stage tuple sizes the head, the metrics, the class weights and the
    generator's stage bound."""
    head_rows = build_param_store(MCFG).tensor("head.stage.W").data.shape[0]
    widths = {len(STAGE_NAMES), ModelConfig().num_classes, head_rows,
              confusion_matrix([], []).shape[1], len(class_weights([0]))}
    assert widths == {NUM_STAGES}
    with pytest.raises(ValidationError, match="stage must be in 1.."):
        ScenarioConfig(stage_schedule=[StageInterval(NUM_STAGES, 0.0, 10.0)])
