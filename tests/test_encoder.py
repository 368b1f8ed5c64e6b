"""Relation-typed message passing and attention readout."""
import csv

import numpy as np
import pytest

from aptstage.encoder import (
    LAYERS,
    encode_packed,
    encoder_param_spec,
    message_passing_packed,
    pack_graphs,
    write_attention_csv,
)
from aptstage.errors import ParamRegistryError
from aptstage.graphs import Edge, Node, NodeKind, ProvenanceGraph, Relation
from aptstage.nn import as_tensor, init_params

D_X, D_E, D_H, D_G = 4, 3, 5, 6


def mkgraph(n, rel_edges, kinds=None):
    """rel_edges: list of (Relation, src, dst). Self-loops appended for all."""
    nodes = tuple(
        Node(kinds[i] if kinds else NodeKind.PROCESS, f"n{i}", {"first_ts": 0.0})
        for i in range(n)
    )
    edges = tuple(Edge(rel, s, d, 1.0) for rel, s, d in rel_edges) + tuple(
        Edge(Relation.SELF_LOOP, i, i, 0.0) for i in range(n)
    )
    return ProvenanceGraph(0, 0.0, nodes, edges)


def mkstore(seed=0, layers=LAYERS):
    return init_params(encoder_param_spec(D_X, D_E, D_H, D_G, layers), seed=seed)


def encode_one(X, Z, graph, store):
    """encode_packed on a single window: (embedding (d_g,), alpha, node states)."""
    batch = encode_packed(pack_graphs([(X, Z, graph)]), store)
    return batch.g.data[0], batch.alpha.data, batch.node_states.data


def message_passing(graph, h, z, weights):
    """One message_passing_packed round over a single graph."""
    packed = pack_graphs([(np.zeros((len(graph.nodes), 0)), np.zeros((len(graph.edges), 0)), graph)])
    return message_passing_packed(packed, as_tensor(h), as_tensor(z), weights)


def rand_feats(graph, rng):
    return (rng.normal(size=(len(graph.nodes), D_X)),
            rng.normal(size=(len(graph.edges), D_E)))


def oracle_layer(graph, h, z, weights):
    """Mean-per-(dst, relation) message passing by explicit loops."""
    n, d_h = h.shape
    out = np.zeros((n, d_h))
    for i in range(n):
        for rel, W in weights.items():
            msgs = [
                W @ np.concatenate([h[e.src], z[j]])
                for j, e in enumerate(graph.edges)
                if e.relation is rel and e.dst == i
            ]
            if msgs:
                out[i] += np.mean(msgs, axis=0)
    return np.maximum(out, 0.0)


def test_message_passing_matches_scalar_oracle(rng):
    g = mkgraph(4, [(Relation.READ, 0, 1), (Relation.READ, 2, 1),
                    (Relation.WRITE, 1, 3), (Relation.SPAWN, 3, 0)])
    h = rng.normal(size=(4, D_H))
    z = rng.normal(size=(len(g.edges), D_H))
    weights = {rel: rng.normal(size=(D_H, 2 * D_H)) for rel in Relation}
    got = message_passing(g, h, z, {r: as_tensor(w) for r, w in weights.items()})
    want = oracle_layer(g, h, z, weights)
    assert np.max(np.abs(got.data - want)) < 1e-12


def test_duplicate_neighbors_are_averaged(rng):
    # two READ in-edges into node 1: result is the mean of both messages
    g = mkgraph(3, [(Relation.READ, 0, 1), (Relation.READ, 2, 1)])
    h = rng.normal(size=(3, D_H))
    z = np.zeros((len(g.edges), D_H))
    W = rng.normal(size=(D_H, 2 * D_H))
    weights = {rel: as_tensor(W if rel is Relation.READ else np.zeros((D_H, 2 * D_H)))
               for rel in Relation}
    got = message_passing(g, h, z, weights)
    m0 = W @ np.concatenate([h[0], np.zeros(D_H)])
    m2 = W @ np.concatenate([h[2], np.zeros(D_H)])
    assert np.allclose(got.data[1], np.maximum((m0 + m2) / 2.0, 0.0), atol=1e-12)


def test_identity_self_loop_preserves_state(rng):
    # W_self = [I | 0], all other relations zero: h' = relu(h)
    g = mkgraph(4, [(Relation.READ, 0, 1)])
    h = rng.normal(size=(4, D_H))
    z = rng.normal(size=(len(g.edges), D_H))
    ident = np.hstack([np.eye(D_H), np.zeros((D_H, D_H))])
    weights = {rel: as_tensor(ident if rel is Relation.SELF_LOOP
                              else np.zeros((D_H, 2 * D_H))) for rel in Relation}
    got = message_passing(g, h, z, weights)
    assert np.allclose(got.data, np.maximum(h, 0.0), atol=1e-12)


def test_three_layers_reach_exactly_three_hops(rng):
    # path 0 -> 1 -> 2 -> 3 -> 4; 3 rounds move information 3 hops
    edges = [(Relation.SEND, i, i + 1) for i in range(4)]
    g = mkgraph(5, edges)
    store = mkstore()
    X, Z = rand_feats(g, rng)
    _, _, base = encode_one(X, Z, g, store)
    X2 = X.copy()
    X2[0] += 1.0  # perturb the path's source node
    _, _, pert = encode_one(X2, Z, g, store)
    # node 3 (three hops away) sees the change, node 4 (four hops) cannot
    assert np.array_equal(base[4], pert[4])
    assert not np.array_equal(base[3], pert[3])


def permute_graph(g, X, Z, perm):
    """Relabel nodes by perm (new_index = perm[old_index])."""
    order = np.argsort(perm)  # old index listed in new order
    nodes = tuple(g.nodes[o] for o in order)
    edges = tuple(Edge(e.relation, int(perm[e.src]), int(perm[e.dst]),
                       e.timestamp, e.bytes, e.count) for e in g.edges)
    return ProvenanceGraph(g.window_index, g.window_start, nodes, edges), X[order], Z


def test_embedding_invariant_under_node_relabeling(rng):
    g = mkgraph(6, [(Relation.READ, 0, 1), (Relation.WRITE, 1, 2),
                    (Relation.CONNECT, 2, 3), (Relation.SEND, 3, 4),
                    (Relation.SPAWN, 4, 5), (Relation.EXEC, 5, 0)])
    X, Z = rand_feats(g, rng)
    store = mkstore()
    base = encode_one(X, Z, g, store)[0]
    for _ in range(5):
        perm = rng.permutation(6)
        g2, X2, Z2 = permute_graph(g, X, Z, perm)
        out = encode_one(X2, Z2, g2, store)[0]
        assert np.max(np.abs(out - base)) < 1e-10


def test_attention_weights_sum_to_one_per_graph(rng):
    graphs = [mkgraph(3, [(Relation.READ, 0, 1)]),
              mkgraph(5, [(Relation.WRITE, 1, 2), (Relation.SEND, 2, 4)])]
    items = [(g, *rand_feats(g, rng)) for g in graphs]
    packed = pack_graphs([(X, Z, g) for g, X, Z in items])
    batch = encode_packed(packed, mkstore())
    alpha = batch.alpha.data
    assert alpha.shape == (8,)
    assert np.all(alpha > 0)
    assert abs(alpha[:3].sum() - 1.0) < 1e-9
    assert abs(alpha[3:].sum() - 1.0) < 1e-9


def test_single_node_gets_full_attention(rng):
    g = mkgraph(1, [])
    X, Z = rand_feats(g, rng)
    _, alpha, _ = encode_one(X, Z, g, mkstore())
    assert np.allclose(alpha, [1.0])


def test_empty_graph_embeds_to_zero():
    g = ProvenanceGraph(0, 0.0, (), ())
    embedding, _, _ = encode_one(np.zeros((0, D_X)), np.zeros((0, D_E)), g, mkstore())
    assert np.array_equal(embedding, np.zeros(D_G))
    assert np.isfinite(embedding).all()


def test_packed_batch_equals_single_graph_encodings(rng):
    graphs = [mkgraph(4, [(Relation.READ, 0, 1), (Relation.WRITE, 2, 3)]),
              mkgraph(2, [(Relation.CONNECT, 0, 1)]),
              ProvenanceGraph(0, 0.0, (), ()),
              mkgraph(3, [(Relation.RECV, 2, 0)])]
    feats = [rand_feats(g, rng) if len(g.nodes) else
             (np.zeros((0, D_X)), np.zeros((0, D_E))) for g in graphs]
    store = mkstore()
    packed = pack_graphs([(X, Z, g) for (X, Z), g in zip(feats, graphs)])
    batch = encode_packed(packed, store)
    off = 0
    for i, ((X, Z), g) in enumerate(zip(feats, graphs)):
        embedding, alpha, _ = encode_one(X, Z, g, store)
        assert np.max(np.abs(batch.g.data[i] - embedding)) < 1e-12
        n = len(g.nodes)
        assert np.max(np.abs(batch.alpha.data[off:off + n] - alpha)) < 1e-12 if n else True
        off += n


def test_missing_relation_weight_is_an_error(rng):
    g = mkgraph(2, [(Relation.READ, 0, 1)])
    h = rng.normal(size=(2, D_H))
    z = np.zeros((len(g.edges), D_H))
    weights = {rel: as_tensor(np.zeros((D_H, 2 * D_H)))
               for rel in Relation if rel is not Relation.SELF_LOOP}
    with pytest.raises(ParamRegistryError):
        message_passing(g, h, z, weights)


def test_param_spec_names_and_shapes():
    spec = encoder_param_spec(D_X, D_E, D_H, D_G)
    assert spec["proj.Wx"] == (D_H, D_X)
    assert spec["enc.attn.a"] == (D_H,)
    assert spec["enc.out.Wg"] == (D_G, D_H)
    rel_names = [k for k in spec if ".W" in k and k.startswith("enc.L")]
    assert len(rel_names) == LAYERS * len(Relation)
    assert all(spec[k] == (D_H, 2 * D_H) for k in rel_names)


def test_attention_csv_roundtrip(tmp_path, rng):
    g = mkgraph(3, [(Relation.READ, 0, 1)], kinds=[NodeKind.PROCESS,
                                                   NodeKind.FILE,
                                                   NodeKind.HOST])
    X, Z = rand_feats(g, rng)
    _, alpha, _ = encode_one(X, Z, g, mkstore())
    path = tmp_path / "attention.csv"
    write_attention_csv(path, [g], [alpha])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["node_key"] for r in rows] == ["n0", "n1", "n2"]
    assert rows[1]["node_kind"] == "file"
    assert all(r["window_index"] == "0" for r in rows)
    total = sum(float(r["alpha"]) for r in rows)
    assert abs(total - 1.0) < 1e-8
