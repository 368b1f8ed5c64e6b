"""Relation-typed message passing and attention readout."""
import csv
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from aptstage.encoder import (
    LAYERS,
    PackedGraphs,
    attention_readout,
    encode_packed,
    encoder_param_spec,
    message_passing_packed,
    pack_graphs,
    project_packed,
    write_attention_csv,
)
from aptstage.errors import ParamRegistryError
from aptstage.features import FeaturizerConfig, featurize_graph, fit_vocab_and_stats
from aptstage.graphs import (
    Edge,
    Node,
    NodeKind,
    Relation,
    build_graph_sequence,
)
from aptstage.nn import (
    ParamStore,
    as_tensor,
    gather_rows,
    init_params,
)
from aptstage.telemetry import ScenarioConfig, default_campaign_schedule, generate_scenario

from grad_check import finite_diff_check
from graph_helpers import make_graph
from nn_reference import attention_readout as reference_readout
from nn_reference import linear as reference_linear
from nn_reference import (
    add,
    concat,
    edge_means,
    matmul,
    mul,
    packed_edges,
    project_then_average,
    relu,
    segment_sum,
    transpose,
    tsum,
)

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
    return make_graph(0, 0.0, nodes, edges)


def mkstore(seed=0, layers=LAYERS):
    return init_params(encoder_param_spec(D_X, D_E, D_H, D_G, layers), seed=seed)


def pack(items):
    """pack_graphs over (X, Z, graph) items with dense X, each X given as the
    CSR array that featurization emits."""
    return pack_graphs([(sp.csr_array(X), Z, g) for X, Z, g in items])


def encode_one(X, Z, graph, store):
    """encode_packed on a single window: (embedding (d_g,), alpha, node states)."""
    batch = encode_packed(pack([(X, Z, graph)]), store)
    return batch.g.data[0], batch.alpha.data, batch.node_states.data


def message_passing(graph, h, z, weights):
    """One message_passing_packed round over a single graph, per-edge z̃ given:
    packed as the raw edge features, z̃ comes out as its segment means."""
    packed = pack([(np.zeros((len(graph.nodes), 0)), z, graph)])
    return message_passing_packed(packed, as_tensor(h), packed.Zbar, weights)


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
    return make_graph(g.window_index, g.window_start, nodes, edges), X[order], Z


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
    packed = pack([(X, Z, g) for g, X, Z in items])
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
    g = make_graph(0, 0.0, (), ())
    embedding, _, _ = encode_one(np.zeros((0, D_X)), np.zeros((0, D_E)), g, mkstore())
    assert np.array_equal(embedding, np.zeros(D_G))
    assert np.isfinite(embedding).all()


def test_packed_batch_equals_single_graph_encodings(rng):
    graphs = [mkgraph(4, [(Relation.READ, 0, 1), (Relation.WRITE, 2, 3)]),
              mkgraph(2, [(Relation.CONNECT, 0, 1)]),
              make_graph(0, 0.0, (), ()),
              mkgraph(3, [(Relation.RECV, 2, 0)])]
    feats = [rand_feats(g, rng) if len(g.nodes) else
             (np.zeros((0, D_X)), np.zeros((0, D_E))) for g in graphs]
    store = mkstore()
    packed = pack([(X, Z, g) for (X, Z), g in zip(feats, graphs)])
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


# ------------------------------------------- the fused message-passing op


def reference_message_passing(graphs, h, z, weights):
    """Transform-then-aggregate composition of one round over the packed
    graphs: W_τ applied to [h_j ‖ z̃_e] on every edge, segment-summed per
    destination and scaled by 1/count, relation by relation, then ReLU."""
    n = sum(len(g.nodes) for g in graphs)
    edges, node_off, edge_off = [], 0, 0
    for g in graphs:
        edges += [(e.relation, e.src + node_off, e.dst + node_off, j + edge_off)
                  for j, e in enumerate(g.edges)]
        node_off += len(g.nodes)
        edge_off += len(g.edges)
    total = as_tensor(np.zeros(h.data.shape))
    for rel in Relation:
        sel = sorted((e for e in edges if e[0] is rel), key=lambda e: e[2])
        if not sel:
            continue
        src, dst, zrow = (np.array(c) for c in list(zip(*sel))[1:])
        counts = np.bincount(dst, minlength=n)
        inv = (1.0 / np.maximum(counts, 1)).reshape(-1, 1)
        m_in = concat([gather_rows(h, src), gather_rows(z, zrow)], axis=1)
        summed = segment_sum(matmul(m_in, transpose(weights[rel])), dst, n)
        total = add(total, mul(summed, inv))
    return relu(total)


def pack_bare(graphs):
    """pack_graphs over graphs without raw features."""
    return pack([(np.zeros((len(g.nodes), 0)), np.zeros((len(g.edges), 0)), g)
                 for g in graphs])


def fd_batch(missing=None):
    """Three graphs: every relation but `missing`, duplicate (src, dst) edges
    under one relation, nodes without in-edges, and a graph without
    self-loops."""
    rels = [r for r in Relation if r not in (Relation.SELF_LOOP, missing)]
    g0 = mkgraph(5, [(rel, i % 5, (2 * i + 1) % 5) for i, rel in enumerate(rels)]
                 + [(rels[0], 0, 1), (rels[0], 0, 1)])
    nodes = tuple(Node(NodeKind.FILE, f"f{i}", {"first_ts": 0.0}) for i in range(4))
    g1 = make_graph(1, 0.0, nodes, (Edge(rels[1], 0, 1, 0.0), Edge(rels[2], 0, 2, 0.0),
                                    Edge(rels[2], 1, 2, 0.0), Edge(rels[1], 2, 1, 0.0)))
    g2 = mkgraph(3, [(rels[-1], 2, 0)])
    return [g0, g1, g2]


@pytest.mark.parametrize("missing", [None, Relation.EXEC])
def test_message_passing_gradients_match_finite_differences(missing):
    graphs = fd_batch(missing)
    n = sum(len(g.nodes) for g in graphs)
    packed = pack_bare(graphs)
    assert set(packed.rel_segs) == set(Relation) - {missing}
    rng = np.random.default_rng(5)
    store = ParamStore()
    store.add("h", rng.normal(size=(n, D_H)))
    store.add("z", rng.normal(size=(packed.mean.shape[0], D_H)))  # z̄, one row per segment
    for layer in range(2):
        for rel in Relation:
            store.add(f"L{layer}.{rel.value}", rng.normal(size=(D_H, 2 * D_H)) / 3)
    probe = as_tensor(rng.normal(size=(n, D_H)))

    def loss(st):
        # two rounds sharing one z̄, as encode_packed runs them
        h = st.tensor("h")
        for layer in range(2):
            h = message_passing_packed(packed, h, st.tensor("z"),
                                       {r: st.tensor(f"L{layer}.{r.value}") for r in Relation})
        return tsum(mul(h, probe))

    assert finite_diff_check(loss, store, max_coords=len(store.names()) * 2 * D_H * D_H) < 1e-4


def scenario_graphs():
    """The six windows of a generated full campaign."""
    events, alerts, _ = generate_scenario(ScenarioConfig(
        duration=6 * 300.0, stage_schedule=default_campaign_schedule(6 * 300.0), seed=3))
    return build_graph_sequence(events, alerts)


def test_fused_round_matches_transform_then_aggregate_reference():
    graphs = scenario_graphs()
    rng = np.random.default_rng(9)
    values = {"h": rng.normal(size=(sum(len(g.nodes) for g in graphs), D_H)),
              "z": rng.normal(size=(sum(len(g.edges) for g in graphs), D_H)),
              **{rel.value: rng.normal(size=(D_H, 2 * D_H)) for rel in Relation}}
    probe = as_tensor(rng.normal(size=values["h"].shape))
    def fused(packed, h, z, weights):
        return message_passing_packed(packed, h, edge_means(graphs, z), weights)

    results = []
    for fn, arg in ((fused, pack_bare(graphs)), (reference_message_passing, graphs)):
        store = ParamStore()
        for name, v in values.items():
            store.add(name, v)
        out = fn(arg, store.tensor("h"), store.tensor("z"),
                 {r: store.tensor(r.value) for r in Relation})
        tsum(mul(out, probe)).backward()
        results.append((out.data, {n: store.tensor(n).grad for n in store.names()}))
    (got, got_grads), (want, want_grads) = results
    assert np.max(np.abs(got - want)) < 1e-12
    for name in values:
        assert np.max(np.abs(got_grads[name] - want_grads[name])) < 1e-12, name


def test_encoder_tape_stays_one_node_per_round(rng, tape_nodes):
    g = mkgraph(11, [(rel, i, i + 1) for i, rel in enumerate(Relation)])
    packed = pack([(*rand_feats(g, rng), g)])
    assert set(packed.rel_segs) == set(Relation)
    assert tape_nodes(encode_packed(packed, mkstore()).g) <= 70


# ------------------------------------------------ the fused attention readout


def readout_batches():
    """Packed batches with empty and single-node graphs between larger ones."""
    empty, lone = edgeless_graphs()
    single = mkgraph(1, [])
    return [pack_bare([empty, *scenario_graphs(), single, lone, empty]),
            pack_bare([single]), pack_bare([empty, single]), pack_bare([empty]), pack_bare([])]


def readout_store(rng):
    store = ParamStore()
    store.add("enc.attn.a", rng.normal(size=D_H))
    store.add("enc.out.Wg", rng.normal(size=(D_G, D_H)))
    return store


def test_fused_readout_matches_composition_reference():
    rng = np.random.default_rng(4)
    for packed in readout_batches():
        values = {"h": rng.normal(size=(packed.n_nodes, D_H)) * 2.0,
                  **readout_store(rng).snapshot()}
        probe = as_tensor(rng.normal(size=(packed.n_graphs, D_G)))
        results = []
        for readout in (attention_readout, reference_readout):
            store = ParamStore()
            for name, v in values.items():
                store.add(name, v)
            g, alpha = readout(packed, store.tensor("h"), store)
            tsum(mul(g, probe)).backward()
            results.append((g.data, alpha.data, {n: store.tensor(n).grad for n in values}))
        (g, alpha, grads), (want_g, want_alpha, want_grads) = results
        assert np.array_equal(g, want_g) and np.array_equal(alpha, want_alpha)
        for name in values:
            assert np.max(np.abs(grads[name] - want_grads[name]), initial=0.0) < 1e-12, name


def test_fused_readout_gradients_match_finite_differences():
    empty, lone = edgeless_graphs()
    packed = pack_bare([empty, *fd_batch(), mkgraph(1, []), lone])
    rng = np.random.default_rng(6)
    store = readout_store(rng)
    store.add("h", rng.normal(size=(packed.n_nodes, D_H)))
    probe = as_tensor(rng.normal(size=(packed.n_graphs, D_G)))

    def loss(st):
        return tsum(mul(attention_readout(packed, st.tensor("h"), st)[0], probe))

    coords = sum(v.size for v in store.params.values())
    assert finite_diff_check(loss, store, max_coords=coords) < 1e-5


# ------------------------------------------------ edge index and packing


def edgeless_graphs():
    """A graph without nodes and a graph with nodes but no edges."""
    lone = tuple(Node(NodeKind.FILE, f"f{i}", {"first_ts": 0.0}) for i in range(2))
    return [make_graph(0, 0.0, (), ()), make_graph(1, 0.0, lone, ())]


def test_edge_index_lists_relation_src_dst_per_edge():
    relations = list(Relation)
    for g in fd_batch() + fd_batch(Relation.EXEC) + scenario_graphs() + edgeless_graphs():
        want = np.array([[relations.index(e.relation) for e in g.edges],
                         [e.src for e in g.edges],
                         [e.dst for e in g.edges]], dtype=np.int64).reshape(3, len(g.edges))
        assert g.edge_index.dtype == np.int64
        assert np.array_equal(g.edge_index, want)
        assert g.edge_index is g.edge_index  # built once per graph
        assert not g.edge_index.flags.writeable
    for g in edgeless_graphs():
        assert g.edge_index.shape == (3, 0)


def ref_pack_graphs(items) -> PackedGraphs:
    """pack_graphs built edge by edge: the mean matrix dense, row s holding
    1/|s| at the source of each of segment s's edges (summed over duplicate
    edges), and Zbar as each segment's mean of Z."""
    graphs = [g for _, _, g in items]
    n_nodes = sum(len(g.nodes) for g in graphs)
    d_x = items[0][0].shape[1] if items else 0
    d_e = items[0][1].shape[1] if items else 0
    X = np.concatenate([X for X, _, _ in items]) if items else np.zeros((0, d_x))
    Z = np.concatenate([Z for _, Z, _ in items]) if items else np.zeros((0, d_e))
    edges = packed_edges(graphs)
    n_segs = len({s for *_, s in edges})
    members = [[e for e, (*_, s) in enumerate(edges) if s == seg] for seg in range(n_segs)]
    mean = np.zeros((n_segs, n_nodes))
    for seg, es in enumerate(members):
        for e in es:
            mean[seg, edges[e][1]] += 1.0 / len(es)
    seg_rel = [list(Relation)[edges[es[0]][0]] for es in members]
    return PackedGraphs(
        X=X,
        Zbar=np.array([Z[es].mean(axis=0) for es in members]).reshape(n_segs, d_e),
        node_graph=np.concatenate([np.zeros(0, dtype=np.int64)] +
                                  [np.full(len(g.nodes), gi, dtype=np.int64)
                                   for gi, g in enumerate(graphs)]),
        n_graphs=len(items),
        n_nodes=n_nodes,
        mean=mean,
        seg_dst=np.array([edges[es[0]][2] for es in members], dtype=np.int64),
        rel_segs={r: slice(seg_rel.index(r), n_segs - seg_rel[::-1].index(r))
                  for r in Relation if r in seg_rel},
    )


def test_pack_graphs_equals_per_edge_reference(rng):
    empty, lone = edgeless_graphs()
    batches = [[empty, *scenario_graphs(), lone, *fd_batch(), mkgraph(1, []), empty],
               [lone, empty], [empty], []]
    for graphs in batches:
        items = [(*rand_feats(g, rng), g) for g in graphs]
        got, want = pack(items), ref_pack_graphs(items)
        for f in dataclasses.fields(PackedGraphs):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "X":  # stacked CSR blocks: the dense rows, canonical
                assert isinstance(a, sp.csr_array) and a.has_canonical_format
                assert a.shape == b.shape and np.array_equal(a.toarray(), b)
            elif f.name == "mean":
                assert a.shape == b.shape and np.array_equal(a.toarray(), b)
            elif f.name == "Zbar":  # summed in another order
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) < 1e-12
            elif isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def projection_batches():
    """name -> packed batch with CSR X: the empty batch (with the (0, d_x)
    X that `encode_windows` gives it), graphs without nodes or edges, a
    single node, and the featurized windows of a generated campaign."""
    fcfg = FeaturizerConfig()
    graphs = scenario_graphs()
    vocab, stats = fit_vocab_and_stats(graphs, fcfg)
    rng = np.random.default_rng(5)

    def sparse_rows(n):
        return sp.csr_array(rng.normal(size=(n, fcfg.node_dim))
                            * (rng.random((n, fcfg.node_dim)) < 0.05))

    def bare(gs):
        return pack_graphs([(sparse_rows(len(g.nodes)), np.zeros((len(g.edges), fcfg.edge_dim)), g)
                            for g in gs])

    return {
        "empty": dataclasses.replace(pack_graphs([]), X=sp.csr_array((0, fcfg.node_dim)),
                                     Zbar=np.zeros((0, fcfg.edge_dim))),
        "edgeless": bare(edgeless_graphs()),
        "single node": bare([mkgraph(1, [])]),
        "generated": pack_graphs([(*featurize_graph(g, vocab, stats, fcfg), g) for g in graphs]),
    }


@pytest.mark.parametrize("name", ["empty", "edgeless", "single node", "generated"])
def test_sparse_projection_matches_dense_linear_reference(name):
    packed = projection_batches()[name]
    fcfg = FeaturizerConfig()
    values = init_params(encoder_param_spec(fcfg.node_dim, fcfg.edge_dim, D_H, D_G), seed=6).snapshot()
    probe = as_tensor(np.random.default_rng(7).normal(size=(packed.n_nodes, D_H)))
    results = []
    for path in ("sparse", "dense"):
        store = ParamStore()
        for n in ("proj.Wx", "proj.bx", "proj.Wz", "proj.bz"):
            store.add(n, values[n])
        xt = (project_packed(packed, store)[0] if path == "sparse"
              else reference_linear(packed.X.toarray(), store.tensor("proj.Wx"), store.tensor("proj.bx")))
        tsum(mul(xt, probe)).backward()
        results.append((xt.data, store.tensor("proj.Wx").grad, store.tensor("proj.bx").grad))
    for got, want in zip(*results):
        assert got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) < 1e-12


def test_pack_graphs_refuses_node_features_of_different_widths(rng):
    g = mkgraph(2, [(Relation.READ, 0, 1)])
    items = [(sp.csr_array(rng.normal(size=(2, width))), rng.normal(size=(len(g.edges), D_E)), g)
             for width in (D_X, D_X + 1)]
    with pytest.raises(ValueError, match="widths differ"):
        pack_graphs(items)


def test_projection_and_first_round_match_project_then_average_reference():
    empty, lone = edgeless_graphs()
    graphs = [empty, *fd_batch(), lone, mkgraph(1, []), *scenario_graphs()[:2]]
    rng = np.random.default_rng(8)
    feats = [rand_feats(g, rng) for g in graphs]
    packed = pack([(X, Z, g) for (X, Z), g in zip(feats, graphs)])
    X, Z = (np.concatenate(parts) for parts in zip(*feats))
    values = init_params(encoder_param_spec(D_X, D_E, D_H, D_G, layers=1), seed=3).snapshot()
    probe = as_tensor(rng.normal(size=(packed.n_nodes, D_H)))
    results = []
    for path in ("packed", "reference"):
        store = ParamStore()
        for name, v in values.items():
            store.add(name, v)
        xt, zbar = (project_packed(packed, store) if path == "packed"
                    else project_then_average(graphs, X, Z, store))
        out = message_passing_packed(packed, xt, zbar,
                                     {r: store.tensor(f"enc.L0.{r.value}.W") for r in Relation})
        tsum(mul(out, probe)).backward()
        results.append(([xt.data, zbar.data, out.data],
                        {n: store.tensor(n).grad for n in values}))
    (got, got_grads), (want, want_grads) = results
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) < 1e-12
    for name in values:
        if want_grads[name] is None:  # the readout's parameters
            assert got_grads[name] is None, name
        else:
            assert np.max(np.abs(got_grads[name] - want_grads[name])) < 1e-12, name
