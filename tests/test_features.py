"""Feature extraction: TF-IDF vocabulary, z-scoring, layouts, projection."""
import math

import numpy as np
import pytest

from aptstage.encoder import pack_graphs, project_packed
from aptstage.errors import CompatibilityError, FitError
from aptstage.features import (
    CONSTANT_STD,
    CONTINUOUS_COLUMNS,
    FeaturizerConfig,
    ZScoreStats,
    _bucket,
    feature_spec_hash,
    featurize_graph,
    fit_vocab_and_stats,
    load_feature_spec,
    node_stats,
    save_feature_spec,
    tokenize,
)
from aptstage.graphs import (
    Edge,
    Node,
    NodeKind,
    ProvenanceGraph,
    Relation,
    build_graph_sequence,
)
from aptstage.nn import ParamStore
from aptstage.telemetry import (
    WINDOW_SECONDS,
    ScenarioConfig,
    default_campaign_schedule,
    generate_scenario,
)

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
    g = ProvenanceGraph(0, 0.0, nodes, edges)
    g.validate()
    return g


def campaign_graphs(seed=0, windows=8):
    dur = windows * WINDOW_SECONDS
    cfg = ScenarioConfig(num_hosts=3, duration=dur,
                         stage_schedule=default_campaign_schedule(dur), seed=seed)
    events, alerts, _ = generate_scenario(cfg)
    return build_graph_sequence(events, alerts)


def test_dimensions():
    assert CFG.node_dim == 196
    assert CFG.edge_dim == 26


def test_idf_formula():
    # texts "wget payload" and "wget": idf(wget)=ln(3/3)+1, idf(payload)=ln(3/2)+1
    nodes = (
        mknode(NodeKind.PROCESS, "a", commands=["wget payload"]),
        mknode(NodeKind.PROCESS, "b", commands=["wget"]),
    )
    g = ProvenanceGraph(0, 0.0, nodes, ())
    vocab, _ = fit_vocab_and_stats([g])
    tok = vocab.token_index
    assert vocab.idf[tok["wget"]] == pytest.approx(1.0)
    assert vocab.idf[tok["payload"]] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    # more frequent token gets the lower column; ties broken lexicographically
    assert tok["wget"] < tok["payload"]


def test_vocab_caps_at_d_cmd():
    many = " ".join(f"tok{i:03d}" for i in range(100))
    g = ProvenanceGraph(0, 0.0, (mknode(NodeKind.PROCESS, "a", commands=[many]),), ())
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
    x = featurize_graph(g, vocab, stats)[0][0]
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
    g = ProvenanceGraph(0, 0.0, nodes, ())
    vocab, stats = fit_vocab_and_stats([tiny_graph()])
    x = featurize_graph(g, vocab, stats)[0][0]
    assert x[CFG.n_priv] == 1.0


def test_alert_node_block():
    alert = mknode(NodeKind.ALERT, "alert:0:sig", signature="beacon observed",
                   severity=1.0, protocol="tcp", category="c2",
                   external_ip="198.51.100.7", external_port=8443, outbound=True,
                   first_ts=150.0)
    g = ProvenanceGraph(0, 0.0, (alert,), ())
    vocab, stats = fit_vocab_and_stats([g])
    x = featurize_graph(g, vocab, stats)[0][0]
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
    shifted = ProvenanceGraph(3, 900.0, (
        mknode(NodeKind.PROCESS, "p", first_ts=930.0),), ())
    x = featurize_graph(shifted, vocab, stats)[0][0]
    assert x[CFG.n_time] == pytest.approx(30.0 / WINDOW_SECONDS)
    assert 0.0 <= x[CFG.n_time] < 1.0


def test_degree_at_mean_zscores_to_zero():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    s = node_stats(g)
    # both nodes share the same event count -> column is constant -> exact mean
    x0 = featurize_graph(g, vocab, stats)[0][0]
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
    g = ProvenanceGraph(0, 0.0, nodes, edges)
    vocab, stats = fit_vocab_and_stats([g])
    z = featurize_graph(g, vocab, stats)[1][0]
    assert z[CFG.e_size] == pytest.approx(stats.apply(3, 0.0))


def test_most_frequent_edge_has_unit_freq():
    nodes = (mknode(NodeKind.PROCESS, "a"), mknode(NodeKind.FILE, "b"))
    edges = (Edge(Relation.READ, 0, 1, 1.0, count=4),
             Edge(Relation.WRITE, 0, 1, 2.0, count=2))
    g = ProvenanceGraph(0, 0.0, nodes, edges)
    vocab, stats = fit_vocab_and_stats([g])
    Z = featurize_graph(g, vocab, stats)[1]
    assert Z[0, CFG.e_freq] == 1.0
    assert Z[1, CFG.e_freq] == 0.5


def test_triggered_by_edge_alert_block():
    alert = mknode(NodeKind.ALERT, "alert:0:s", signature="s", severity=0.8,
                   protocol="udp", category="c2")
    proc = mknode(NodeKind.PROCESS, "p")
    g = ProvenanceGraph(0, 0.0, (proc, alert),
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
        assert np.isfinite(X).all() and np.isfinite(Z).all()


def test_oov_tokens_contribute_nothing():
    g = tiny_graph()
    vocab, stats = fit_vocab_and_stats([g])
    before = dict(vocab.token_index)
    novel = ProvenanceGraph(0, 0.0, (
        mknode(NodeKind.PROCESS, "x", commands=["neverseen zyx"]),), ())
    x = featurize_graph(novel, vocab, stats)[0][0]
    assert np.all(x[CFG.n_cmd:CFG.n_cmd + CFG.d_cmd] == 0.0)
    assert vocab.token_index == before


# ---------------------------------------------------------------- project


def project(X, Z, W_x, b_x, W_z, b_z):
    """project_packed on one graph with |V| = len(X) nodes and |E| = len(Z)
    edges; returns (x̃, z̃) as arrays."""
    g = ProvenanceGraph(0, 0.0, tuple(mknode(NodeKind.PROCESS, f"n{i}") for i in range(len(X))),
                        tuple(Edge(Relation.SELF_LOOP, 0, 0, 0.0) for _ in range(len(Z))))
    store = ParamStore()
    for name, value in (("proj.Wx", W_x), ("proj.bx", b_x), ("proj.Wz", W_z), ("proj.bz", b_z)):
        store.add(name, value)
    Xt, Zt = project_packed(pack_graphs([(X, Z, g)]), store)
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
