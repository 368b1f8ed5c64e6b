"""Numeric featurization of provenance graphs.

All node kinds share one fixed-width vector: a kind one-hot, a host-entity
block [cmd-tfidf | user-bucket+priv | rel-time | degree stats] and an alert
block [sig-tfidf | severity | proto+direction | subnet+port | rel-time]; the
inapplicable block is zeroed. Edges get [relation one-hot | freq | log-bytes |
rel-time | alert-category/severity/proto]. Continuous stat columns are
z-scored with statistics fit on training graphs only.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import zlib
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CompatibilityError, FitError, InputError
from .graphs import (
    NUM_RELATIONS,
    WINDOW_SECONDS,
    NodeKind,
    ProvenanceGraph,
    Relation,
    _KIND_ORDER,
    _RELATION_ORDER,
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_PRIVILEGED = {"system", "root", "administrator", "nt authority\\system"}
_PROTOCOLS = ("tcp", "udp", "icmp", "other")

CONTINUOUS_COLUMNS = (
    "node_in_degree",
    "node_out_degree",
    "node_event_count",
    "edge_log_bytes",
)
CONSTANT_STD = 1e-8
FEATURE_SPEC_VERSION = 1


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def _bucket(token: str, n: int) -> int:
    # stable across processes (unlike builtin hash)
    return zlib.crc32(token.encode("utf-8")) % n


@dataclass(frozen=True)
class FeaturizerConfig:
    d_cmd: int = 64
    user_buckets: int = 16
    subnet_buckets: int = 32
    category_buckets: int = 8

    # --- node layout ---
    @property
    def n_type(self) -> int:
        return 0

    @property
    def n_cmd(self) -> int:
        return len(NodeKind)

    @property
    def n_user(self) -> int:
        return self.n_cmd + self.d_cmd

    @property
    def n_priv(self) -> int:
        return self.n_user + self.user_buckets

    @property
    def n_time(self) -> int:
        return self.n_priv + 1

    @property
    def n_stat(self) -> int:
        return self.n_time + 1

    @property
    def n_sig(self) -> int:
        return self.n_stat + 3

    @property
    def n_sev(self) -> int:
        return self.n_sig + self.d_cmd

    @property
    def n_proto(self) -> int:
        return self.n_sev + 1

    @property
    def n_net(self) -> int:
        return self.n_proto + len(_PROTOCOLS) + 1

    @property
    def n_atime(self) -> int:
        return self.n_net + self.subnet_buckets + 1

    @property
    def node_dim(self) -> int:
        return self.n_atime + 1

    # --- edge layout ---
    @property
    def e_type(self) -> int:
        return 0

    @property
    def e_freq(self) -> int:
        return NUM_RELATIONS

    @property
    def e_size(self) -> int:
        return self.e_freq + 1

    @property
    def e_time(self) -> int:
        return self.e_size + 1

    @property
    def e_acat(self) -> int:
        return self.e_time + 1

    @property
    def e_asev(self) -> int:
        return self.e_acat + self.category_buckets

    @property
    def e_aproto(self) -> int:
        return self.e_asev + 1

    @property
    def edge_dim(self) -> int:
        return self.e_aproto + len(_PROTOCOLS)


@dataclass
class FeatureVocab:
    token_index: dict
    idf: np.ndarray  # aligned to columns [0, len(token_index))
    d_cmd: int

    def tfidf(self, text: str) -> np.ndarray:
        vec = np.zeros(self.d_cmd)
        for tok, cnt in Counter(tokenize(text)).items():
            col = self.token_index.get(tok)
            if col is not None:
                vec[col] = cnt * self.idf[col]
        return vec


@dataclass
class ZScoreStats:
    mean: np.ndarray  # per CONTINUOUS_COLUMNS entry
    std: np.ndarray

    @property
    def constant(self) -> np.ndarray:
        return self.std < CONSTANT_STD

    def apply(self, column: int, values):
        if self.constant[column]:
            return np.zeros_like(np.asarray(values, dtype=float))
        return (np.asarray(values, dtype=float) - self.mean[column]) / self.std[column]


def node_text(node) -> str:
    if node.kind is NodeKind.ALERT:
        return node.attrs.get("signature", "")
    if node.kind is NodeKind.PROCESS:
        cmds = node.attrs.get("commands")
        return " ".join(cmds) if cmds else node.key.rsplit("/", 1)[-1]
    if node.kind is NodeKind.FILE:
        return node.key
    return ""


def node_stats(graph: ProvenanceGraph) -> np.ndarray:
    """Raw (in_degree, out_degree, event_count) per node. Self-loops are
    excluded everywhere (they are constant per node); triggered_by edges count
    toward degree but not toward the host-event count."""
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


def edge_log_bytes(graph: ProvenanceGraph) -> np.ndarray:
    return np.array([math.log1p(e.bytes or 0) for e in graph.edges])


def fit_vocab_and_stats(corpus, config: FeaturizerConfig = FeaturizerConfig()):
    """Build the shared TF-IDF vocabulary and z-score statistics from training
    graphs only. idf = ln((1+N)/(1+df)) + 1 over text-bearing nodes."""
    corpus = list(corpus)
    if not corpus:
        raise FitError("cannot fit featurizer on an empty corpus")

    df: Counter = Counter()
    n_docs = 0
    stat_rows = []
    size_vals = []
    for g in corpus:
        stats = node_stats(g)
        for i, node in enumerate(g.nodes):
            text = node_text(node)
            if text:
                n_docs += 1
                df.update(set(tokenize(text)))
            if node.kind is not NodeKind.ALERT:
                stat_rows.append(stats[i])
        size_vals.append(edge_log_bytes(g))

    top = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[: config.d_cmd]
    token_index = {tok: col for col, (tok, _) in enumerate(top)}
    idf = np.array([math.log((1 + n_docs) / (1 + cnt)) + 1.0 for _, cnt in top])
    vocab = FeatureVocab(token_index=token_index, idf=idf, d_cmd=config.d_cmd)

    stat_mat = np.array(stat_rows) if stat_rows else np.zeros((0, 3))
    sizes = np.concatenate(size_vals) if size_vals else np.zeros(0)
    mean = np.zeros(len(CONTINUOUS_COLUMNS))
    std = np.zeros(len(CONTINUOUS_COLUMNS))
    if stat_mat.shape[0]:
        mean[:3] = stat_mat.mean(axis=0)
        std[:3] = stat_mat.std(axis=0)
    if sizes.shape[0]:
        mean[3] = sizes.mean()
        std[3] = sizes.std()
    return vocab, ZScoreStats(mean=mean, std=std)


def _fill_node_row(row, node, stat_row, graph, vocab, stats, cfg) -> None:
    row[cfg.n_type + _KIND_ORDER[node.kind]] = 1.0
    if node.kind is NodeKind.ALERT:
        row[cfg.n_sig : cfg.n_sig + cfg.d_cmd] = vocab.tfidf(node_text(node))
        row[cfg.n_sev] = node.attrs.get("severity", 0.0)
        proto = node.attrs.get("protocol", "other")
        row[cfg.n_proto + _PROTOCOLS.index(proto if proto in _PROTOCOLS else "other")] = 1.0
        if node.attrs.get("outbound"):
            row[cfg.n_proto + len(_PROTOCOLS)] = 1.0
        ext_ip = node.attrs.get("external_ip", "")
        subnet = ".".join(ext_ip.split(".")[:3])
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


def _fill_edge_row(row, edge, max_count, graph, stats, cfg) -> None:
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


def featurize_graph(graph: ProvenanceGraph, vocab, stats,
                    config: FeaturizerConfig = FeaturizerConfig()):
    """Raw feature matrices (X: |V|×d_x, Z: |E|×d_e) for one graph."""
    X = np.zeros((len(graph.nodes), config.node_dim))
    Z = np.zeros((len(graph.edges), config.edge_dim))
    srows = node_stats(graph)
    for i, node in enumerate(graph.nodes):
        _fill_node_row(X[i], node, srows[i], graph, vocab, stats, config)
    if graph.edges:
        max_count = max(e.count for e in graph.edges)
        for j, edge in enumerate(graph.edges):
            _fill_edge_row(Z[j], edge, max_count, graph, stats, config)
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise InputError("non-finite feature value produced")
    return X, Z


# --- persistence ("feature spec" artifact) ---

def _spec_payload(vocab: FeatureVocab, stats: ZScoreStats, config: FeaturizerConfig) -> dict:
    cols = [None] * len(vocab.token_index)
    for tok, col in vocab.token_index.items():
        cols[col] = tok
    return {
        "version": FEATURE_SPEC_VERSION,
        "config": asdict(config),
        "vocab": {"tokens": cols, "idf": [float(v) for v in vocab.idf]},
        "stats": {
            "columns": list(CONTINUOUS_COLUMNS),
            "mean": [float(v) for v in stats.mean],
            "std": [float(v) for v in stats.std],
        },
    }


def feature_spec_hash(vocab, stats, config) -> str:
    blob = json.dumps(_spec_payload(vocab, stats, config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def save_feature_spec(path, vocab, stats, config, meta: dict | None = None) -> str:
    payload = _spec_payload(vocab, stats, config)
    payload["spec_hash"] = feature_spec_hash(vocab, stats, config)
    if meta:
        payload["meta"] = meta  # provenance only; excluded from spec_hash
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload["spec_hash"]


def load_feature_spec(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != FEATURE_SPEC_VERSION:
        raise CompatibilityError(
            f"feature spec version {payload.get('version')} != {FEATURE_SPEC_VERSION}"
        )
    config = FeaturizerConfig(**payload["config"])
    tokens = payload["vocab"]["tokens"]
    vocab = FeatureVocab(
        token_index={tok: col for col, tok in enumerate(tokens)},
        idf=np.array(payload["vocab"]["idf"]),
        d_cmd=config.d_cmd,
    )
    stats = ZScoreStats(
        mean=np.array(payload["stats"]["mean"]),
        std=np.array(payload["stats"]["std"]),
    )
    return vocab, stats, config, payload["spec_hash"]
