"""Numeric featurization of provenance graphs.

The layout is defined once, by the ordered (block, width) tables
`_node_blocks` and `_edge_blocks`; `FeaturizerConfig` derives every column
offset from them. All node kinds share one fixed-width vector: a kind
one-hot, a host-entity part and an alert part, with the inapplicable part
zeroed. Edges get a relation one-hot, frequency, log-bytes and time, plus
alert attributes on triggered_by edges. Continuous stat columns are
z-scored with statistics fit on training graphs only.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .errors import CompatibilityError, FitError, InputError, ValidationError
from .graphs import (
    NUM_RELATIONS,
    WINDOW_SECONDS,
    NodeKind,
    ProvenanceGraph,
    Relation,
    _KIND_ORDER,
    _RELATION_ORDER,
)
from .telemetry.records import Protocol

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_PRIVILEGED = {"system", "root", "administrator", "nt authority\\system"}
_PROTOCOLS = tuple(p.value for p in Protocol)

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


def _node_blocks(c) -> tuple:
    return (
        ("n_type", len(NodeKind)),           # kind one-hot
        ("n_cmd", c.d_cmd),                  # host entity: command/path TF-IDF
        ("n_user", c.user_buckets),          # hashed users
        ("n_priv", 1),                       # privileged-user flag
        ("n_time", 1),                       # first sighting, window-relative
        ("n_stat", 3),                       # z-scored in/out degree, event count
        ("n_sig", c.d_cmd),                  # alert: signature TF-IDF
        ("n_sev", 1),                        # severity
        ("n_proto", len(_PROTOCOLS) + 1),    # protocol one-hot + outbound flag
        ("n_net", c.subnet_buckets + 1),     # hashed external /24 + port / 65535
        ("n_atime", 1),                      # alert time, window-relative
    )


def _edge_blocks(c) -> tuple:
    return (
        ("e_type", NUM_RELATIONS),           # relation one-hot
        ("e_freq", 1),                       # count / max count in the window
        ("e_size", 1),                       # z-scored log1p(bytes)
        ("e_time", 1),                       # window-relative timestamp
        ("e_acat", c.category_buckets),      # triggered_by: hashed alert category
        ("e_asev", 1),                       # alert severity
        ("e_aproto", len(_PROTOCOLS)),       # alert protocol one-hot
    )


@dataclass(frozen=True)
class FeaturizerConfig:
    """The four block widths. Every block offset (`n_*`, `e_*`) and
    `node_dim`/`edge_dim` is derived from `_node_blocks`/`_edge_blocks` at
    construction; they are not fields, so `asdict` (and the feature-spec
    hash) sees only the widths."""

    d_cmd: int = 64
    user_buckets: int = 16
    subnet_buckets: int = 32
    category_buckets: int = 8

    def __post_init__(self):
        for f in fields(self):
            width = getattr(self, f.name)
            if not isinstance(width, int) or width < 1:
                raise ValidationError(f"featurizer.{f.name} must be a positive integer, got {width!r}")
        for blocks, dim in ((_node_blocks(self), "node_dim"), (_edge_blocks(self), "edge_dim")):
            offset = 0
            for name, width in blocks:
                object.__setattr__(self, name, offset)
                offset += width
            object.__setattr__(self, dim, offset)


@dataclass
class FeatureVocab:
    token_index: dict
    idf: np.ndarray  # aligned to columns [0, len(token_index))
    d_cmd: int
    # text -> its tf-idf row; outside equality and the spec payload
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def tfidf(self, text: str) -> np.ndarray:
        """The text's tf-idf row, computed once per distinct text. Rows are
        read-only because every later call returns the same array."""
        vec = self._rows.get(text)
        if vec is None:
            vec = np.zeros(self.d_cmd)
            for tok, cnt in Counter(tokenize(text)).items():
                col = self.token_index.get(tok)
                if col is not None:
                    vec[col] = cnt * self.idf[col]
            vec.flags.writeable = False
            self._rows[text] = vec
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
        return node.attrs["signature"]
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
    rel, src, dst = graph.edge_index
    linked = rel != _RELATION_ORDER[Relation.SELF_LOOP]
    host = linked & (rel != _RELATION_ORDER[Relation.TRIGGERED_BY])
    count = graph.edge_count[host]
    out = np.zeros((n, 3))
    out[:, 0] = np.bincount(dst[linked], minlength=n)
    out[:, 1] = np.bincount(src[linked], minlength=n)
    out[:, 2] = (np.bincount(src[host], weights=count, minlength=n)
                 + np.bincount(dst[host], weights=count, minlength=n))
    return out


def edge_log_bytes(graph: ProvenanceGraph) -> np.ndarray:
    """log1p(bytes) per edge, 0 without a byte count. `math.log1p` value by
    value: `np.log1p` differs from it in the last bit on some inputs."""
    return np.array([math.log1p(b) for b in np.nan_to_num(graph.edge_bytes).tolist()])


def _host_rows(graph: ProvenanceGraph) -> np.ndarray:
    """Mask of the non-alert nodes: the rows that carry the host-entity
    block, and the rows the node stat columns are fitted on."""
    return np.array([node.kind is not NodeKind.ALERT for node in graph.nodes], dtype=bool)


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
        for node in g.nodes:
            text = node_text(node)
            if text:
                n_docs += 1
                df.update(set(tokenize(text)))
        stat_rows.append(node_stats(g)[_host_rows(g)])
        size_vals.append(edge_log_bytes(g))

    top = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[: config.d_cmd]
    token_index = {tok: col for col, (tok, _) in enumerate(top)}
    idf = np.array([math.log((1 + n_docs) / (1 + cnt)) + 1.0 for _, cnt in top])
    vocab = FeatureVocab(token_index=token_index, idf=idf, d_cmd=config.d_cmd)

    stat_mat = np.concatenate(stat_rows)
    sizes = np.concatenate(size_vals)
    mean = np.zeros(len(CONTINUOUS_COLUMNS))
    std = np.zeros(len(CONTINUOUS_COLUMNS))
    if stat_mat.shape[0]:
        mean[:3] = stat_mat.mean(axis=0)
        std[:3] = stat_mat.std(axis=0)
    if sizes.shape[0]:
        mean[3] = sizes.mean()
        std[3] = sizes.std()
    return vocab, ZScoreStats(mean=mean, std=std)


def featurize_graph(graph: ProvenanceGraph, vocab, stats,
                    config: FeaturizerConfig = FeaturizerConfig()):
    """Raw feature matrices for one graph: X, |V|×d_x, as a canonical
    `scipy.sparse.csr_array` of its non-zero values, and Z, |E|×d_e, dense."""
    c = config
    nodes = graph.nodes
    rel, src, _ = graph.edge_index
    X = np.zeros((len(nodes), c.node_dim))
    Z = np.zeros((len(rel), c.edge_dim))

    host = _host_rows(graph)
    alert = ~host
    kind = np.array([_KIND_ORDER[node.kind] for node in nodes], dtype=np.int64)
    X[np.arange(len(nodes)), c.n_type + kind] = 1.0
    rel_time = (np.array([node.attrs["first_ts"] for node in nodes], dtype=float)
                - graph.window_start) / WINDOW_SECONDS
    X[host, c.n_time] = rel_time[host]
    X[alert, c.n_atime] = rel_time[alert]
    node_stat = node_stats(graph)[host]
    for j in range(3):
        X[host, c.n_stat + j] = stats.apply(j, node_stat[:, j])

    for i, node in enumerate(nodes):
        a = node.attrs
        if node.kind is NodeKind.ALERT:
            X[i, c.n_sig : c.n_sig + c.d_cmd] = vocab.tfidf(node_text(node))
            X[i, c.n_sev] = a["severity"]
            X[i, c.n_proto + _PROTOCOLS.index(a["protocol"])] = 1.0
            if a["outbound"]:
                X[i, c.n_proto + len(_PROTOCOLS)] = 1.0
            subnet = ".".join(a["external_ip"].split(".")[:3])
            X[i, c.n_net + _bucket(subnet, c.subnet_buckets)] = 1.0
            X[i, c.n_net + c.subnet_buckets] = a["external_port"] / 65535.0
            continue
        text = node_text(node)
        if text:
            X[i, c.n_cmd : c.n_cmd + c.d_cmd] = vocab.tfidf(text)
        users = a.get("users", [])
        if node.kind is NodeKind.USER:
            users = list(users) + [node.key]
        for u in users:
            X[i, c.n_user + _bucket(u, c.user_buckets)] = 1.0
        if any(u.lower() in _PRIVILEGED for u in users):
            X[i, c.n_priv] = 1.0

    Z[np.arange(len(rel)), c.e_type + rel] = 1.0
    Z[:, c.e_freq] = graph.edge_count / graph.edge_count.max(initial=1)
    Z[:, c.e_size] = stats.apply(3, edge_log_bytes(graph))
    Z[:, c.e_time] = (graph.edge_time - graph.window_start) / WINDOW_SECONDS
    for j in np.flatnonzero(rel == _RELATION_ORDER[Relation.TRIGGERED_BY]):
        a = nodes[src[j]].attrs
        Z[j, c.e_acat + _bucket(a["category"], c.category_buckets)] = 1.0
        Z[j, c.e_asev] = a["severity"]
        Z[j, c.e_aproto + _PROTOCOLS.index(a["protocol"])] = 1.0
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise InputError("non-finite feature value produced")
    # row-major non-zeros are CSR's data in order; row i starts at the first one past i·d_x
    flat = X.ravel()
    nz = (flat != 0).nonzero()[0]
    bounds = np.arange(0, X.size + 1, c.node_dim)
    return sp.csr_array((flat[nz], nz % c.node_dim, np.searchsorted(nz, bounds)),
                        shape=X.shape), Z


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
    """(vocab, stats, config, spec_hash) of a saved feature spec. A file that
    is not JSON, lacks a field read here or records widths that no
    `FeaturizerConfig` takes raises CompatibilityError naming the path."""
    try:
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
    except (ValueError, KeyError, TypeError, AttributeError, ValidationError) as exc:
        raise CompatibilityError(
            f"feature spec {str(path)!r} is unreadable: {type(exc).__name__}: {exc}") from None
