"""Relation-typed message passing over featurized graphs with an attention
readout.

Messages flow along edge direction (src → dst) and are mean-normalized per
(relation, destination) segment; each node's own state survives through its
self_loop relation. A round is the R-GCN propagation rule (Schlichtkrull et
al. 2018, eq. 2) computed in aggregate-then-transform order: states are
averaged over each segment first, and each relation's weight is then applied
once per segment instead of once per edge.

`pack_graphs` stacks the sparse (CSR) node feature rows of many windows
and concatenates their graphs block-diagonally; the node projection is a
sparse × dense product, since about 4 % of the raw node features are set.
It writes the segment averages as one sparse (S, N) mean matrix A,
A[s, j] = (edges from j in s) / (edges in s). A round's forward
aggregate is A·h and its backward scatter Aᵀ·g. The raw edge features are
averaged per segment once, when packing, and projected after: the edge
projection is affine, so the mean of the projected rows equals the
projection of the mean row. Each round is one autodiff op with a
hand-written backward. The readout is single-query dot-product attention
followed by a linear projection, also one op with a hand-written backward;
an empty graph embeds to the zero vector.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParamRegistryError
from .graphs import Relation
from .nn import Tensor, as_tensor, linear
from .nn.tensor import _accum, _make

LAYERS = 3


@dataclass
class PackedGraphs:
    """Block-diagonal concatenation of one or more window graphs, with the
    segment mean matrix. A segment is the set of edges sharing one
    (relation, destination); segments are ordered by relation, then
    destination, and only segments holding an edge exist."""

    X: sp.csr_array          # (N, d_x) raw node features
    Zbar: np.ndarray         # (S, d_e) mean raw edge features per segment
    node_graph: np.ndarray   # (N,) graph id per node, non-decreasing
    n_graphs: int
    n_nodes: int
    mean: sp.csr_array       # (S, N) A: (A·h)[s] = mean of h over the sources of s's edges
    seg_dst: np.ndarray      # (S,) destination node per segment
    rel_segs: dict           # Relation -> slice of segments, relations with edges only


def pack_graphs(items) -> PackedGraphs:
    """items: sequence of windows whose first three fields are X_raw (CSR),
    Z_raw and the ProvenanceGraph. Each graph's `edge_index` joins the batch
    shifted by its first node's offset, and each X_raw's rows join it by
    `indptr` shifted by the non-zeros before them."""
    graphs = [item[2] for item in items]
    n_per = np.array([len(g.nodes) for g in graphs], dtype=np.int64)
    n_nodes = int(n_per.sum())
    rel, src, dst = np.concatenate(
        [np.zeros((3, 0), dtype=np.int64)] + [g.edge_index for g in graphs], axis=1)
    shift = np.repeat(np.cumsum(n_per) - n_per, [g.edge_index.shape[1] for g in graphs])
    seg_key, edge_seg, counts = np.unique(
        rel * n_nodes + dst + shift, return_inverse=True, return_counts=True)
    bounds = np.searchsorted(seg_key, np.arange(len(Relation) + 1) * n_nodes).tolist()
    # row s of both mean matrices holds segment s's edges in edge order, 1/|s| each
    order = np.argsort(edge_seg, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(counts)])
    weight = np.repeat(1.0 / counts, counts)
    n_segs = len(seg_key)
    edge_mean = sp.csr_array((weight, order, indptr), shape=(n_segs, len(order)))
    Z = np.concatenate([item[1] for item in items]) if items else np.zeros((0, 0))
    blocks = [item[0] for item in items] or [sp.csr_array((0, 0))]
    width, *others = {X.shape[1] for X in blocks}
    if others:
        raise ValueError(f"node feature widths differ across windows: {sorted([width, *others])}")
    offsets = np.cumsum([0] + [X.nnz for X in blocks[:-1]])
    X = sp.csr_array((np.concatenate([X.data for X in blocks]),
                      np.concatenate([X.indices for X in blocks]),
                      np.concatenate([[0]] + [X.indptr[1:] + off for X, off in zip(blocks, offsets)])),
                     shape=(n_nodes, width))
    return PackedGraphs(
        X=X,
        Zbar=edge_mean @ Z,
        node_graph=np.repeat(np.arange(len(items), dtype=np.int64), n_per),
        n_graphs=len(items),
        n_nodes=n_nodes,
        mean=sp.csr_array((weight, (src + shift)[order], indptr), shape=(n_segs, n_nodes)),
        seg_dst=seg_key % max(n_nodes, 1),
        rel_segs={r: slice(lo, hi) for r, lo, hi in zip(Relation, bounds[:-1], bounds[1:])
                  if lo < hi},
    )


def project_packed(packed: PackedGraphs, store):
    """x̃ = W_x·x + b_x per node, from the sparse X, and z̄ = W_z·mean(z) + b_z
    per segment, which is the segment mean of the per-edge z̃ = W_z·z + b_z."""
    return (linear(packed.X, store.tensor("proj.Wx"), store.tensor("proj.bx")),
            linear(packed.Zbar, store.tensor("proj.Wz"), store.tensor("proj.bz")))


def message_passing_packed(packed: PackedGraphs, h: Tensor, z_means, weights: dict) -> Tensor:
    """One update, as one op:
    h_i' = relu( Σ_τ W_τ [ mean_{j→i under τ} h_j ‖ mean_{j→i under τ} z̃_ji ] ),
    where τ counts only if i has τ in-edges. `z_means` holds the (S, d)
    segment means of z̃ from `project_packed`; every round shares them."""
    for rel in Relation:
        if weights.get(rel) is None:
            raise ParamRegistryError(f"no weight configured for relation {rel.value!r}")
    h = as_tensor(h)
    zm = as_tensor(z_means)
    d = h.data.shape[1]
    agg = packed.mean @ h.data
    out = np.zeros((packed.n_nodes, d))
    for rel, sl in packed.rel_segs.items():
        W = weights[rel].data
        msg = agg[sl] @ W[:, :d].T
        msg += zm.data[sl] @ W[:, d:].T
        out[packed.seg_dst[sl]] += msg
    np.maximum(out, 0.0, out=out)

    def backward(g):
        g = g * (out > 0)
        d_agg = np.empty_like(agg)
        d_zm = np.empty_like(agg) if zm.requires_grad else None
        for rel, sl in packed.rel_segs.items():
            W = weights[rel]
            g_seg = g[packed.seg_dst[sl]]
            _accum(W, np.concatenate([g_seg.T @ agg[sl], g_seg.T @ zm.data[sl]], axis=1),
                   fresh=True)
            np.matmul(g_seg, W.data[:, :d], out=d_agg[sl])
            if d_zm is not None:
                np.matmul(g_seg, W.data[:, d:], out=d_zm[sl])
        if d_zm is not None:
            _accum(zm, d_zm, fresh=True)
        if h.requires_grad:
            _accum(h, packed.mean.T @ d_agg, fresh=True)

    return _make(out, (h, zm, *(weights[rel] for rel in packed.rel_segs)), backward)


def attention_readout(packed: PackedGraphs, h: Tensor, store):
    """α = per-graph softmax of aᵀh_i; g = W_g · Σ_i α_i h_i, as one op with a
    hand-written backward. Returns (g: (G, d_g), alpha: (N,)); alpha is a
    constant that carries no gradient."""
    h = as_tensor(h)
    a = store.tensor("enc.attn.a")
    Wg = store.tensor("enc.out.Wg")
    graph = packed.node_graph
    # node_graph is non-decreasing: each graph with nodes is one run of rows
    nonempty = np.nonzero(np.bincount(graph, minlength=packed.n_graphs))[0]
    starts = np.searchsorted(graph, nonempty, side="left")

    def per_graph(ufunc, values):
        out = np.zeros((packed.n_graphs,) + values.shape[1:])
        if nonempty.size:
            out[nonempty] = ufunc.reduceat(values, starts, axis=0)
        return out

    scores = (h.data @ a.data.reshape(-1, 1)).reshape(packed.n_nodes)
    # a constant per-graph shift keeps softmax exact and numerically stable
    ex = np.exp(scores - per_graph(np.maximum, scores)[graph])
    alpha = ex / per_graph(np.add, ex)[graph]
    pooled = per_graph(np.add, alpha.reshape(-1, 1) * h.data)

    def backward(dg):
        _accum(Wg, dg.T @ pooled, fresh=True)
        d_rows = (dg @ Wg.data)[graph]                 # dL/d pooled, per node
        d_alpha = (d_rows * h.data).sum(axis=1)
        d_scores = alpha * (d_alpha - per_graph(np.add, alpha * d_alpha)[graph])
        _accum(a, h.data.T @ d_scores, fresh=True)
        if h.requires_grad:
            d_rows *= alpha.reshape(-1, 1)
            d_rows += d_scores.reshape(-1, 1) * a.data
            _accum(h, d_rows, fresh=True)

    return _make(pooled @ Wg.data.T, (h, a, Wg), backward), as_tensor(alpha)


def encode_packed(packed: PackedGraphs, store, layers: int = LAYERS):
    """Full encoder over a packed batch: project, L message-passing rounds,
    attention readout. Returns EncodeBatch with gradients intact."""
    h, z_means = project_packed(packed, store)
    for layer in range(layers):
        weights = {rel: store.tensor(f"enc.L{layer}.{rel.value}.W") for rel in Relation}
        h = message_passing_packed(packed, h, z_means, weights)
    g, alpha = attention_readout(packed, h, store)
    return EncodeBatch(g=g, alpha=alpha, node_states=h)


@dataclass
class EncodeBatch:
    g: Tensor            # (G, d_g)
    alpha: Tensor        # (N,), without gradient
    node_states: Tensor  # (N, d_h)


def encoder_param_spec(d_x: int, d_e: int, d_h: int, d_g: int, layers: int = LAYERS) -> dict:
    spec = {
        "proj.Wx": (d_h, d_x),
        "proj.bx": (d_h,),
        "proj.Wz": (d_h, d_e),
        "proj.bz": (d_h,),
    }
    for layer in range(layers):
        for rel in Relation:
            spec[f"enc.L{layer}.{rel.value}.W"] = (d_h, 2 * d_h)
    spec["enc.attn.a"] = (d_h,)
    spec["enc.out.Wg"] = (d_g, d_h)
    return spec


def write_attention_csv(path, graphs, alphas) -> None:
    """One row per node: (window_index, node_key, node_kind, alpha)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window_index", "node_key", "node_kind", "alpha"])
        for g, al in zip(graphs, alphas):
            for node, a in zip(g.nodes, np.asarray(al).ravel()):
                w.writerow([g.window_index, node.key, node.kind.value, f"{a:.10g}"])
