"""Relation-typed message passing over featurized graphs with an attention
readout.

Messages flow along edge direction (src → dst) and are mean-normalized per
(destination, relation); each node's own state survives through its self_loop
relation. A round is the R-GCN propagation rule (Schlichtkrull et al. 2018,
eq. 2) computed in aggregate-then-transform order: states are averaged over
each (relation, destination) segment first, and each relation's weight is
then applied once per segment instead of once per edge. Each round is one
autodiff op with a hand-written backward. The readout is single-query
dot-product attention followed by a linear projection; an empty graph embeds
to the zero vector.

Batches are "packed": node/edge matrices of many windows are concatenated
block-diagonally, and `pack_graphs` builds the segment plan once per batch:
each edge's (relation, destination) segment, and each segment's destination
and 1/count, with the segments of one relation contiguous.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParamRegistryError
from .graphs import _RELATION_ORDER, Relation
from .nn import Tensor, as_tensor, div, exp, gather_rows, matmul, mul
from .nn import reshape, segment_sum, sub, transpose
from .nn.tensor import _accum, _make

LAYERS = 3


def _as_int_array(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.int64) if len(xs) else np.zeros(0, dtype=np.int64)


def _scatter_rows(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of the rows of `values` (K, d) grouped by `index` (K,),
    each group summed in row order. One bincount over all K·d entries: its
    cost does not grow with the number of groups, unlike a per-group
    reduceat."""
    d = values.shape[1]
    if not index.size:
        return np.zeros((n, d))
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


@dataclass
class PackedGraphs:
    """Block-diagonal concatenation of one or more window graphs, with the
    message-passing plan. A segment is the set of edges sharing one
    (relation, destination); segments are ordered by relation, then
    destination."""

    X: np.ndarray            # (N, d_x) raw node features
    Z: np.ndarray            # (M, d_e) raw edge features
    node_graph: np.ndarray   # (N,) graph id per node, non-decreasing
    n_graphs: int
    n_nodes: int
    edge_src: np.ndarray     # (M,) source node per edge (row of Z)
    edge_seg: np.ndarray     # (M,) segment per edge
    seg_dst: np.ndarray      # (S,) destination node per segment
    seg_inv: np.ndarray      # (S, 1) 1 / edges in the segment
    rel_segs: dict           # Relation -> slice of segments, relations with edges only


def pack_graphs(items) -> PackedGraphs:
    """items: sequence of (X_raw, Z_raw, ProvenanceGraph)."""
    Xs, Zs, node_graph = [], [], []
    rel, src, dst = [], [], []
    node_off = 0
    for gi, (X, Z, g) in enumerate(items):
        n = len(g.nodes)
        Xs.append(X)
        Zs.append(Z)
        node_graph.append(np.full(n, gi, dtype=np.int64))
        for e in g.edges:
            rel.append(_RELATION_ORDER[e.relation])
            src.append(e.src + node_off)
            dst.append(e.dst + node_off)
        node_off += n

    d_x = Xs[0].shape[1] if Xs else 0
    d_e = Zs[0].shape[1] if Zs else 0
    X = np.concatenate(Xs, axis=0) if Xs else np.zeros((0, d_x))
    Z = np.concatenate(Zs, axis=0) if Zs else np.zeros((0, d_e))

    seg_key, edge_seg, counts = np.unique(
        _as_int_array(rel) * node_off + _as_int_array(dst), return_inverse=True, return_counts=True)
    bounds = np.searchsorted(seg_key, np.arange(len(Relation) + 1) * node_off).tolist()
    return PackedGraphs(
        X=X,
        Z=Z,
        node_graph=np.concatenate(node_graph) if node_graph else np.zeros(0, dtype=np.int64),
        n_graphs=len(items),
        n_nodes=node_off,
        edge_src=_as_int_array(src),
        edge_seg=edge_seg,
        seg_dst=seg_key % max(node_off, 1),
        seg_inv=(1.0 / counts).reshape(-1, 1),
        rel_segs={r: slice(lo, hi) for r, lo, hi in zip(Relation, bounds[:-1], bounds[1:])
                  if lo < hi},
    )


def project_packed(packed: PackedGraphs, store):
    """x̃ = W_x·x + b_x, z̃ = W_z·z + b_z over the packed matrices."""
    Xt = matmul(as_tensor(packed.X), transpose(store.tensor("proj.Wx"))) + store.tensor("proj.bx")
    Zt = matmul(as_tensor(packed.Z), transpose(store.tensor("proj.Wz"))) + store.tensor("proj.bz")
    return Xt, Zt


def _segment_mean(edge_rows: np.ndarray, packed: PackedGraphs) -> np.ndarray:
    """(S, d) mean of per-edge rows over each segment."""
    out = _scatter_rows(edge_rows, packed.edge_seg, packed.seg_dst.size)
    out *= packed.seg_inv
    return out


@dataclass(frozen=True)
class EdgeMeans:
    """Per-edge states averaged over each segment of one packed batch."""

    t: Tensor  # (S, d)


def edge_means(packed: PackedGraphs, z_tilde) -> EdgeMeans:
    """Mean of the per-edge rows z̃ (M, d) over each (relation, destination)
    segment, as one op. The means do not change between rounds, so one
    EdgeMeans can serve every round of a forward pass."""
    z = as_tensor(z_tilde)

    def backward(g):
        _accum(z, (g * packed.seg_inv)[packed.edge_seg])

    return EdgeMeans(_make(_segment_mean(z.data, packed), (z,), backward))


def message_passing_packed(packed: PackedGraphs, h: Tensor, z_tilde, weights: dict) -> Tensor:
    """One update, as one op:
    h_i' = relu( Σ_τ W_τ [ mean_{j→i under τ} h_j ‖ mean_{j→i under τ} z̃_ji ] ),
    where τ counts only if i has τ in-edges. `z_tilde` holds the per-edge
    z̃ (M, d_h), or its `edge_means` to share one aggregation across rounds."""
    for rel in Relation:
        if weights.get(rel) is None:
            raise ParamRegistryError(f"no weight configured for relation {rel.value!r}")
    h = as_tensor(h)
    zm = (z_tilde if isinstance(z_tilde, EdgeMeans) else edge_means(packed, z_tilde)).t
    d = h.data.shape[1]
    agg = _segment_mean(h.data[packed.edge_src], packed)
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
            _accum(W, np.concatenate([g_seg.T @ agg[sl], g_seg.T @ zm.data[sl]], axis=1))
            np.matmul(g_seg, W.data[:, :d], out=d_agg[sl])
            if d_zm is not None:
                np.matmul(g_seg, W.data[:, d:], out=d_zm[sl])
        if d_zm is not None:
            _accum(zm, d_zm)
        if h.requires_grad:
            d_agg *= packed.seg_inv
            _accum(h, _scatter_rows(d_agg[packed.edge_seg], packed.edge_src, packed.n_nodes))

    return _make(out, (h, zm, *(weights[rel] for rel in packed.rel_segs)), backward)


def _segment_max(values: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    counts = np.bincount(seg, minlength=n)
    nonempty = np.nonzero(counts)[0]
    if nonempty.size:
        starts = np.searchsorted(seg, nonempty, side="left")
        out[nonempty] = np.maximum.reduceat(values, starts)
    return out


def attention_readout(packed: PackedGraphs, h: Tensor, store):
    """α = per-graph softmax of aᵀh_i; g = W_g · Σ_i α_i h_i. Returns
    (g: (G, d_g), alpha: (N,))."""
    a = store.tensor("enc.attn.a")
    d_h = a.data.shape[0]
    scores = reshape(matmul(h, reshape(a, (d_h, 1))), (packed.n_nodes,))
    # constant per-segment shift keeps softmax exact and numerically stable
    shift = _segment_max(scores.data, packed.node_graph, packed.n_graphs)
    ex = exp(sub(scores, as_tensor(shift[packed.node_graph])))
    denom = segment_sum(ex, packed.node_graph, packed.n_graphs)
    alpha = div(ex, gather_rows(denom, packed.node_graph))
    pooled = segment_sum(mul(reshape(alpha, (packed.n_nodes, 1)), h),
                         packed.node_graph, packed.n_graphs)
    g = matmul(pooled, transpose(store.tensor("enc.out.Wg")))
    return g, alpha


def encode_packed(packed: PackedGraphs, store, layers: int = LAYERS):
    """Full encoder over a packed batch: project, L message-passing rounds,
    attention readout. Returns EncodeBatch with gradients intact."""
    h, z_tilde = project_packed(packed, store)
    z_means = edge_means(packed, z_tilde)
    for layer in range(layers):
        weights = {rel: store.tensor(f"enc.L{layer}.{rel.value}.W") for rel in Relation}
        h = message_passing_packed(packed, h, z_means, weights)
    g, alpha = attention_readout(packed, h, store)
    return EncodeBatch(g=g, alpha=alpha, node_states=h, packed=packed)


@dataclass
class EncodeBatch:
    g: Tensor            # (G, d_g)
    alpha: Tensor        # (N,)
    node_states: Tensor  # (N, d_h)
    packed: PackedGraphs


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
