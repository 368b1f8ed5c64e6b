"""Relation-typed message passing over featurized graphs with an attention
readout.

Messages flow along edge direction (src → dst) and are mean-normalized per
(destination, relation); each node's own state survives through its self_loop
relation. The readout is single-query dot-product attention followed by a
linear projection; an empty graph embeds to the zero vector.

Batches are "packed": node/edge matrices of many windows are concatenated
block-diagonally and per-relation edge lists are pre-sorted by destination so
the aggregation is a single segment-sum per relation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParamRegistryError
from .graphs import Relation
from .nn import Tensor, as_tensor, concat, div, exp, gather_rows, matmul, mul
from .nn import relu as _relu
from .nn import reshape, segment_sum, sub, transpose

LAYERS = 3


def _as_int_array(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.int64) if len(xs) else np.zeros(0, dtype=np.int64)


@dataclass
class PackedGraphs:
    """Block-diagonal concatenation of one or more window graphs."""

    X: np.ndarray            # (N, d_x) raw node features
    Z: np.ndarray            # (M, d_e) raw edge features
    node_graph: np.ndarray   # (N,) graph id per node, non-decreasing
    n_graphs: int
    n_nodes: int
    rel_edges: dict          # Relation -> (src, dst, zrow), dst-sorted
    inv_counts: dict         # Relation -> (N, 1) 1/|in-neighbors|, 0 where none
    node_keys: list
    node_kinds: list
    window_indices: list     # per graph


def pack_graphs(items) -> PackedGraphs:
    """items: sequence of (X_raw, Z_raw, ProvenanceGraph)."""
    Xs, Zs, node_graph = [], [], []
    src_acc = {r: [] for r in Relation}
    dst_acc = {r: [] for r in Relation}
    zrow_acc = {r: [] for r in Relation}
    node_keys, node_kinds, window_indices = [], [], []
    node_off = edge_off = 0
    for gi, (X, Z, g) in enumerate(items):
        n = len(g.nodes)
        Xs.append(X)
        Zs.append(Z)
        node_graph.append(np.full(n, gi, dtype=np.int64))
        for j, e in enumerate(g.edges):
            src_acc[e.relation].append(e.src + node_off)
            dst_acc[e.relation].append(e.dst + node_off)
            zrow_acc[e.relation].append(j + edge_off)
        node_keys.extend(nd.key for nd in g.nodes)
        node_kinds.extend(nd.kind.value for nd in g.nodes)
        window_indices.append(g.window_index)
        node_off += n
        edge_off += len(g.edges)

    d_x = Xs[0].shape[1] if Xs else 0
    d_e = Zs[0].shape[1] if Zs else 0
    X = np.concatenate(Xs, axis=0) if Xs else np.zeros((0, d_x))
    Z = np.concatenate(Zs, axis=0) if Zs else np.zeros((0, d_e))
    rel_edges, inv_counts = {}, {}
    for rel in Relation:
        src = _as_int_array(src_acc[rel])
        dst = _as_int_array(dst_acc[rel])
        zrow = _as_int_array(zrow_acc[rel])
        order = np.argsort(dst, kind="stable")
        src, dst, zrow = src[order], dst[order], zrow[order]
        rel_edges[rel] = (src, dst, zrow)
        counts = np.bincount(dst, minlength=node_off).astype(float)
        inv = np.zeros(node_off)
        nz = counts > 0
        inv[nz] = 1.0 / counts[nz]
        inv_counts[rel] = inv.reshape(-1, 1)
    return PackedGraphs(
        X=X,
        Z=Z,
        node_graph=np.concatenate(node_graph) if node_graph else np.zeros(0, dtype=np.int64),
        n_graphs=len(items),
        n_nodes=node_off,
        rel_edges=rel_edges,
        inv_counts=inv_counts,
        node_keys=node_keys,
        node_kinds=node_kinds,
        window_indices=window_indices,
    )


def project_packed(packed: PackedGraphs, store):
    """x̃ = W_x·x + b_x, z̃ = W_z·z + b_z over the packed matrices."""
    Xt = matmul(as_tensor(packed.X), transpose(store.tensor("proj.Wx"))) + store.tensor("proj.bx")
    Zt = matmul(as_tensor(packed.Z), transpose(store.tensor("proj.Wz"))) + store.tensor("proj.bz")
    return Xt, Zt


def message_passing_packed(packed: PackedGraphs, h: Tensor, z_tilde: Tensor,
                           weights: dict, activation=_relu) -> Tensor:
    """One update: h_i' = σ( Σ_τ (1/c_{i,τ}) Σ_{j→i under τ} W_τ [h_j ‖ z̃_ij] )."""
    total = None
    for rel in Relation:
        W = weights.get(rel)
        if W is None:
            raise ParamRegistryError(f"no weight configured for relation {rel.value!r}")
        src, dst, zrow = packed.rel_edges[rel]
        if src.size == 0:
            continue
        m_in = concat([gather_rows(h, src), gather_rows(z_tilde, zrow)], axis=1)
        summed = segment_sum(matmul(m_in, transpose(W)), dst, packed.n_nodes)
        scaled = mul(summed, as_tensor(packed.inv_counts[rel]))
        total = scaled if total is None else total + scaled
    if total is None:
        total = as_tensor(np.zeros(h.data.shape))
    return activation(total)


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
    for layer in range(layers):
        weights = {rel: store.tensor(f"enc.L{layer}.{rel.value}.W") for rel in Relation}
        h = message_passing_packed(packed, h, z_tilde, weights)
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
