"""Reference tape ops and losses that only tests use.

The model runs fused ops (one per message-passing round, one per LSTM
layer, the attention readout, the projection and each head, each loss) and
averages the raw edge features per segment before projecting them. The
tests check those against compositions of small tape ops; the ops below
exist for that composition and are gradient-checked in `test_nn_core.py`.
They are called by name: `Tensor` has no operator overloads.
"""
import numpy as np

from aptstage.graphs import _RELATION_ORDER
from aptstage.nn import as_tensor, gather_rows
from aptstage.nn.tensor import _accum, _make, _needs_grad


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape a broadcast input started from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(g):
        # a constant operand's adjoint would be discarded: skip its GEMM
        if _needs_grad(a):
            _accum(a, g @ b.data.T, fresh=True)
        if _needs_grad(b):
            _accum(b, a.data.T @ g, fresh=True)

    return _make(data, (a, b), backward)


def transpose(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.T)

    return _make(a.data.T, (a,), backward)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        _accum(a, g * out)

    return _make(out, (a,), backward)


def log(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def tsum(a, axis=None, keepdims: bool = False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(ge, a.data.shape).copy())

    return _make(data, (a,), backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), backward)


def concat(parts, axis: int = 0):
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _make(data, tuple(parts), backward)


def slice_cols(a, j0: int, j1: int):
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        _accum(a, full)

    return _make(a.data[:, j0:j1].copy(), (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / out)

    return _make(out, (a,), backward)


def segment_sum(a, seg, num_segments: int):
    """Sum rows of `a` into `num_segments` buckets. `seg` must be sorted
    ascending; empty segments yield zero rows."""
    a = as_tensor(a)
    seg = np.asarray(seg, dtype=np.intp)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=a.data.dtype)
    if seg.size:
        counts = np.bincount(seg, minlength=num_segments)
        nonempty = np.nonzero(counts)[0]
        starts = np.searchsorted(seg, nonempty, side="left")
        out[nonempty] = np.add.reduceat(a.data, starts, axis=0)

    def backward(g):
        _accum(a, g[seg])

    return _make(out, (a,), backward)


def attention_readout(packed, h, store):
    """The attention readout as a composition of tape ops; the reference for
    the fused `encoder.attention_readout`. Returns (g, alpha) tensors."""
    a = store.tensor("enc.attn.a")
    d_h = a.data.shape[0]
    graph, n_graphs = packed.node_graph, packed.n_graphs
    scores = reshape(matmul(h, reshape(a, (d_h, 1))), (packed.n_nodes,))
    shift = np.zeros(n_graphs)
    nonempty = np.nonzero(np.bincount(graph, minlength=n_graphs))[0]
    if nonempty.size:
        shift[nonempty] = np.maximum.reduceat(
            scores.data, np.searchsorted(graph, nonempty, side="left"))
    ex = exp(sub(scores, as_tensor(shift[graph])))
    alpha = div(ex, gather_rows(segment_sum(ex, graph, n_graphs), graph))
    pooled = segment_sum(mul(reshape(alpha, (packed.n_nodes, 1)), h), graph, n_graphs)
    return matmul(pooled, transpose(store.tensor("enc.out.Wg"))), alpha


def packed_edges(graphs) -> list:
    """(relation index, source, destination, segment) per edge of the graphs
    packed in order, node ids shifted by each graph's first node, built edge
    by edge. Segments number the distinct (relation, destination) pairs in
    ascending order."""
    edges, off = [], 0
    for g in graphs:
        edges += [(_RELATION_ORDER[e.relation], e.src + off, e.dst + off) for e in g.edges]
        off += len(g.nodes)
    segment = {key: s for s, key in enumerate(sorted({(r, d) for r, _, d in edges}))}
    return [(r, src, d, segment[(r, d)]) for r, src, d in edges]


def edge_means(graphs, z):
    """(S, d) mean of the per-edge rows z (M, d) over each segment of the
    packed graphs: gather the rows in segment order, sum, scale by 1/count."""
    seg = np.array([e[3] for e in packed_edges(graphs)], dtype=np.intp)
    n_segs = int(seg.max()) + 1 if seg.size else 0
    order = np.argsort(seg, kind="stable")
    inv = (1.0 / np.bincount(seg, minlength=n_segs)).reshape(-1, 1)
    return mul(segment_sum(gather_rows(z, order), seg[order], n_segs), as_tensor(inv))


def linear(x, W, b):
    """x·Wᵀ + b as matmul, transpose and a broadcast add; the reference for
    `nn.linear`."""
    return add(matmul(as_tensor(x), transpose(W)), b)


def project_then_average(graphs, X, Z, store):
    """The projection as each edge's z̃ = W_z·z + b_z followed by its segment
    mean; the reference for `encoder.project_packed`, which averages the raw z
    first. X, Z: the packed raw node and edge features. Returns (x̃, z̄)."""
    Xt = linear(X, store.tensor("proj.Wx"), store.tensor("proj.bx"))
    Zt = linear(Z, store.tensor("proj.Wz"), store.tensor("proj.bz"))
    return Xt, edge_means(graphs, Zt)


def _row_normalize(v):
    norms = sqrt(tsum(mul(v, v), axis=1, keepdims=True))
    return div(v, add(norms, 1e-12))


def loss_contrastive(anchors, positives, negatives, tau: float = 0.2):
    """Normalized InfoNCE with the positive in the denominator, over
    explicitly gathered negatives: (S·K, d) rows, the K negatives of anchor s
    in rows [s·K, (s+1)·K). The reference for `loss_contrastive_pooled`."""
    anchors, positives, negatives = (as_tensor(v) for v in (anchors, positives, negatives))
    S = anchors.data.shape[0]
    K = negatives.data.shape[0] // S
    na = _row_normalize(anchors)
    np_ = _row_normalize(positives)
    nn_ = _row_normalize(negatives)
    inv_tau = as_tensor(1.0 / tau)

    pos_sim = mul(tsum(mul(na, np_), axis=1), inv_tau)                  # (S,)
    rows = np.repeat(np.arange(S), K)
    neg_sim = mul(tsum(mul(gather_rows(na, rows), nn_), axis=1), inv_tau)  # (S·K,)
    den = add(exp(pos_sim), segment_sum(exp(neg_sim), rows, S))        # (S,)
    return mul(tsum(sub(log(den), pos_sim)), as_tensor(1.0 / S))


def block_counts(S: int, K: int) -> np.ndarray:
    """The (S, S·K) count matrix that makes a pool of S·K explicit negatives,
    K per anchor in anchor order, a `loss_contrastive_pooled` argument."""
    counts = np.zeros((S, S * K))
    counts[np.repeat(np.arange(S), K), np.arange(S * K)] = 1.0
    return counts


def classify(h, store):
    """The max-subtracted softmax head as linear, sub, exp, tsum and div; the
    reference for `estimator.classify`."""
    logits = linear(h, store.tensor("head.stage.W"), store.tensor("head.stage.b"))
    ex = exp(sub(logits, logits.data.max(axis=1, keepdims=True)))
    return div(ex, tsum(ex, axis=1, keepdims=True))


def loss_pred(predictions, targets):
    """(1/n) Σ ‖target − prediction‖² as sub, mul and tsum; the reference for
    `losses.loss_pred`."""
    diff = sub(targets, predictions)
    return mul(tsum(mul(diff, diff)), 1.0 / predictions.data.shape[0])


def loss_supervised(probabilities, labels, weights, eps: float = 1e-8):
    """−(1/T) Σ_t w_{y_t} ln(p_t^{(y_t)} + ε) as add, log, mul and tsum; the
    reference for `losses.loss_supervised`."""
    T, C = probabilities.data.shape
    onehot = np.zeros((T, C))
    onehot[np.arange(T), labels] = np.asarray(weights)[labels]
    return mul(tsum(mul(log(add(probabilities, eps)), onehot)), -1.0 / T)
