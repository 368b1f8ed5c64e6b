"""Recurrent stage estimator: cell equations, causality, dropout, heads."""
import numpy as np
import pytest

from aptstage.errors import DimensionError, ValidationError
from aptstage.estimator import (
    apply_forget_bias,
    classify,
    estimator_param_spec,
    predict_next,
    recurrent_forward,
)
from aptstage import nn
from aptstage.model import ModelConfig
from aptstage.nn import ParamStore, Tensor, as_tensor, init_params

from grad_check import finite_diff_check
import nn_reference as ref


def mkstore(cfg, seed=0, forget_bias=True):
    store = init_params(estimator_param_spec(cfg), seed=seed)
    if forget_bias:
        apply_forget_bias(store, cfg)
    return store


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def oracle_lstm(x, store, cfg):
    """Stacked i/f/g/o recurrence by explicit scalar-friendly loops (batch 1)."""
    T = x.shape[0]
    H = cfg.hidden
    layer_in = x
    for layer in range(cfg.lstm_layers):
        Wih = store.tensor(f"lstm.L{layer}.Wih").data
        Whh = store.tensor(f"lstm.L{layer}.Whh").data
        b = store.tensor(f"lstm.L{layer}.b").data
        h = np.zeros(H)
        c = np.zeros(H)
        outs = []
        for t in range(T):
            gates = Wih @ layer_in[t] + Whh @ h + b
            i = sigmoid(gates[0:H])
            f = sigmoid(gates[H:2 * H])
            g = np.tanh(gates[2 * H:3 * H])
            o = sigmoid(gates[3 * H:4 * H])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        layer_in = np.array(outs)
    return layer_in


def test_forward_matches_gate_equation_oracle(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = mkstore(cfg)
    # break the all-zero bias symmetry so the oracle exercises every term
    for layer in range(cfg.lstm_layers):
        store.tensor(f"lstm.L{layer}.b").data[:] = rng.normal(size=4 * cfg.hidden)
    x = rng.normal(size=(5, 4))
    got = recurrent_forward(x, store, cfg).data
    want = oracle_lstm(x, store, cfg)
    assert np.max(np.abs(got - want)) < 1e-12


def test_forget_bias_slice():
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = mkstore(cfg, forget_bias=False)
    assert np.all(store.tensor("lstm.L0.b").data == 0.0)
    apply_forget_bias(store, cfg)
    b = store.tensor("lstm.L1.b").data
    assert np.all(b[3:6] == 1.0)
    assert np.all(b[:3] == 0.0) and np.all(b[6:] == 0.0)


def test_zero_parameters_give_zero_states():
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = ParamStore()
    for name, shape in estimator_param_spec(cfg).items():
        store.add(name, np.zeros(shape))
    out = recurrent_forward(np.ones((6, 4)), store, cfg).data
    # i=f=o=0.5, g=tanh(0)=0 -> c stays 0 -> h stays 0
    assert np.array_equal(out, np.zeros((6, 3)))


def test_output_at_t_depends_only_on_prefix(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = mkstore(cfg)
    x = rng.normal(size=(6, 4))
    base = recurrent_forward(x, store, cfg).data
    x2 = x.copy()
    x2[4:] += 10.0  # future change
    out = recurrent_forward(x2, store, cfg).data
    assert np.allclose(base[:4], out[:4], atol=1e-12)
    assert not np.allclose(base[4:], out[4:])


def test_batch_equals_per_sequence_loop(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = mkstore(cfg)
    seqs = [rng.normal(size=(5, 4)) for _ in range(3)]
    packed = np.concatenate(seqs, axis=0)  # row b*T + t
    batched = recurrent_forward(packed, store, cfg, batch=3).data
    for b, seq in enumerate(seqs):
        single = recurrent_forward(seq, store, cfg).data
        assert np.max(np.abs(batched[b * 5:(b + 1) * 5] - single)) < 1e-12


def test_eval_mode_ignores_dropout_seed(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, dropout=0.5)
    store = mkstore(cfg)
    x = rng.normal(size=(5, 4))
    a = recurrent_forward(x, store, cfg, mode="eval", dropout_seed=1).data
    b = recurrent_forward(x, store, cfg, mode="eval", dropout_seed=2).data
    assert np.array_equal(a, b)


def test_train_dropout_deterministic_per_seed(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, dropout=0.5)
    store = mkstore(cfg)
    x = rng.normal(size=(5, 4))
    a = recurrent_forward(x, store, cfg, mode="train", dropout_seed=7).data
    b = recurrent_forward(x, store, cfg, mode="train", dropout_seed=7).data
    c = recurrent_forward(x, store, cfg, mode="train", dropout_seed=8).data
    eval_out = recurrent_forward(x, store, cfg, mode="eval").data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, eval_out)


def test_dropout_disabled_train_equals_eval(rng):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, dropout=0.0)
    store = mkstore(cfg)
    x = rng.normal(size=(5, 4))
    a = recurrent_forward(x, store, cfg, mode="train", dropout_seed=3).data
    b = recurrent_forward(x, store, cfg, mode="eval").data
    assert np.array_equal(a, b)


def test_input_width_mismatch():
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2)
    store = mkstore(cfg)
    with pytest.raises(DimensionError):
        recurrent_forward(np.zeros((5, 9)), store, cfg)
    with pytest.raises(DimensionError):
        recurrent_forward(np.zeros((5, 4)), store, cfg, batch=2)
    with pytest.raises(ValidationError):
        recurrent_forward(np.zeros((5, 4)), store, cfg, mode="predict")


# ------------------------------------------------- fused layer vs reference


def _cell_step(x_t, h_prev, c_prev, Wih, Whh, b, H):
    gates = ref.add(ref.add(ref.matmul(x_t, ref.transpose(Wih)),
                            ref.matmul(h_prev, ref.transpose(Whh))), b)
    i = ref.sigmoid(ref.slice_cols(gates, 0, H))
    f = ref.sigmoid(ref.slice_cols(gates, H, 2 * H))
    g = ref.tanh(ref.slice_cols(gates, 2 * H, 3 * H))
    o = ref.sigmoid(ref.slice_cols(gates, 3 * H, 4 * H))
    c = ref.add(ref.mul(f, c_prev), ref.mul(i, g))
    h = ref.mul(o, ref.tanh(c))
    return h, c


def reference_recurrent_forward(x, store, cfg, mode="eval", dropout_seed=0, batch=1):
    """The recurrence as a per-step composition of tape ops, with the same
    dropout draw as `recurrent_forward`."""
    T, H = x.data.shape[0] // batch, cfg.hidden
    masks = None
    if mode == "train" and cfg.dropout > 0 and cfg.lstm_layers > 1:
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - cfg.dropout
        masks = (rng.random((cfg.lstm_layers - 1, T, batch, H)) < keep).astype(float) / keep
    step_index = np.arange(batch) * T
    layer_in = x
    for layer in range(cfg.lstm_layers):
        Wih, Whh, b = (store.tensor(f"lstm.L{layer}.{n}") for n in ("Wih", "Whh", "b"))
        h = as_tensor(np.zeros((batch, H)))
        c = as_tensor(np.zeros((batch, H)))
        outs = []
        for t in range(T):
            h, c = _cell_step(nn.gather_rows(layer_in, step_index + t), h, c, Wih, Whh, b, H)
            outs.append(ref.mul(h, masks[layer, t])
                        if masks is not None and layer < cfg.lstm_layers - 1 else h)
        stacked = ref.concat(outs, axis=0)  # step-major: row t*batch + b
        perm = (np.arange(T)[None, :] * batch + np.arange(batch)[:, None]).ravel()
        layer_in = nn.gather_rows(stacked, perm)
    return layer_in


def lstm_store_with_input(cfg, x, seed=0):
    """The six lstm.* parameters plus the input x as a parameter, with a
    random bias so every gate term is exercised."""
    spec = {k: v for k, v in estimator_param_spec(cfg).items() if k.startswith("lstm.")}
    store = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for layer in range(cfg.lstm_layers):
        store.tensor(f"lstm.L{layer}.b").data[:] = rng.normal(size=4 * cfg.hidden)
    store.add("x", x)
    return store


@pytest.mark.parametrize("batch,T", [(1, 1), (1, 6), (3, 1), (3, 6)])
def test_fused_layer_matches_per_step_reference(rng, batch, T):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, dropout=0.3)
    store = lstm_store_with_input(cfg, rng.normal(size=(batch * T, 4)))
    probe = rng.normal(size=(batch * T, cfg.hidden))
    results = []
    for forward in (recurrent_forward, reference_recurrent_forward):
        store.zero_grad()
        h = forward(store.tensor("x"), store, cfg, mode="train", dropout_seed=5, batch=batch)
        ref.tsum(ref.mul(h, probe)).backward()
        results.append((h.data, {n: store.tensor(n).grad.copy() for n in store.names()}))
    (got, got_grads), (want, want_grads) = results
    assert np.max(np.abs(got - want)) <= 1e-12
    for name in store.names():
        assert np.max(np.abs(got_grads[name] - want_grads[name])) <= 1e-12, name


def test_train_mode_gradients_match_finite_differences(rng):
    cfg = ModelConfig(d_g=3, hidden=4, lstm_layers=2, dropout=0.3)
    batch, T = 3, 4
    store = lstm_store_with_input(cfg, rng.normal(size=(batch * T, 3)), seed=2)
    probe = rng.normal(size=(batch * T, cfg.hidden))

    def loss(st):
        h = recurrent_forward(st.tensor("x"), st, cfg, mode="train", dropout_seed=9,
                              batch=batch)
        return ref.tsum(ref.mul(h, probe))

    n_coords = sum(store.tensor(n).data.size for n in store.names())
    assert finite_diff_check(loss, store, max_coords=n_coords) < 1e-5


def test_recurrent_tape_does_not_grow_with_steps(rng, tape_nodes):
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, dropout=0.3)
    store = mkstore(cfg)
    counts = [tape_nodes(recurrent_forward(Tensor(rng.normal(size=(2 * T, 4)), requires_grad=True),
                                           store, cfg, mode="train", batch=2))
              for T in (5, 30)]
    # per layer: the op and its three parameters; plus the input
    assert counts == [9, 9]


# ---------------------------------------------------------------- heads


def head_store(C=7, H=3, d_g=4):
    store = ParamStore()
    store.add("head.stage.W", np.zeros((C, H)))
    store.add("head.stage.b", np.zeros(C))
    store.add("head.next.W", np.zeros((d_g, H)))
    store.add("head.next.b", np.zeros(d_g))
    return store


def test_classify_uniform_for_zero_logits():
    p = classify(np.zeros((2, 3)), head_store()).data
    assert np.allclose(p, 1.0 / 7.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_classify_known_logits():
    store = head_store()
    store.tensor("head.stage.b").data[:] = [10.0, 0, 0, 0, 0, 0, 0]
    p = classify(np.zeros((1, 3)), store).data[0]
    expect = np.exp(10.0) / (np.exp(10.0) + 6.0)
    assert abs(p[0] - expect) < 1e-12
    assert abs(p.sum() - 1.0) < 1e-12


def test_classify_shift_invariance(rng):
    store = head_store()
    W = rng.normal(size=(7, 3))
    store.tensor("head.stage.W").data[:] = W
    h = rng.normal(size=(4, 3))
    p1 = classify(h, store).data
    store.tensor("head.stage.b").data[:] = 123.456  # constant shift of logits
    p2 = classify(h, store).data
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_classify_extreme_logits_finite():
    store = head_store()
    store.tensor("head.stage.W").data[:, 0] = 1.0
    h = np.array([[1e4, 0.0, 0.0]])
    p = classify(h, store).data
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12


def test_predict_next_affine_oracle(rng):
    store = head_store()
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    store.tensor("head.next.W").data[:] = W
    store.tensor("head.next.b").data[:] = b
    h = rng.normal(size=(5, 3))
    got = predict_next(h, store).data
    for t in range(5):
        for k in range(4):
            want = b[k] + sum(W[k, j] * h[t, j] for j in range(3))
            assert abs(got[t, k] - want) < 1e-12


def test_param_spec_shapes():
    cfg = ModelConfig(d_g=4, hidden=3, lstm_layers=2, num_classes=7)
    spec = estimator_param_spec(cfg)
    assert spec["lstm.L0.Wih"] == (12, 4)
    assert spec["lstm.L1.Wih"] == (12, 3)
    assert spec["lstm.L0.Whh"] == (12, 3)
    assert spec["head.stage.W"] == (7, 3)
    assert spec["head.next.W"] == (4, 3)
