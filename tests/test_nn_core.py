"""Autodiff, parameter registry, optimizer, and checkpoint tests."""
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from aptstage.errors import CompatibilityError, ParamRegistryError
from aptstage.estimator import classify
from aptstage.nn import (
    AdamState,
    ParamStore,
    Tensor,
    adam_step,
    as_tensor,
    clip_gradients,
    gather_rows,
    init_params,
    linear,
    load_checkpoint,
    save_checkpoint,
    weighted_sum,
)
from aptstage.training import loss_pred, loss_supervised

from grad_check import finite_diff_check
import nn_reference as ref
from nn_reference import (
    add,
    concat,
    div,
    exp,
    log,
    matmul,
    mul,
    relu,
    segment_sum,
    sigmoid,
    slice_cols,
    sqrt,
    sub,
    tanh,
    transpose,
    tsum,
)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f(x)
        x[i] = orig - eps
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_op(build, x0, tol=1e-6):
    """Compare tape gradient of sum(build(x)) against central differences."""
    leaf = Tensor(x0.copy(), requires_grad=True)
    out = tsum(build(leaf))
    out.backward()
    num = numeric_grad(lambda arr: float(np.sum(build(Tensor(arr)).data)), x0.copy())
    assert np.allclose(leaf.grad, num, atol=tol), (leaf.grad, num)


@pytest.mark.parametrize("op", [
    lambda t: add(mul(t, t), t),
    lambda t: sub(t, mul(2.0, t)),
    lambda t: div(t, add(2.0, 0.0)),
    lambda t: relu(t),
    lambda t: tanh(t),
    lambda t: sigmoid(t),
    lambda t: exp(t),
    lambda t: transpose(t),
    lambda t: matmul(t, np.arange(6.0).reshape(3, 2)),
    lambda t: concat([t, mul(t, 3.0)], axis=1),
    lambda t: slice_cols(t, 1, 3),
    lambda t: gather_rows(t, [1, 1, 0]),
])
def test_elementwise_and_structural_grads(op, rng):
    check_op(op, rng.normal(size=(2, 3)))


def test_log_sqrt_grads(rng):
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    check_op(lambda t: log(t), x)
    check_op(lambda t: sqrt(t), x)


def test_broadcast_grad(rng):
    # (2,3) + (1,3) broadcasting must unbroadcast adjoints correctly
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    tsum(mul(add(a, b), add(a, b))).backward()
    assert b.grad.shape == (1, 3)
    assert np.allclose(b.grad, (2 * (a.data + b.data)).sum(axis=0, keepdims=True))


def test_tsum_axis_keepdims(rng):
    x = rng.normal(size=(3, 4))
    t = Tensor(x, requires_grad=True)
    out = tsum(mul(tsum(t, axis=1, keepdims=True), 2.0))
    out.backward()
    assert np.allclose(t.grad, 2.0 * np.ones_like(x))


def test_segment_sum_values_and_empty_segments():
    x = np.arange(8.0).reshape(4, 2)
    t = Tensor(x, requires_grad=True)
    # segments 0 and 3 empty; rows map to segments 1,1,2,4
    out = segment_sum(t, [1, 1, 2, 4], 5)
    expect = np.zeros((5, 2))
    expect[1] = x[0] + x[1]
    expect[2] = x[2]
    expect[4] = x[3]
    assert np.array_equal(out.data, expect)
    tsum(mul(out, out)).backward()
    assert np.allclose(t.grad, 2.0 * expect[[1, 1, 2, 4]])


@given(st.lists(st.integers(0, 4), min_size=0, max_size=12))
def test_segment_sum_matches_bincount(segs):
    segs = sorted(segs)
    x = np.arange(len(segs), dtype=float) + 1.0
    out = segment_sum(as_tensor(x.reshape(-1, 1)), segs, 5)
    expect = np.bincount(segs, weights=x, minlength=5)
    assert np.allclose(out.data.ravel(), expect)


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        mul(t, 2.0).backward()


def test_gather_rows_accumulates_duplicates():
    t = Tensor(np.ones((3, 2)), requires_grad=True)
    tsum(gather_rows(t, [0, 0, 2])).backward()
    assert np.array_equal(t.grad, np.array([[2.0, 2], [0, 0], [1, 1]]))


# ------------------------------------- fused ops against their references


def _terms(st):
    """(λ, scalar term) pairs over a store with "u" and "v", for `weighted_sum`."""
    return [(0.7, tsum(mul(st.tensor("u"), st.tensor("u")))), (-1.3, tsum(st.tensor("v")))]


_LABELS, _WEIGHTS = np.array([0, 6, 3, 3, 1]), np.linspace(0.5, 2.0, 7)

# name -> (parameter shapes, fused op, reference composition), each a
# function of the store; "p" holds probabilities, so it is drawn positive
FUSED = {
    "linear": ({"x": (5, 4), "W": (3, 4), "b": (3,)},
               lambda st: linear(st.tensor("x"), st.tensor("W"), st.tensor("b")),
               lambda st: ref.linear(st.tensor("x"), st.tensor("W"), st.tensor("b"))),
    "classify": ({"h": (5, 4), "head.stage.W": (7, 4), "head.stage.b": (7,)},
                 lambda st: classify(st.tensor("h"), st),
                 lambda st: ref.classify(st.tensor("h"), st)),
    "loss_pred": ({"pred": (4, 3), "target": (4, 3)},
                  lambda st: loss_pred(st.tensor("pred"), st.tensor("target")),
                  lambda st: ref.loss_pred(st.tensor("pred"), st.tensor("target"))),
    "loss_supervised": ({"p": (5, 7)},
                        lambda st: loss_supervised(st.tensor("p"), _LABELS, _WEIGHTS),
                        lambda st: ref.loss_supervised(st.tensor("p"), _LABELS, _WEIGHTS)),
    "weighted_sum": ({"u": (3,), "v": (2,)},
                     lambda st: weighted_sum(_terms(st)),
                     lambda st: add(*(mul(lam, t) for lam, t in _terms(st)))),
}


def _fused_case(name, seed=0):
    shapes, fused, reference = FUSED[name]
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for pname, shape in shapes.items():
        store.add(pname, rng.uniform(0.05, 1.0, size=shape) if pname == "p"
                  else rng.normal(size=shape))
    probe = rng.normal(size=fused(store).data.shape)
    return store, probe, fused, reference


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_reference_composition(name):
    store, probe, fused, reference = _fused_case(name)
    results = []
    for op in (fused, reference):
        store.zero_grad()
        out = op(store)
        tsum(mul(out, probe)).backward()
        results.append((out.data, {n: store.tensor(n).grad.copy() for n in store.names()}))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    for pname in store.names():
        assert np.max(np.abs(got_grads[pname] - want_grads[pname])) <= 1e-12, pname


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_gradients_match_finite_differences(name):
    store, probe, fused, _ = _fused_case(name, seed=1)
    assert finite_diff_check(lambda st: tsum(mul(fused(st), probe)), store) < 1e-6


def test_linear_with_a_csr_constant_matches_finite_differences():
    """A sparse x is a constant: it joins no tape, and the gradients of W
    (from xᵀ·g) and b agree with central differences."""
    rng = np.random.default_rng(2)
    dense = rng.normal(size=(6, 5)) * (rng.random((6, 5)) < 0.4)
    dense[2] = 0.0  # a row without a set column
    x = sp.csr_array(dense)
    store = ParamStore()
    W, b = store.add("W", rng.normal(size=(3, 5))), store.add("b", rng.normal(size=3))
    probe = rng.normal(size=(6, 3))
    out = linear(x, W, b)
    assert out._parents == (W, b)
    assert np.max(np.abs(out.data - (dense @ W.data.T + b.data))) < 1e-12
    assert finite_diff_check(lambda st: tsum(mul(linear(x, st.tensor("W"), st.tensor("b")), probe)),
                             store) < 1e-6
    assert W.grad.flags.c_contiguous


# ---------------------------------------------------------------- params


def test_init_params_deterministic_and_shaped():
    spec = {"w": (3, 4), "b": (3,)}
    s1 = init_params(spec, seed=5)
    s2 = init_params(spec, seed=5)
    s3 = init_params(spec, seed=6)
    assert np.array_equal(s1.tensor("w").data, s2.tensor("w").data)
    assert not np.array_equal(s1.tensor("w").data, s3.tensor("w").data)
    assert np.array_equal(s1.tensor("b").data, np.zeros(3))
    limit = np.sqrt(6.0 / (4 + 3))
    assert np.abs(s1.tensor("w").data).max() <= limit


def test_param_store_errors():
    store = ParamStore()
    store.add("w", np.ones(2))
    with pytest.raises(ParamRegistryError):
        store.add("w", np.ones(2))
    with pytest.raises(ParamRegistryError):
        store.tensor("missing")
    with pytest.raises(ParamRegistryError):
        store.set_values({"w": np.ones(3)})


def test_snapshot_roundtrip():
    store = init_params({"w": (2, 2)}, seed=0)
    snap = store.snapshot()
    store.tensor("w").data += 1.0
    store.set_values(snap)
    assert np.array_equal(store.tensor("w").data, snap["w"])


# ---------------------------------------------------------------- optim


def _store_with_grads(grads):
    store = ParamStore()
    for name, g in grads.items():
        t = store.add(name, np.zeros_like(g))
        t.grad = np.array(g)
    return store


def test_clip_scales_to_max_norm():
    # global norm 10 -> halved, returns 0.5
    store = _store_with_grads({"a": np.array([6.0, 8.0])})
    assert clip_gradients(store, max_norm=5.0) == pytest.approx(0.5)
    assert np.allclose(store.tensor("a").grad, [3.0, 4.0])
    # second call is a no-op: already at the boundary
    assert clip_gradients(store, max_norm=5.0) == 1.0


def test_clip_noop_below_threshold():
    store = _store_with_grads({"a": np.array([3.0])})
    assert clip_gradients(store, max_norm=5.0) == 1.0
    assert np.allclose(store.tensor("a").grad, [3.0])


def test_adam_first_step_is_signed_lr():
    store = _store_with_grads({"a": np.array([0.3, -0.7])})
    g = store.tensor("a").grad.copy()
    adam_step(store, AdamState(), lr=1e-3, weight_decay=0.0)
    assert np.allclose(store.tensor("a").data, -1e-3 * np.sign(g), atol=1e-6)


def test_adam_zero_grad_no_decay_keeps_params():
    store = _store_with_grads({"a": np.zeros(3)})
    store.tensor("a").data[:] = 2.0
    adam_step(store, AdamState(), lr=1e-3, weight_decay=0.0)
    assert np.allclose(store.tensor("a").data, 2.0)


def test_adam_decoupled_decay_scaling():
    # zero gradient, wd=1e-5, lr=1e-3 -> theta scaled by (1 - 1e-8)
    store = _store_with_grads({"a": np.zeros(2)})
    store.tensor("a").data[:] = 1.0
    adam_step(store, AdamState(), lr=1e-3, weight_decay=1e-5)
    assert np.allclose(store.tensor("a").data, 1.0 - 1e-8, rtol=0, atol=1e-15)


def test_adam_frozen_params_untouched():
    store = _store_with_grads({"a": np.array([1.0]), "b": np.array([1.0])})
    store.tensor("a").data[:] = 5.0
    store.tensor("b").data[:] = 5.0
    state = AdamState()
    with store.frozen(("a",)):
        adam_step(store, state, lr=0.1, weight_decay=0.1)
    assert store.tensor("a").data[0] == 5.0  # no decay, no update
    assert store.tensor("b").data[0] != 5.0
    assert "a" not in state.m


def test_frozen_block_makes_parameters_constants_and_restores_them():
    store = ParamStore()
    a, ab, b = (store.add(n, np.ones((1, 1))) for n in ("a", "ab", "b"))
    with store.frozen(("a",)):
        assert [t.requires_grad for t in (a, ab, b)] == [False, False, True]
        assert linear(np.ones((1, 1)), a, ab)._parents == ()  # constants: no tape node
        with pytest.raises(RuntimeError), store.frozen(("a", "b")):
            assert not b.requires_grad
            raise RuntimeError
        assert [t.requires_grad for t in (a, ab, b)] == [False, False, True]  # its own only
    assert [t.requires_grad for t in (a, ab, b)] == [True, True, True]


def test_finite_diff_check_passes_on_quadratic():
    store = init_params({"w": (3, 3)}, seed=1)
    store.tensor("w").data += 0.5

    def loss(s):
        w = s.tensor("w")
        return tsum(mul(mul(w, w), 0.5))

    assert finite_diff_check(loss, store) < 1e-6


# ------------------------------------------------------------ checkpoint


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    store = init_params({"w": (4, 3), "b": (4,)}, seed=3)
    store.tensor("b").data[:] = np.pi
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, store, {"tag": "x"})
    loaded = init_params({"w": (4, 3), "b": (4,)}, seed=4)
    meta = load_checkpoint(path, loaded)
    assert meta["tag"] == "x"
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded.tensor(name).data, store.tensor(name).data)


def test_checkpoint_version_mismatch_refused(tmp_path):
    import json
    store = init_params({"w": (2, 2)}, seed=0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, store, {})
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["format_version"] = 999
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CompatibilityError):
        load_checkpoint(path, init_params({"w": (2, 2)}, seed=0))


def _rewrite(edit):
    """Damage that rewrites the archive after `edit` changes its arrays."""
    def damage(path):
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        edit(arrays)
        np.savez(path, **arrays)
    return damage


@pytest.mark.parametrize("damage", [
    lambda path: path.write_bytes(path.read_bytes()[:-40]),
    lambda path: path.write_text("not a zip archive"),
    _rewrite(lambda arrays: arrays.pop("__meta__")),
    _rewrite(lambda arrays: arrays.pop("param/w")),
    _rewrite(lambda arrays: arrays.update(
        __meta__=np.frombuffer(b'{"format_version": 1,', dtype=np.uint8))),
    _rewrite(lambda arrays: arrays.update({"param/w": arrays["param/w"][:, :2]})),
], ids=["truncated", "not-a-zip", "no-meta", "no-param", "bad-meta-json", "param-of-another-shape"])
def test_unreadable_checkpoint_refused_naming_the_path(tmp_path, damage):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, init_params({"w": (4, 3), "b": (4,)}, seed=3), {})
    damage(path)
    with pytest.raises(CompatibilityError, match=re.escape(f"checkpoint '{path}' is unreadable")):
        load_checkpoint(path, init_params({"w": (4, 3), "b": (4,)}, seed=3))


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, init_params({"w": (2, 2)}, seed=0), {"tag": "old"})

    def savez_fails_midway(fh, **arrays):
        fh.write(b"PK")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_fails_midway)
    with pytest.raises(OSError):
        save_checkpoint(path, init_params({"w": (2, 2)}, seed=1), {"tag": "new"})
    assert load_checkpoint(path, init_params({"w": (2, 2)}, seed=0))["tag"] == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
