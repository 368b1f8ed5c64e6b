"""What the benchmark in perfbench/ relies on in the program.

perfbench times layers and training steps by replacing program functions
under the names their callers look them up by, so a rename or a call that
bypasses those names silently breaks its metrics. These tests import
perfbench read-only (no bytecode is written there) and change nothing in it.
"""
import importlib
import sys
from pathlib import Path

import pytest

from aptstage.graphs import Edge, Node, NodeKind, ProvenanceGraph, Relation
from aptstage.model import ModelConfig, build_param_store
from aptstage.training import PretrainConfig, Trace, WindowRecord, loops, pretrain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MCFG = ModelConfig(d_h=8, d_g=8, hidden=8)


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return {name: importlib.import_module(name)
                for name in ("tracing", "workloads", "oracles")}
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def make_trace(tid, n_windows, rng):
    fz = MCFG.featurizer
    windows = []
    for w in range(n_windows):
        nodes = (Node(NodeKind.PROCESS, f"{tid}p", {"first_ts": 0.0}),
                 Node(NodeKind.FILE, f"{tid}f", {"first_ts": 0.0}))
        edges = (Edge(Relation.READ, 0, 1, 1.0), Edge(Relation.SELF_LOOP, 0, 0, 0.0),
                 Edge(Relation.SELF_LOOP, 1, 1, 0.0))
        windows.append(WindowRecord(X=rng.normal(size=(2, fz.node_dim)),
                                    Z=rng.normal(size=(3, fz.edge_dim)),
                                    graph=ProvenanceGraph(w, w * 300.0, nodes, edges)))
    return Trace(tid, windows)


def test_patch_targets_resolve(perfbench):
    for module, attr, _, _ in perfbench["tracing"].LAYER_PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    originals = (loops.adam_step, loops.recurrent_forward)
    with perfbench["workloads"].StepClock():
        assert loops.adam_step is not originals[0]
        assert loops.recurrent_forward is not originals[1]
    assert (loops.adam_step, loops.recurrent_forward) == originals


def test_step_clock_counts_the_oracle_windows_per_epoch(perfbench, rng):
    # lengths below, at and above seq_len, plus one too short to train on
    traces = [make_trace(f"t{i}", n, rng) for i, n in enumerate((1, 3, 5, 7))]
    cfg = PretrainConfig(epochs=1, seq_len=5, batch=2, negatives=4)
    with perfbench["workloads"].StepClock() as clock:
        pretrain(traces, build_param_store(MCFG), MCFG, cfg)
    want = perfbench["oracles"].windows_per_epoch([len(t.windows) for t in traces],
                                                  cfg.seq_len, min_len=2)
    assert want == 3 + 5 + 3 * 5
    assert clock.rows == want
    assert len(clock.stamps) == 3  # optimizer steps: [len 3], [len 5 x2], [len 5 x2]
