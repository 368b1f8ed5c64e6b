"""Seeded synthetic end-to-end benchmark: `run_benchmark(seed)`.

Generates a corpus of labeled campaign traces covering all seven stage
classes, fits features on the training split, pretrains, fine-tunes, and
reports macro F1 and temporal flip rate alongside a no-pretraining ablation
trained with the same supervised budget. The protocol is fixed by the module
constants below; only the seed varies. Both figures are measured on the
validation traces (the last `FINETUNE.val_fraction` of the corpus, 40 of
200), the same traces that early stopping selects each arm's checkpoint on;
no trace is held out from selection. Every trace is generated at
`ScenarioConfig`'s default benign and attack event rates.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .evaluation import trace_scores
from .features import fit_vocab_and_stats
from .graphs import build_graph_sequence
from .model import ModelConfig, build_param_store
from .telemetry import (
    NUM_STAGES,
    WINDOW_SECONDS,
    ScenarioConfig,
    StageInterval,
    default_campaign_schedule,
    generate_scenario,
)
from .training import (
    FinetuneConfig,
    PretrainConfig,
    featurize_trace,
    finetune,
    predict_traces,
    pretrain,
    split_train_val,
)


# The protocol. 200 traces of 20 windows. Label-scarce: pretraining sees
# every training trace, but the supervised phases use the labels of only
# the first 18. The model is smaller than the config defaults: the benchmark
# checks learning behavior, not capacity, and must fit a CPU time budget.
N_TRACES = 200
WINDOWS_PER_TRACE = 20
LABELED_TRACES = 18
MODEL = ModelConfig(d_h=32, d_g=32, hidden=64)
PRETRAIN = PretrainConfig()
FINETUNE = FinetuneConfig(phase1_epochs=6, phase1_lr=1e-3, phase2_epochs=12, phase2_lr=5e-4,
                          patience=8, batch=8)


def _trace_schedule(arch: int, duration: float, rng) -> list:
    """Five archetypes: benign-only, full campaign, early stages, late stages,
    random pair. Stage dwells are long and contiguous so that ground-truth
    stage tracks are temporally smooth and spurious prediction flips are
    measurable against them."""
    if arch == 0:
        return []
    if arch == 1:
        return default_campaign_schedule(duration)
    if arch == 2:
        stages = [1, 2, 3]
    elif arch == 3:
        stages = [4, 5, 6]
    else:
        stages = sorted(int(k) for k in rng.choice(np.arange(1, NUM_STAGES), size=2,
                                                   replace=False))
    span = duration / len(stages)
    return [StageInterval(k, i * span + 0.04 * span, i * span + 0.96 * span)
            for i, k in enumerate(stages)]


def build_corpus(seed: int):
    """List of (events, alerts, labels) per trace, deterministic per seed."""
    duration = WINDOWS_PER_TRACE * WINDOW_SECONDS
    out = []
    for i in range(N_TRACES):
        trace_seed = seed * 1_000_003 + i
        rng = np.random.default_rng((seed, 29, i))
        scen = ScenarioConfig(
            num_hosts=3,
            duration=duration,
            stage_schedule=_trace_schedule(i % 5, duration, rng),
            seed=trace_seed,
        )
        out.append(generate_scenario(scen))
    return out


def run_benchmark(seed: int = 0) -> dict:
    """Full protocol: SSL pretraining + two-phase fine-tuning vs. a
    no-pretraining ablation with the identical supervised budget. Each arm's
    macro F1 and flip rate are measured on the validation traces that also
    select its checkpoint."""
    t_start = time.monotonic()

    corpus = build_corpus(seed)
    label_set = sorted({k for _, _, labels in corpus for k in labels})

    graphs = [build_graph_sequence(events, alerts) for events, alerts, _ in corpus]
    train_graphs, _ = split_train_val(graphs, FINETUNE.val_fraction)
    fcfg = MODEL.featurizer
    vocab, stats = fit_vocab_and_stats([g for gs in train_graphs for g in gs], fcfg)
    traces = [featurize_trace(f"trace{i:03d}", gs, labels, vocab, stats, fcfg)
              for i, (gs, (_, _, labels)) in enumerate(zip(graphs, corpus))]
    train_traces, val_traces = split_train_val(traces, FINETUNE.val_fraction)

    mcfg = replace(MODEL, seed=seed)
    fin_cfg = replace(FINETUNE, seed=seed)
    labeled = train_traces[:LABELED_TRACES]

    # main arm: pretrain on every training trace, finetune on the labeled subset
    store = build_param_store(mcfg)
    pre = pretrain(train_traces, store, mcfg, replace(PRETRAIN, seed=seed))
    fin = finetune(labeled, store, mcfg, fin_cfg, val_traces=val_traces)
    main = trace_scores(*predict_traces(val_traces, store, mcfg))

    # ablation arm: identical init and supervised budget, no pretraining
    store_abl = build_param_store(mcfg)
    fin_abl = finetune(labeled, store_abl, mcfg, fin_cfg, val_traces=val_traces)
    ablation = trace_scores(*predict_traces(val_traces, store_abl, mcfg))

    ssl_first = pre.loss_log[0]["loss_ssl"]
    ssl_last = pre.loss_log[-1]["loss_ssl"]
    return {
        "seed": seed,
        "n_traces": len(corpus),
        "n_train_traces": len(train_traces),
        "n_val_traces": len(val_traces),
        "label_classes": label_set,
        "macro_f1": main["macro_f1"],
        "tfr": main["tfr"],
        "macro_f1_ablation": ablation["macro_f1"],
        "tfr_ablation": ablation["tfr"],
        "ssl_first_epoch": ssl_first,
        "ssl_last_epoch": ssl_last,
        "ssl_ratio": ssl_last / ssl_first if ssl_first else float("nan"),
        "per_class_f1": [float(v) for v in main["f1"]],
        "pretrain_log": pre.loss_log,
        "finetune_log": fin.metric_log,
        "finetune_log_ablation": fin_abl.metric_log,
        "runtime_s": time.monotonic() - t_start,
    }
