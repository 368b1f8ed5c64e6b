"""Seeded synthetic end-to-end benchmark.

Generates a corpus of labeled campaign traces covering all seven stage
classes, fits features on the training split, pretrains, fine-tunes, and
reports held-out macro F1 and temporal flip rate alongside a no-pretraining
ablation trained with the same supervised budget.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .features import fit_vocab_and_stats
from .graphs import build_graph_sequence
from .model import ModelConfig, build_param_store
from .telemetry import (
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
)
from .evaluation import classification_metrics, flip_rate_over_traces


@dataclass
class BenchmarkConfig:
    n_traces: int = 200
    windows_per_trace: int = 20
    val_fraction: float = 0.2
    # label-scarce protocol: pretraining sees every training trace, but the
    # supervised phases may only use labels for this many of them
    labeled_traces: int = 18
    benign_event_rate: float = 0.05
    attack_event_rate: float = 0.2
    seed: int = 0
    # smaller dims than the config defaults: the benchmark checks learning
    # behavior, not capacity, and must fit a CPU time budget
    model: ModelConfig = field(default_factory=lambda: ModelConfig(
        d_h=32, d_g=32, hidden=64))
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=lambda: FinetuneConfig(
        phase1_epochs=6, phase1_lr=1e-3, phase2_epochs=12, phase2_lr=5e-4,
        patience=8, batch=8))


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
        stages = sorted(int(k) for k in rng.choice(np.arange(1, 7), size=2, replace=False))
    span = duration / len(stages)
    return [StageInterval(k, i * span + 0.04 * span, i * span + 0.96 * span)
            for i, k in enumerate(stages)]


def build_corpus(cfg: BenchmarkConfig):
    """List of (events, alerts, labels) per trace, deterministic per seed."""
    duration = cfg.windows_per_trace * WINDOW_SECONDS
    out = []
    for i in range(cfg.n_traces):
        trace_seed = cfg.seed * 1_000_003 + i
        rng = np.random.default_rng((cfg.seed, 29, i))
        scen = ScenarioConfig(
            num_hosts=3,
            duration=duration,
            stage_schedule=_trace_schedule(i % 5, duration, rng),
            benign_event_rate=cfg.benign_event_rate,
            attack_event_rate=cfg.attack_event_rate,
            seed=trace_seed,
        )
        out.append(generate_scenario(scen))
    return out


def _evaluate(traces, store, mcfg):
    y_true, y_pred, _, sequences = predict_traces(traces, store, mcfg)
    metrics = classification_metrics(y_true, y_pred, mcfg.num_classes)
    return metrics["macro_f1"], flip_rate_over_traces(sequences), metrics


def run_benchmark(cfg: BenchmarkConfig | None = None) -> dict:
    """Full protocol: SSL pretraining + two-phase fine-tuning vs. a
    no-pretraining ablation with the identical supervised budget."""
    cfg = cfg or BenchmarkConfig()
    t_start = time.monotonic()

    corpus = build_corpus(cfg)
    label_set = sorted({k for _, _, labels in corpus for k in labels})

    n_val = max(1, int(round(cfg.val_fraction * len(corpus))))
    graphs = [build_graph_sequence(events, alerts) for events, alerts, _ in corpus]
    fcfg = cfg.model.featurizer
    vocab, stats = fit_vocab_and_stats([g for gs in graphs[:-n_val] for g in gs], fcfg)
    traces = [featurize_trace(f"trace{i:03d}", gs, labels, vocab, stats, fcfg)
              for i, (gs, (_, _, labels)) in enumerate(zip(graphs, corpus))]
    train_traces, val_traces = traces[:-n_val], traces[-n_val:]

    mcfg = replace(cfg.model, seed=cfg.seed)
    labeled = train_traces[: cfg.labeled_traces] if cfg.labeled_traces else train_traces

    # main arm: pretrain on every training trace, finetune on the labeled subset
    store = build_param_store(mcfg)
    pre = pretrain(train_traces, store, mcfg, replace(cfg.pretrain, seed=cfg.seed))
    fin = finetune(labeled, store, mcfg, replace(cfg.finetune, seed=cfg.seed),
                   val_traces=val_traces)
    f1_main, tfr_main, detail = _evaluate(val_traces, store, mcfg)

    # ablation arm: identical init and supervised budget, no pretraining
    store_abl = build_param_store(mcfg)
    fin_abl = finetune(labeled, store_abl, mcfg, replace(cfg.finetune, seed=cfg.seed),
                       val_traces=val_traces)
    f1_abl, tfr_abl, _ = _evaluate(val_traces, store_abl, mcfg)

    ssl_first = pre.loss_log[0]["loss_ssl"]
    ssl_last = pre.loss_log[-1]["loss_ssl"]
    return {
        "seed": cfg.seed,
        "n_traces": len(corpus),
        "n_train_traces": len(train_traces),
        "n_val_traces": len(val_traces),
        "label_classes": label_set,
        "macro_f1": f1_main,
        "tfr": tfr_main,
        "macro_f1_ablation": f1_abl,
        "tfr_ablation": tfr_abl,
        "ssl_first_epoch": ssl_first,
        "ssl_last_epoch": ssl_last,
        "ssl_ratio": ssl_last / ssl_first if ssl_first else float("nan"),
        "per_class_f1": [float(v) for v in detail["f1"]],
        "pretrain_log": pre.loss_log,
        "finetune_log": fin.metric_log,
        "finetune_log_ablation": fin_abl.metric_log,
        "runtime_s": time.monotonic() - t_start,
    }
