"""Command-line pipeline driver.

Stage-wise subcommands with file artifacts at every boundary:

    generate → build-graphs → fit-features → pretrain → finetune
                                        ↘ evaluate / infer / export-attention

Every artifact records the hash of the config that produced it (embedded for
JSON artifacts, `<file>.meta.json` sidecars for CSV/JSONL); stages refuse
mismatched upstream artifacts. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 dependency/compatibility error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import PipelineConfig, apply_overrides, from_dict, load_config
from .errors import (
    CompatibilityError,
    DependencyError,
    FitError,
    GraphConsistencyError,
    InputError,
    MetricError,
    TelemetryParseError,
    TrainingError,
    ValidationError,
)
from .evaluation import (
    aupr,
    classification_metrics,
    evaluate_folds,
    flip_rate_over_traces,
    fold_blocks,
    write_metrics_csv,
    write_metrics_json,
)
from .features import feature_spec_hash, fit_vocab_and_stats, load_feature_spec, save_feature_spec
from .graphs import build_graph, dump_graphs_jsonl, load_graphs_jsonl, window_events
from .mapping import decide, export_alerts, transitions
from .model import ModelConfig, build_param_store, encode_windows
from .nn import load_checkpoint, no_grad, save_checkpoint
from .encoder import write_attention_csv
from .telemetry import dump_jsonl, generate_scenario, parse_alerts, parse_host_events
from .training import (
    Trace,
    featurize_trace,
    finetune,
    predict_trace,
    predict_traces,
    pretrain,
    split_train_val,
)

ARTIFACTS = {
    "events": "events.jsonl",
    "alerts": "alerts.jsonl",
    "labels": "labels.csv",
    "graphs": "graphs.jsonl",
    "feature_spec": "feature_spec.json",
    "pretrain_ckpt": "pretrain_ckpt.npz",
    "pretrain_log": "pretrain_log.csv",
    "finetune_ckpt": "finetune_ckpt.npz",
    "finetune_log": "finetune_log.csv",
    "metrics_csv": "metrics.csv",
    "metrics_json": "metrics.json",
    "stage_alerts": "stage_alerts.jsonl",
    "attention": "attention.csv",
}

_DATA_ERRORS = (TelemetryParseError, InputError, MetricError, FitError,
                GraphConsistencyError, TrainingError, OSError)
_DEP_ERRORS = (DependencyError, CompatibilityError)


# ---------- artifact provenance ----------

def _sidecar_path(path: str) -> str:
    return path + ".meta.json"


def _write_sidecar(path: str, cfg: PipelineConfig, stage: str, extra: dict | None = None) -> None:
    meta = {"config_hash": cfg.config_hash(), "stage": stage}
    if extra:
        meta.update(extra)
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(path: str, cfg: PipelineConfig, producer_stage: str,
             embedded: bool = False) -> None:
    """Fail with a dependency error if the artifact is absent, or a
    compatibility error if it was produced under a different config."""
    if not os.path.exists(path):
        raise DependencyError(
            f"missing artifact {path!r}; run the {producer_stage!r} stage first")
    recorded = None
    if embedded:
        with open(path) as fh:
            doc = json.load(fh)
        recorded = (doc.get("meta") or {}).get("config_hash")
    elif os.path.exists(_sidecar_path(path)):
        with open(_sidecar_path(path)) as fh:
            recorded = json.load(fh).get("config_hash")
    if recorded is not None and recorded != cfg.config_hash():
        raise CompatibilityError(
            f"artifact {path!r} was produced by config hash {recorded[:12]}…, "
            f"current config hashes to {cfg.config_hash()[:12]}…")


def _write_csv(path: str, rows, columns) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") for c in columns])


# ---------- shared loading ----------

def _load_graphs(cfg: PipelineConfig):
    path = cfg.path(ARTIFACTS["graphs"])
    _require(path, cfg, "build-graphs")
    with open(path) as fh:
        return load_graphs_jsonl(fh)


def _load_labels(cfg: PipelineConfig, n_windows: int):
    path = cfg.path(ARTIFACTS["labels"])
    _require(path, cfg, "generate")
    labels = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            labels[int(row["window_index"])] = int(row["stage_id"])
    if sorted(labels) != list(range(n_windows)):
        raise InputError(
            f"labels cover windows {min(labels, default=0)}..{max(labels, default=0)} "
            f"but {n_windows} graphs exist")
    return [labels[i] for i in range(n_windows)]


def _load_trace(cfg: PipelineConfig, labeled: bool):
    """The graphs artifact featurized with the fitted feature spec as one
    trace, with window labels when `labeled`; returns (trace, spec_hash)."""
    graphs = _load_graphs(cfg)
    path = cfg.path(ARTIFACTS["feature_spec"])
    _require(path, cfg, "fit-features", embedded=True)
    vocab, stats, fcfg, spec_hash = load_feature_spec(path)
    if fcfg != cfg.model.featurizer:
        raise CompatibilityError(
            "feature spec dimensions differ from the configured featurizer")
    if feature_spec_hash(vocab, stats, fcfg) != spec_hash:
        raise CompatibilityError(
            f"feature spec {path!r} does not match its spec_hash; refit with fit-features")
    labels = _load_labels(cfg, len(graphs)) if labeled else None
    return featurize_trace("trace0", graphs, labels, vocab, stats, fcfg), spec_hash


def _load_model_checkpoint(path: str, cfg: PipelineConfig, spec_hash: str,
                           producer_stage: str):
    _require(path, cfg, producer_stage)
    store, meta = load_checkpoint(path)
    if meta.get("config_hash") != cfg.config_hash():
        raise CompatibilityError(
            f"checkpoint {path!r} was trained under a different config")
    if meta.get("feature_spec_hash") != spec_hash:
        raise CompatibilityError(
            f"checkpoint {path!r} was trained with a different feature spec")
    return store, from_dict(ModelConfig, meta["model"], "model")


def _checkpoint_meta(cfg: PipelineConfig, spec_hash: str, stage: str) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "feature_spec_hash": spec_hash,
        "model": asdict(cfg.model),
        "stage": stage,
    }


# ---------- commands ----------

def cmd_generate(cfg: PipelineConfig) -> None:
    os.makedirs(cfg.workdir, exist_ok=True)
    events, alerts, labels = generate_scenario(cfg.scenario.build(cfg.seed))
    ev_path = cfg.path(ARTIFACTS["events"])
    al_path = cfg.path(ARTIFACTS["alerts"])
    lb_path = cfg.path(ARTIFACTS["labels"])
    with open(ev_path, "w") as fh:
        dump_jsonl(events, fh)
    with open(al_path, "w") as fh:
        dump_jsonl(alerts, fh)
    _write_csv(lb_path, [{"window_index": i, "stage_id": k} for i, k in enumerate(labels)],
               ["window_index", "stage_id"])
    for p, extra in ((ev_path, {"records": len(events)}),
                     (al_path, {"records": len(alerts)}),
                     (lb_path, {"records": len(labels)})):
        _write_sidecar(p, cfg, "generate", extra)
    print(f"generate: {len(events)} events, {len(alerts)} alerts, "
          f"{len(labels)} window labels -> {cfg.workdir}")


def cmd_build_graphs(cfg: PipelineConfig) -> None:
    os.makedirs(cfg.workdir, exist_ok=True)
    ev_path = cfg.path(ARTIFACTS["events"])
    al_path = cfg.path(ARTIFACTS["alerts"])
    _require(ev_path, cfg, "generate")
    _require(al_path, cfg, "generate")
    with open(ev_path) as fh:
        events = parse_host_events(fh)
    with open(al_path) as fh:
        alerts = parse_alerts(fh)
    graphs = [build_graph(w) for w in window_events(events, alerts)]
    out = cfg.path(ARTIFACTS["graphs"])
    with open(out, "w") as fh:
        dump_graphs_jsonl(graphs, fh)
    _write_sidecar(out, cfg, "build-graphs", {"windows": len(graphs)})
    print(f"build-graphs: {len(graphs)} windows -> {out}")


def cmd_fit_features(cfg: PipelineConfig) -> None:
    graphs = _load_graphs(cfg)
    vocab, stats = fit_vocab_and_stats(graphs, cfg.model.featurizer)
    out = cfg.path(ARTIFACTS["feature_spec"])
    spec_hash = save_feature_spec(out, vocab, stats, cfg.model.featurizer,
                                  meta={"config_hash": cfg.config_hash(),
                                        "stage": "fit-features"})
    print(f"fit-features: vocab of {len(vocab.token_index)} tokens, "
          f"spec {spec_hash[:12]}… -> {out}")


def cmd_pretrain(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    store = build_param_store(cfg.model)
    result = pretrain([trace], store, cfg.model, cfg.pretrain)
    ckpt = cfg.path(ARTIFACTS["pretrain_ckpt"])
    save_checkpoint(ckpt, store, _checkpoint_meta(cfg, spec_hash, "pretrain"))
    log_path = cfg.path(ARTIFACTS["pretrain_log"])
    _write_csv(log_path, result.loss_log, ["epoch", "loss_pred", "loss_ctr", "loss_ssl"])
    _write_sidecar(ckpt, cfg, "pretrain")
    _write_sidecar(log_path, cfg, "pretrain")
    first, last = result.loss_log[0]["loss_ssl"], result.loss_log[-1]["loss_ssl"]
    print(f"pretrain: L_ssl {first:.4f} -> {last:.4f} over "
          f"{len(result.loss_log)} epochs; checkpoint {ckpt}")


def cmd_finetune(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=True)
    # validate on the temporally last windows, never on the training windows
    train, val = split_train_val([trace], cfg.finetune.val_fraction)
    store, mcfg = _load_model_checkpoint(
        cfg.path(ARTIFACTS["pretrain_ckpt"]), cfg, spec_hash, "pretrain")
    result = finetune(train, store, mcfg, cfg.finetune, val_traces=val)
    ckpt = cfg.path(ARTIFACTS["finetune_ckpt"])
    save_checkpoint(ckpt, store, _checkpoint_meta(cfg, spec_hash, "finetune"))
    log_path = cfg.path(ARTIFACTS["finetune_log"])
    _write_csv(log_path, result.metric_log,
               ["phase", "epoch", "seq_len", "loss_sup", "val_f1"])
    _write_sidecar(ckpt, cfg, "finetune")
    _write_sidecar(log_path, cfg, "finetune")
    best = max(r["val_f1"] for r in result.metric_log)
    print(f"finetune: best val macro-F1 {best:.4f}; checkpoint {ckpt}")


def _fold_traces(trace: Trace, k: int):
    """Split one window timeline into k contiguous block-traces."""
    blocks = fold_blocks(len(trace.windows), k)
    return [Trace(trace_id=f"block{i}", windows=[trace.windows[j] for j in idx])
            for i, idx in enumerate(blocks)]


def cmd_evaluate(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=True)
    ckpt_path = cfg.path(ARTIFACTS["pretrain_ckpt"])
    blocks = _fold_traces(trace, cfg.folds)

    def fit_eval(train_blocks, test_blocks):
        store, mcfg = _load_model_checkpoint(ckpt_path, cfg, spec_hash, "pretrain")
        finetune(train_blocks, store, mcfg, cfg.finetune)
        y_true, y_pred, probs, sequences = predict_traces(test_blocks, store, mcfg)
        m = classification_metrics(y_true, y_pred, mcfg.num_classes)
        return {
            "macro_f1": m["macro_f1"],
            "macro_precision": m["macro_precision"],
            "macro_recall": m["macro_recall"],
            "accuracy": m["accuracy"],
            "aupr": aupr(y_true, probs, mcfg.num_classes),
            "tfr": flip_rate_over_traces(sequences),
        }

    report = evaluate_folds(blocks, fit_eval, k=cfg.folds)
    csv_path = cfg.path(ARTIFACTS["metrics_csv"])
    json_path = cfg.path(ARTIFACTS["metrics_json"])
    write_metrics_csv(csv_path, report)
    write_metrics_json(json_path, report,
                       extra={"meta": {"config_hash": cfg.config_hash(),
                                       "stage": "evaluate", "folds": cfg.folds}})
    _write_sidecar(csv_path, cfg, "evaluate")
    summary = ", ".join(f"{k} {report.mean[k]:.4f}±{report.std[k]:.4f}"
                        for k in ("macro_f1", "accuracy", "tfr") if k in report.mean)
    print(f"evaluate: {summary} over {cfg.folds} folds -> {json_path}")


def cmd_infer(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    store, mcfg = _load_model_checkpoint(
        cfg.path(ARTIFACTS["finetune_ckpt"]), cfg, spec_hash, "finetune")
    probs = predict_trace(trace, store, mcfg)
    decisions = decide(
        probs,
        window_starts=[w.graph.window_start for w in trace.windows],
        window_indices=[w.graph.window_index for w in trace.windows])
    events = transitions(decisions)
    out = cfg.path(ARTIFACTS["stage_alerts"])
    export_alerts(decisions, events, out)
    _write_sidecar(out, cfg, "infer", {"records": len(decisions),
                                       "transitions": len(events)})
    print(f"infer: {len(decisions)} windows, {len(events)} transitions -> {out}")


def cmd_export_attention(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    fin = cfg.path(ARTIFACTS["finetune_ckpt"])
    pre = cfg.path(ARTIFACTS["pretrain_ckpt"])
    source = fin if os.path.exists(fin) else pre
    store, mcfg = _load_model_checkpoint(
        source, cfg, spec_hash, "finetune" if source == fin else "pretrain")
    graphs = [w.graph for w in trace.windows]
    with no_grad():
        alpha = encode_windows([(w.X, w.Z, w.graph) for w in trace.windows],
                               store, mcfg).alpha.data
    # the readout normalizes per window, so batching leaves each window's weights as they are
    bounds = np.cumsum([len(g.nodes) for g in graphs])[:-1]
    out = cfg.path(ARTIFACTS["attention"])
    write_attention_csv(out, graphs, np.split(alpha, bounds))
    _write_sidecar(out, cfg, "export-attention", {"checkpoint": os.path.basename(source)})
    print(f"export-attention: {alpha.size} node weights -> {out}")


_COMMANDS = {
    "generate": cmd_generate,
    "build-graphs": cmd_build_graphs,
    "fit-features": cmd_fit_features,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "infer": cmd_infer,
    "export-attention": cmd_export_attention,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # --config/--set are accepted both before and after the subcommand
    # (SUPPRESS defaults keep the subparser from clobbering top-level values)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", default=argparse.SUPPRESS,
                        help="path to the JSON pipeline config")
    common.add_argument("--set", dest="overrides", action="append",
                        default=argparse.SUPPRESS, metavar="KEY.PATH=VALUE",
                        help="override a config field (JSON-parsed value); repeatable")
    parser = _Parser(
        prog="aptstage",
        description="Kill-chain stage estimation over fused provenance graphs.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    helps = {
        "generate": "synthesize labeled telemetry (events, alerts, labels)",
        "build-graphs": "segment telemetry into windows and build fused graphs",
        "fit-features": "fit the TF-IDF vocabulary and z-score statistics",
        "pretrain": "self-supervised pretraining (prediction + contrastive)",
        "finetune": "two-phase supervised fine-tuning",
        "evaluate": "temporal k-fold evaluation with per-fold training",
        "infer": "stage probabilities, decisions, and alert export",
        "export-attention": "per-node readout attention weights as CSV",
    }
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, help=helps[name], parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "config"):
            parser.error("the following arguments are required: --config/-c")
    except SystemExit as exc:  # argparse exits; callers want a return code
        return int(exc.code or 0)
    args.overrides = getattr(args, "overrides", [])
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.overrides)
        _COMMANDS[args.command](cfg)
        return 0
    except _DEP_ERRORS as exc:
        print(f"aptstage: dependency error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"aptstage: data error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"aptstage: config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
