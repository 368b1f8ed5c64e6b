"""Command-line pipeline driver.

Stage-wise subcommands with file artifacts at every boundary:

    generate → build-graphs → fit-features → pretrain → finetune
                                        ↘ evaluate / infer / export-attention

Every artifact records the hash of the config that produced it and the stage
that `ARTIFACTS` names as its producer (embedded in JSON artifacts and
checkpoints, in a `<file>.meta.json` sidecar for the rest); stages refuse
mismatched upstream artifacts. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 dependency/compatibility error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .config import PipelineConfig, apply_overrides, load_config
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
    evaluate_folds,
    fold_blocks,
    trace_scores,
    write_metrics_csv,
    write_metrics_json,
)
from .features import feature_spec_hash, fit_vocab_and_stats, load_feature_spec, save_feature_spec
from .graphs import build_graph_sequence, dump_graphs_jsonl, load_graphs_jsonl
from .mapping import decide, export_alerts, transitions
from .model import build_param_store, encode_windows
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

# artifact key -> (file name, the stage that writes it)
ARTIFACTS = {
    "events": ("events.jsonl", "generate"),
    "alerts": ("alerts.jsonl", "generate"),
    "labels": ("labels.csv", "generate"),
    "graphs": ("graphs.jsonl", "build-graphs"),
    "feature_spec": ("feature_spec.json", "fit-features"),
    "pretrain_ckpt": ("pretrain_ckpt.npz", "pretrain"),
    "pretrain_log": ("pretrain_log.csv", "pretrain"),
    "finetune_ckpt": ("finetune_ckpt.npz", "finetune"),
    "finetune_log": ("finetune_log.csv", "finetune"),
    "metrics_csv": ("metrics.csv", "evaluate"),
    "metrics_json": ("metrics.json", "evaluate"),
    "stage_alerts": ("stage_alerts.jsonl", "infer"),
    "attention": ("attention.csv", "export-attention"),
}

_DATA_ERRORS = (TelemetryParseError, InputError, MetricError, FitError,
                GraphConsistencyError, TrainingError, OSError, UnicodeDecodeError)
_DEP_ERRORS = (DependencyError, CompatibilityError)


# ---------- artifact provenance ----------

def _path(cfg: PipelineConfig, key: str) -> str:
    """The config's own path for the artifact if it sets one, else its file in the workdir."""
    explicit = getattr(cfg, key) if key in cfg.PATH_FIELDS else None
    return explicit or os.path.join(cfg.workdir, ARTIFACTS[key][0])


def _meta(cfg: PipelineConfig, key: str, **extra) -> dict:
    """The provenance an artifact records: the config hash and the stage
    that wrote it, plus `extra`."""
    return {"config_hash": cfg.config_hash(), "stage": ARTIFACTS[key][1], **extra}


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"


def _write_sidecar(cfg: PipelineConfig, key: str, **extra) -> None:
    with open(_sidecar_path(_path(cfg, key)), "w") as fh:
        json.dump(_meta(cfg, key, **extra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _recorded_config_hash(path: str, embedded: bool) -> str:
    """The config hash in an artifact's embedded `meta` or in its sidecar. A
    file that is not a JSON object or records no hash is a compatibility
    error naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        recorded = (doc["meta"] if embedded else doc)["config_hash"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CompatibilityError(
            f"{path!r} records no config hash: {type(exc).__name__}: {exc}") from None
    if not isinstance(recorded, str):
        raise CompatibilityError(f"{path!r} records no config hash: {recorded!r}")
    return recorded


def _require(cfg: PipelineConfig, key: str) -> str:
    """The artifact's path. Fail with a dependency error naming its producer
    if it is absent, or a compatibility error if the config hash it records
    (embedded in a JSON artifact, else in its sidecar if present) is not the
    current config's. A checkpoint embeds its config hash, which
    `_load_model_checkpoint` checks; a sidecar an older run left beside one
    is checked here too."""
    path = _path(cfg, key)
    if not os.path.exists(path):
        raise DependencyError(
            f"missing artifact {path!r}; run the {ARTIFACTS[key][1]!r} stage first")
    embedded = ARTIFACTS[key][0].endswith(".json")
    record = path if embedded else _sidecar_path(path)
    if os.path.exists(record):
        recorded = _recorded_config_hash(record, embedded)
        if recorded != cfg.config_hash():
            raise CompatibilityError(
                f"artifact {path!r} was produced by config hash {recorded[:12]}…, "
                f"current config hashes to {cfg.config_hash()[:12]}…")
    return path


def _write_csv(path: str, rows, columns) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") for c in columns])


# ---------- shared loading ----------

def _load_graphs(cfg: PipelineConfig):
    with open(_require(cfg, "graphs")) as fh:
        return load_graphs_jsonl(fh)


def _load_labels(cfg: PipelineConfig, n_windows: int):
    path = _require(cfg, "labels")
    labels, line_of = {}, {}
    n_classes = cfg.model.num_classes
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            try:
                index, stage = int(row["window_index"]), int(row["stage_id"])
            except (KeyError, TypeError, ValueError):
                raise InputError(f"{where}: window_index {row.get('window_index')!r} and "
                                 f"stage_id {row.get('stage_id')!r} must be integers") from None
            if not 0 <= stage < n_classes:
                raise InputError(f"{where}: stage_id {stage} is outside 0..{n_classes - 1}")
            if index in line_of:
                raise InputError(f"{path}: window_index {index} appears on line "
                                 f"{line_of[index]} and on line {reader.line_num}")
            labels[index], line_of[index] = stage, reader.line_num
    missing = [i for i in range(n_windows) if i not in labels]
    beyond = sorted(i for i in labels if not 0 <= i < n_windows)
    if missing or beyond:
        named = [f"{what} {_first_few(indexes)}" for what, indexes in
                 (("no label for windows", missing), ("labels for windows", beyond)) if indexes]
        raise InputError(f"{path}: {' and '.join(named)}, but {n_windows} graphs exist")
    return [labels[i] for i in range(n_windows)]


def _first_few(indexes, shown: int = 5) -> str:
    more = f" and {len(indexes) - shown} more" if len(indexes) > shown else ""
    return ", ".join(map(str, indexes[:shown])) + more


def _load_trace(cfg: PipelineConfig, labeled: bool):
    """The graphs artifact featurized with the fitted feature spec as one
    trace, with window labels when `labeled`; returns (trace, spec_hash)."""
    graphs = _load_graphs(cfg)
    path = _require(cfg, "feature_spec")
    vocab, stats, fcfg, spec_hash = load_feature_spec(path)
    if fcfg != cfg.model.featurizer:
        raise CompatibilityError(
            "feature spec dimensions differ from the configured featurizer")
    if feature_spec_hash(vocab, stats, fcfg) != spec_hash:
        raise CompatibilityError(
            f"feature spec {path!r} does not match its spec_hash; "
            f"refit with {ARTIFACTS['feature_spec'][1]}")
    labels = _load_labels(cfg, len(graphs)) if labeled else None
    return featurize_trace("trace0", graphs, labels, vocab, stats, fcfg), spec_hash


def _load_model_checkpoint(cfg: PipelineConfig, key: str, spec_hash: str):
    """The configured model's parameters as the checkpoint holds them. The
    config hash that the checkpoint records covers the model config, so once
    it matches, `cfg.model` is the model that was trained."""
    path = _require(cfg, key)
    store = build_param_store(cfg.model)
    meta = load_checkpoint(path, store)
    if meta.get("config_hash") != cfg.config_hash():
        raise CompatibilityError(
            f"checkpoint {path!r} was trained under a different config")
    if meta.get("feature_spec_hash") != spec_hash:
        raise CompatibilityError(
            f"checkpoint {path!r} was trained with a different feature spec")
    return store


def _save_trained(cfg: PipelineConfig, ckpt_key: str, log_key: str, store, spec_hash: str,
                  log: list) -> str:
    """Write a training stage's checkpoint, whose embedded meta records its
    provenance and the feature spec, and its log as CSV with a sidecar, the
    columns being the keys of the log's first record; returns the checkpoint
    path."""
    ckpt = _path(cfg, ckpt_key)
    save_checkpoint(ckpt, store, _meta(cfg, ckpt_key, feature_spec_hash=spec_hash))
    if os.path.exists(_sidecar_path(ckpt)):  # an older run's, no longer this checkpoint's
        os.remove(_sidecar_path(ckpt))
    _write_csv(_path(cfg, log_key), log, list(log[0]))
    _write_sidecar(cfg, log_key)
    return ckpt


# ---------- commands ----------

def cmd_generate(cfg: PipelineConfig) -> None:
    os.makedirs(cfg.workdir, exist_ok=True)
    events, alerts, labels = generate_scenario(cfg.scenario.build(cfg.seed))
    with open(_path(cfg, "events"), "w") as fh:
        dump_jsonl(events, fh)
    with open(_path(cfg, "alerts"), "w") as fh:
        dump_jsonl(alerts, fh)
    _write_csv(_path(cfg, "labels"), [{"window_index": i, "stage_id": k} for i, k in enumerate(labels)],
               ["window_index", "stage_id"])
    for key, records in (("events", events), ("alerts", alerts), ("labels", labels)):
        _write_sidecar(cfg, key, records=len(records))
    print(f"generate: {len(events)} events, {len(alerts)} alerts, "
          f"{len(labels)} window labels -> {cfg.workdir}")


def cmd_build_graphs(cfg: PipelineConfig) -> None:
    os.makedirs(cfg.workdir, exist_ok=True)
    with open(_require(cfg, "events")) as fh:
        events = parse_host_events(fh)
    with open(_require(cfg, "alerts")) as fh:
        alerts = parse_alerts(fh)
    graphs = build_graph_sequence(events, alerts)
    out = _path(cfg, "graphs")
    with open(out, "w") as fh:
        dump_graphs_jsonl(graphs, fh)
    _write_sidecar(cfg, "graphs", windows=len(graphs))
    print(f"build-graphs: {len(graphs)} windows -> {out}")


def cmd_fit_features(cfg: PipelineConfig) -> None:
    graphs = _load_graphs(cfg)
    vocab, stats = fit_vocab_and_stats(graphs, cfg.model.featurizer)
    out = _path(cfg, "feature_spec")
    spec_hash = save_feature_spec(out, vocab, stats, cfg.model.featurizer,
                                  meta=_meta(cfg, "feature_spec"))
    print(f"fit-features: vocab of {len(vocab.token_index)} tokens, "
          f"spec {spec_hash[:12]}… -> {out}")


def cmd_pretrain(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    store = build_param_store(cfg.model)
    result = pretrain([trace], store, cfg.model, cfg.pretrain)
    ckpt = _save_trained(cfg, "pretrain_ckpt", "pretrain_log", store, spec_hash, result.loss_log)
    first, last = result.loss_log[0]["loss_ssl"], result.loss_log[-1]["loss_ssl"]
    print(f"pretrain: L_ssl {first:.4f} -> {last:.4f} over "
          f"{len(result.loss_log)} epochs; checkpoint {ckpt}")


def cmd_finetune(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=True)
    # validate on the temporally last windows, never on the training windows
    train, val = split_train_val([trace], cfg.finetune.val_fraction)
    store = _load_model_checkpoint(cfg, "pretrain_ckpt", spec_hash)
    result = finetune(train, store, cfg.model, cfg.finetune, val_traces=val)
    ckpt = _save_trained(cfg, "finetune_ckpt", "finetune_log", store, spec_hash, result.metric_log)
    best = max(r["val_f1"] for r in result.metric_log)
    print(f"finetune: best val macro-F1 {best:.4f}; checkpoint {ckpt}")


def _fold_traces(trace: Trace, k: int):
    """Split one window timeline into k contiguous block-traces."""
    return [Trace(trace_id=f"block{i}", windows=[trace.windows[j] for j in idx])
            for i, idx in enumerate(fold_blocks(len(trace.windows), k))]


def cmd_evaluate(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=True)

    def fit_eval(train_blocks, test_block):
        store = _load_model_checkpoint(cfg, "pretrain_ckpt", spec_hash)
        finetune(train_blocks, store, cfg.model, cfg.finetune)
        scores = trace_scores(*predict_traces([test_block], store, cfg.model))
        return {name: scores[name] for name in ("macro_f1", "macro_precision", "macro_recall",
                                                "accuracy", "aupr", "tfr")}

    report = evaluate_folds(_fold_traces(trace, cfg.folds), fit_eval)
    json_path = _path(cfg, "metrics_json")
    write_metrics_csv(_path(cfg, "metrics_csv"), report)
    write_metrics_json(json_path, report, extra={"meta": _meta(cfg, "metrics_json", folds=cfg.folds)})
    _write_sidecar(cfg, "metrics_csv")
    summary = ", ".join(f"{k} {report.mean[k]:.4f}±{report.std[k]:.4f}"
                        for k in ("macro_f1", "accuracy", "tfr") if k in report.mean)
    print(f"evaluate: {summary} over {cfg.folds} folds -> {json_path}")


def cmd_infer(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    store = _load_model_checkpoint(cfg, "finetune_ckpt", spec_hash)
    probs = predict_trace(trace, store, cfg.model)
    decisions = decide(
        probs,
        window_starts=[w.graph.window_start for w in trace.windows],
        window_indices=[w.graph.window_index for w in trace.windows])
    events = transitions(decisions)
    out = _path(cfg, "stage_alerts")
    export_alerts(decisions, events, out)
    _write_sidecar(cfg, "stage_alerts", records=len(decisions), transitions=len(events))
    print(f"infer: {len(decisions)} windows, {len(events)} transitions -> {out}")


def cmd_export_attention(cfg: PipelineConfig) -> None:
    trace, spec_hash = _load_trace(cfg, labeled=False)
    source = "finetune_ckpt" if os.path.exists(_path(cfg, "finetune_ckpt")) else "pretrain_ckpt"
    store = _load_model_checkpoint(cfg, source, spec_hash)
    graphs = [w.graph for w in trace.windows]
    with no_grad():
        alpha = encode_windows(trace.windows, store, cfg.model).alpha.data
    # the readout normalizes per window, so batching leaves each window's weights as they are
    bounds = np.cumsum([len(g.nodes) for g in graphs])[:-1]
    out = _path(cfg, "attention")
    write_attention_csv(out, graphs, np.split(alpha, bounds))
    _write_sidecar(cfg, "attention", checkpoint=ARTIFACTS[source][0])
    print(f"export-attention: {alpha.size} node weights -> {out}")


# stage -> (command, its help text)
_COMMANDS = {
    "generate": (cmd_generate, "synthesize labeled telemetry (events, alerts, labels)"),
    "build-graphs": (cmd_build_graphs, "segment telemetry into windows and build fused graphs"),
    "fit-features": (cmd_fit_features, "fit the TF-IDF vocabulary and z-score statistics"),
    "pretrain": (cmd_pretrain, "self-supervised pretraining (prediction + contrastive)"),
    "finetune": (cmd_finetune, "two-phase supervised fine-tuning"),
    "evaluate": (cmd_evaluate, "temporal k-fold evaluation with per-fold training"),
    "infer": (cmd_infer, "stage probabilities, decisions, and alert export"),
    "export-attention": (cmd_export_attention, "per-node readout attention weights as CSV"),
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
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
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
        _COMMANDS[args.command][0](cfg)
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
