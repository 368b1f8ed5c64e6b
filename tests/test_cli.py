"""Pipeline CLI: artifact flow, provenance hashes, exit codes."""
import csv
import hashlib
import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from aptstage import cli
from aptstage.cli import main as cli_main
from aptstage.config import (
    PipelineConfig,
    apply_overrides,
    load_config,
)
from aptstage.errors import ValidationError
from aptstage.features import FeatureVocab, FeaturizerConfig, ZScoreStats, feature_spec_hash
from aptstage.model import build_param_store
from aptstage.nn import load_checkpoint, save_checkpoint

FAST = {
    "scenario": {"num_hosts": 2, "duration": 1800.0},
    "model": {"d_h": 8, "d_g": 8, "hidden": 8},
    "pretrain": {"epochs": 2, "batch": 8, "negatives": 8},
    "finetune": {"phase1_epochs": 1, "phase2_epochs": 1, "patience": 2, "batch": 8},
    "folds": 2,
    "seed": 0,
}


def write_config(tmp_path, name="config.json", **extra):
    doc = dict(FAST)
    doc["workdir"] = str(tmp_path / "artifacts")
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return cli_main(list(argv))


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_trained(ckpt, cfg_path):
    """The configured model's store loaded from `ckpt`, and the checkpoint's meta."""
    store = build_param_store(load_config(cfg_path).model)
    return store, load_checkpoint(ckpt, store)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the artifact-inspection tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp)
    for cmd in ("generate", "build-graphs", "fit-features", "pretrain",
                "finetune", "infer", "export-attention", "evaluate"):
        assert run(cmd, "--config", cfg_path) == 0, cmd
    return tmp / "artifacts", cfg_path


def test_all_artifacts_exist(pipeline):
    workdir, _ = pipeline
    for name in ("events.jsonl", "alerts.jsonl", "labels.csv", "graphs.jsonl",
                 "feature_spec.json", "pretrain_ckpt.npz", "pretrain_log.csv",
                 "finetune_ckpt.npz", "finetune_log.csv", "stage_alerts.jsonl",
                 "attention.csv", "metrics.csv", "metrics.json"):
        assert (workdir / name).exists(), name
    # CSV/JSONL artifacts carry provenance sidecars
    for name in ("events.jsonl", "graphs.jsonl", "stage_alerts.jsonl",
                 "attention.csv", "metrics.csv"):
        meta = json.loads((workdir / (name + ".meta.json")).read_text())
        assert len(meta["config_hash"]) == 64


def test_every_producer_is_a_stage():
    assert {stage for _, stage in cli.ARTIFACTS.values()} <= set(cli._COMMANDS)


def test_every_stage_is_a_subcommand_with_its_table_help():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert list(sub.choices) == list(cli._COMMANDS)
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: help_text for name, (_, help_text) in cli._COMMANDS.items()}


def test_every_artifact_records_its_producer(pipeline):
    workdir, cfg_path = pipeline
    for key, (name, stage) in cli.ARTIFACTS.items():
        if name.endswith(".json"):  # embedded meta
            assert json.loads((workdir / name).read_text())["meta"]["stage"] == stage, key
        elif name.endswith(".npz"):  # the checkpoint's embedded meta, and no sidecar
            assert load_trained(workdir / name, cfg_path)[1]["stage"] == stage, key
            assert not (workdir / (name + ".meta.json")).exists(), key
        else:
            assert json.loads((workdir / (name + ".meta.json")).read_text())["stage"] == stage, key


def test_stage_alert_export_schema(pipeline):
    workdir, _ = pipeline
    rows = [json.loads(l) for l in
            (workdir / "stage_alerts.jsonl").read_text().splitlines()]
    assert len(rows) == 6  # one per window
    for r in rows:
        assert r["version"] == 1
        assert 0 <= r["stage_id"] < 7
        assert isinstance(r["stage_name"], str)
        assert 0.0 <= r["confidence"] <= 1.0
    assert rows[0]["prev_stage_id"] is None


def test_attention_sums_to_one_per_window(pipeline):
    workdir, _ = pipeline
    with open(workdir / "attention.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_window = {}
    for r in rows:
        by_window.setdefault(r["window_index"], []).append(float(r["alpha"]))
    assert len(by_window) == 6
    for vals in by_window.values():
        assert abs(sum(vals) - 1.0) < 1e-6


def test_metrics_report_fields(pipeline):
    workdir, _ = pipeline
    doc = json.loads((workdir / "metrics.json").read_text())
    assert set(doc["mean"]) == {"macro_f1", "macro_precision", "macro_recall",
                                "accuracy", "aupr", "tfr"}
    assert len(doc["per_fold"]) == 2
    assert doc["meta"]["folds"] == 2
    assert all(np.isfinite(v) for v in doc["mean"].values())


def test_training_logs_parse(pipeline):
    workdir, _ = pipeline
    with open(workdir / "pretrain_log.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    # the header is the keys of `PretrainResult.loss_log`'s records, in order
    assert reader.fieldnames == ["epoch", "loss_pred", "loss_ctr", "loss_ssl"]
    assert len(rows) == 2
    assert all(float(r["loss_ssl"]) > 0 for r in rows)
    with open(workdir / "finetune_log.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    # and of `FinetuneResult.metric_log`'s
    assert reader.fieldnames == ["phase", "epoch", "seq_len", "loss_sup", "val_f1"]
    assert {r["phase"] for r in rows} == {"phase1", "phase2"}


def test_finetune_validates_on_the_last_windows_only(pipeline, tmp_path, monkeypatch):
    workdir, _ = pipeline
    shutil.copytree(workdir, tmp_path / "artifacts")
    seen = {}

    def spy(traces, store, mcfg, cfg, val_traces=None, **kw):
        seen["train"], seen["val"] = traces, val_traces
        return real(traces, store, mcfg, cfg, val_traces=val_traces, **kw)

    real = cli.finetune
    monkeypatch.setattr(cli, "finetune", spy)
    assert run("finetune", "--config", write_config(tmp_path)) == 0
    train = [w.graph.window_index for tr in seen["train"] for w in tr.windows]
    val = [w.graph.window_index for tr in seen["val"] for w in tr.windows]
    assert val and train
    assert not set(train) & set(val)
    assert sorted(train + val) == list(range(6))
    assert max(train) < min(val)


def _copy_pipeline(pipeline, tmp_path):
    workdir, _ = pipeline
    shutil.copytree(workdir, tmp_path / "artifacts")
    return tmp_path / "artifacts", write_config(tmp_path)


def test_exit_code_labels_miss_a_window(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    lines = (workdir / "labels.csv").read_text().splitlines(keepends=True)
    (workdir / "labels.csv").write_text("".join(lines[:-1]))
    assert run("finetune", "--config", cfg_path) == 2
    assert "but 6 graphs exist" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:4] + lines[5:], "labels.csv: no label for windows 3, but 6 graphs exist"),
    (lambda lines: lines[:2] + lines[5:] + ["6,0\n", "-1,0\n"],
     "labels.csv: no label for windows 1, 2, 3 and labels for windows -1, 6, but 6 graphs exist"),
    (lambda lines: lines + [f"{i},0\n" for i in range(6, 14)],
     "labels.csv: labels for windows 6, 7, 8, 9, 10 and 3 more, but 6 graphs exist"),
])
def test_exit_code_labels_name_missing_and_extra_windows(pipeline, tmp_path, capsys, edit, message):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    lines = (workdir / "labels.csv").read_text().splitlines(keepends=True)
    (workdir / "labels.csv").write_text("".join(edit(lines)))
    assert run("finetune", "--config", cfg_path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("stage_id,message", [
    ("9", "stage_id 9 is outside 0..6"),
    ("-1", "stage_id -1 is outside 0..6"),
    ("2.5", "stage_id '2.5' must be integers"),
])
def test_exit_code_label_value_refused(pipeline, tmp_path, capsys, stage_id, message):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    lines = (workdir / "labels.csv").read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + "," + stage_id + "\n"
    (workdir / "labels.csv").write_text("".join(lines))
    assert run("finetune", "--config", cfg_path) == 2
    err = capsys.readouterr().err
    assert "labels.csv: line 4: " in err and message in err


def test_exit_code_label_window_named_twice(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    with open(workdir / "labels.csv", "a") as fh:
        fh.write("1,6\n")  # line 8; window 1 is on line 3
    assert run("finetune", "--config", cfg_path) == 2
    assert "labels.csv: window_index 1 appears on line 3 and on line 8" in capsys.readouterr().err


def _without(key):
    def edit(text):
        doc = json.loads(text)
        del doc[key]
        return json.dumps(doc)
    return edit


def _truncated(text):
    return text[: len(text) // 2]


def _d_cmd_zero(text):
    doc = json.loads(text)
    doc["config"]["d_cmd"] = 0
    return json.dumps(doc)


@pytest.mark.parametrize("artifact,edit,stage", [
    pytest.param("feature_spec.json", _truncated, "finetune", id="spec-not-json"),
    pytest.param("feature_spec.json", _without("stats"), "pretrain", id="spec-without-stats"),
    pytest.param("feature_spec.json", _without("meta"), "infer", id="spec-without-meta"),
    pytest.param("feature_spec.json", _d_cmd_zero, "pretrain", id="spec-width-zero"),
    pytest.param("graphs.jsonl.meta.json", _truncated, "fit-features", id="sidecar-not-json"),
    pytest.param("graphs.jsonl.meta.json", _without("config_hash"), "fit-features",
                 id="sidecar-without-config-hash"),
])
def test_exit_code_unreadable_json_artifact(pipeline, tmp_path, capsys, artifact, edit, stage):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    path = workdir / artifact
    path.write_text(edit(path.read_text()))
    assert run(stage, "--config", cfg_path) == 3
    assert f"{path}'" in capsys.readouterr().err


def test_exit_code_feature_spec_widths_differ(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    spec = json.loads((workdir / "feature_spec.json").read_text())
    spec["config"]["user_buckets"] += 1
    (workdir / "feature_spec.json").write_text(json.dumps(spec))
    assert run("pretrain", "--config", cfg_path) == 3
    assert "differ from the configured featurizer" in capsys.readouterr().err


def test_exit_code_feature_spec_edited(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    spec = json.loads((workdir / "feature_spec.json").read_text())
    spec["vocab"]["idf"][0] *= 100
    (workdir / "feature_spec.json").write_text(json.dumps(spec))
    assert run("pretrain", "--config", cfg_path) == 3
    assert "does not match its spec_hash" in capsys.readouterr().err


@pytest.mark.parametrize("key,message", [
    ("config_hash", "trained under a different config"),
    ("feature_spec_hash", "trained with a different feature spec"),
])
def test_exit_code_checkpoint_meta_mismatch(pipeline, tmp_path, capsys, key, message):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    ckpt = workdir / "pretrain_ckpt.npz"
    store, meta = load_trained(ckpt, cfg_path)
    save_checkpoint(ckpt, store, dict(meta, **{key: "0" * 64}))
    assert run("finetune", "--config", cfg_path) == 3
    assert message in capsys.readouterr().err


def test_training_stage_removes_an_older_runs_checkpoint_sidecar(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    sidecar = workdir / "pretrain_ckpt.npz.meta.json"
    sidecar.write_text(json.dumps({"config_hash": "0" * 64, "stage": "pretrain"}))
    assert run("finetune", "--config", cfg_path) == 3  # still checked while it is there
    assert "pretrain_ckpt.npz' was produced by config hash 000000000000" in capsys.readouterr().err
    assert run("pretrain", "--config", cfg_path) == 0
    assert not sidecar.exists()
    assert run("finetune", "--config", cfg_path) == 0


def test_exit_code_truncated_checkpoint(pipeline, tmp_path, capsys):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    ckpt = workdir / "pretrain_ckpt.npz"
    ckpt.write_bytes(ckpt.read_bytes()[:1000])
    assert run("finetune", "--config", cfg_path) == 3
    assert "pretrain_ckpt.npz' is unreadable" in capsys.readouterr().err


def test_infer_exit_code_on_non_finite_checkpoint(pipeline, tmp_path):
    workdir, cfg_path = pipeline
    shutil.copytree(workdir, tmp_path / "artifacts")
    ckpt = tmp_path / "artifacts" / "finetune_ckpt.npz"
    store, meta = load_trained(ckpt, cfg_path)
    store.tensor("head.stage.W").data[0, 0] = np.nan
    save_checkpoint(ckpt, store, meta)
    assert run("infer", "--config", write_config(tmp_path)) == 2


def _rewrite_checkpoint(ckpt, cfg_path, edit):
    """Rewrite `ckpt` in the earlier format, whose meta also held the model
    config, the init seed and the parameter names, after `edit(arrays, meta)`
    has changed it."""
    with np.load(ckpt) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    model = load_config(cfg_path).model
    meta.update(model=asdict(model), rng_seed=model.seed,
                param_names=[k.removeprefix("param/") for k in arrays])
    edit(arrays, meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(ckpt, **arrays)


def _head_a_column_short(arrays, meta):
    arrays["param/head.stage.W"] = arrays["param/head.stage.W"][:, :-1]


def _head_missing(arrays, meta):
    del arrays["param/head.stage.W"]
    meta["param_names"].remove("head.stage.W")


@pytest.mark.parametrize("edit,message", [
    pytest.param(_head_a_column_short, "shape mismatch for head.stage.W", id="head-a-column-short"),
    pytest.param(_head_missing, "param/head.stage.W", id="head-missing"),
])
def test_exit_code_checkpoint_lacks_a_configured_parameter(pipeline, tmp_path, capsys, edit, message):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    _rewrite_checkpoint(workdir / "finetune_ckpt.npz", cfg_path, edit)
    assert run("infer", "--config", cfg_path) == 3
    err = capsys.readouterr().err
    assert "finetune_ckpt.npz' is unreadable" in err and message in err, err


def test_checkpoint_of_the_earlier_format_loads_into_the_configured_model(pipeline, tmp_path):
    workdir, cfg_path = _copy_pipeline(pipeline, tmp_path)
    # the recorded model config is no longer read: the config hash covers it
    _rewrite_checkpoint(workdir / "finetune_ckpt.npz", cfg_path,
                        lambda arrays, meta: meta["model"].update(dropout=2.0))
    (workdir / "stage_alerts.jsonl").unlink()
    assert run("infer", "--config", cfg_path) == 0
    assert sha(workdir / "stage_alerts.jsonl") == sha(pipeline[0] / "stage_alerts.jsonl")


def test_rerun_is_byte_identical(pipeline):
    workdir, cfg_path = pipeline
    before = {n: sha(workdir / n) for n in ("events.jsonl", "graphs.jsonl",
                                            "feature_spec.json",
                                            "pretrain_ckpt.npz")}
    for cmd in ("generate", "build-graphs", "fit-features", "pretrain"):
        assert run(cmd, "--config", cfg_path) == 0
    after = {n: sha(workdir / n) for n in before}
    assert before == after


def test_flags_accepted_before_and_after_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run("--config", cfg_path, "generate") == 0
    assert run("generate", "--config", cfg_path) == 0


def test_generate_covers_all_stages_at_default_duration(tmp_path):
    cfg_path = write_config(tmp_path, scenario={"num_hosts": 2, "duration": 3600.0})
    assert run("generate", "--config", cfg_path) == 0
    with open(tmp_path / "artifacts" / "labels.csv", newline="") as fh:
        labels = [int(r["stage_id"]) for r in csv.DictReader(fh)]
    assert len(labels) == 12
    assert set(labels) == set(range(7))


def test_set_override_changes_artifact(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run("generate", "--config", cfg_path,
               "--set", "scenario.duration=2400.0") == 0
    with open(tmp_path / "artifacts" / "labels.csv", newline="") as fh:
        labels = list(csv.DictReader(fh))
    assert len(labels) == 8  # 2400 s / 300 s


def test_exit_code_usage_errors(tmp_path):
    assert run("generate") == 1                                  # no --config
    assert run("generate", "--config", str(tmp_path / "nope.json")) == 1
    assert run("frobnicate", "--config", "x") == 1               # unknown command
    cfg_path = write_config(tmp_path)
    assert run("generate", "--config", cfg_path,
               "--set", "scenario.warp_factor=9") == 1           # unknown field
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("generate", "--config", str(bad)) == 1


@pytest.mark.parametrize("field,value", [("user_buckets", 0), ("subnet_buckets", -1)])
def test_non_positive_featurizer_width_fails_at_config_load(tmp_path, field, value):
    model = dict(FAST["model"], featurizer={field: value})
    cfg_path = write_config(tmp_path, model=model)
    assert run("generate", "--config", cfg_path) == 1
    assert not (tmp_path / "artifacts" / "events.jsonl").exists()
    assert run("generate", "--config", write_config(tmp_path, name="ok.json"),
               "--set", f"model.featurizer.{field}={value}") == 1


BAD_VALUES = [
    ("pretrain.tau", 0),
    ("finetune.clip", 0),
    ("finetune.batch", 0),
    ("model.dropout", 1.0),
    ("model.lstm_layers", 0),
    ("model.num_classes", 5),
    ("seed", -1),
    ("folds", 1),
    ("pretrain.epochs", "5"),
    ("scenario.schedule", [["x", 0, 10]]),
]
# more bad values under a key already listed, each with its own test id
BAD_STAGES = [("fractional-stage", [[1.7, 0, 600]]), ("bool-stage", [[True, 0, 600]]),
              ("string-start", [[1, "0", 600]]), ("bool-end", [[1, 0, True]])]


@pytest.mark.parametrize("key,value", [pytest.param(k, v, id=k) for k, v in BAD_VALUES] + [
    pytest.param("scenario.schedule", v, id=f"scenario.schedule-{name}") for name, v in BAD_STAGES])
def test_bad_value_fails_at_config_load(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(FAST))
    *sections, name = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    assert run("generate", "--config", write_config(tmp_path, **doc)) == 1
    assert "config error" in capsys.readouterr().err
    assert run("generate", "--config", write_config(tmp_path, name="ok.json"),
               "--set", f"{key}={json.dumps(value)}") == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_exit_code_missing_dependency(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert run("infer", "--config", cfg_path) == 3   # nothing generated yet
    assert "run the 'build-graphs' stage first" in capsys.readouterr().err
    assert run("build-graphs", "--config", cfg_path) == 3
    assert "run the 'generate' stage first" in capsys.readouterr().err


def test_exit_code_config_hash_mismatch(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run("generate", "--config", cfg_path) == 0
    # changing a non-path parameter invalidates downstream artifact reuse
    assert run("build-graphs", "--config", cfg_path, "--set", "seed=1") == 3


def test_exit_code_data_error(tmp_path):
    cfg_path = write_config(tmp_path, folds=50)  # more folds than windows
    for cmd in ("generate", "build-graphs", "fit-features", "pretrain"):
        assert run(cmd, "--config", cfg_path) == 0
    assert run("evaluate", "--config", cfg_path) == 2


def _edit_graph(edit):
    def apply(line):
        doc = json.loads(line)
        edit(doc)
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda line: line[: len(line) // 2], id="broken-json"),
    pytest.param(_edit_graph(lambda d: d["edges"][0].update(relation="bogus")), id="unknown-relation"),
    pytest.param(_edit_graph(lambda d: d["nodes"][0].update(kind="daemon")), id="unknown-node-kind"),
    pytest.param(_edit_graph(lambda d: d["edges"][0].pop("dst")), id="missing-field"),
    pytest.param(_edit_graph(lambda d: d["nodes"][0]["attrs"].pop("first_ts")), id="node-without-first-ts"),
    pytest.param(_edit_graph(lambda d: d["nodes"][0]["attrs"].update(first_ts=1e9)),
                 id="node-first-ts-outside-window"),
    pytest.param(_edit_graph(lambda d: next(n for n in d["nodes"] if n["kind"] == "alert")["attrs"].update(
        protocol="carrier-pigeon")), id="alert-unknown-protocol"),
])
def test_exit_code_malformed_graphs(tmp_path, capsys, corrupt):
    cfg_path = write_config(tmp_path)
    for cmd in ("generate", "build-graphs"):
        assert run(cmd, "--config", cfg_path) == 0
    path = tmp_path / "artifacts" / "graphs.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = corrupt(lines[1])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("fit-features", "--config", cfg_path) == 2
    assert "data error: line 2: " in capsys.readouterr().err


@pytest.mark.parametrize("artifact,stage", [("events.jsonl", "build-graphs"),
                                            ("graphs.jsonl", "fit-features")])
def test_exit_code_input_not_utf8(tmp_path, capsys, artifact, stage):
    cfg_path = write_config(tmp_path)
    for cmd in ("generate", "build-graphs"):
        assert run(cmd, "--config", cfg_path) == 0
    with open(tmp_path / "artifacts" / artifact, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    capsys.readouterr()
    assert run(stage, "--config", cfg_path) == 2
    assert "data error: 'utf-8' codec can't decode" in capsys.readouterr().err


# ---------------------------------------------------------------- config API


def test_config_hash_ignores_paths(tmp_path):
    a = PipelineConfig(workdir="x")
    b = PipelineConfig(workdir="y", events="elsewhere.jsonl")
    assert a.config_hash() == b.config_hash()
    c = PipelineConfig(workdir="x", seed=1)
    assert a.config_hash() != c.config_hash()


def test_default_hashes_pinned():
    # artifacts written by earlier releases record these; they must still validate
    assert PipelineConfig().config_hash() == (
        "77710bb785978412cd798701897b5c9003db0e1b46403eb050a656e8ab3aaaa9")
    vocab = FeatureVocab(token_index={"wget": 0, "powershell": 1}, idf=np.array([1.5, 2.25]),
                         d_cmd=64)
    stats = ZScoreStats(mean=np.array([1.0, 2.0, 3.0, 4.0]), std=np.array([0.5, 1.0, 0.0, 2.0]))
    assert feature_spec_hash(vocab, stats, FeaturizerConfig()) == (
        "60946e038002b0a2a430bed9ba92a9a1034eaf070c9a6ed9902de592fa35581e")


def test_config_roundtrip(tmp_path):
    cfg = PipelineConfig(workdir=str(tmp_path), seed=7, folds=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(str(path))
    assert loaded.config_hash() == cfg.config_hash()
    assert loaded.seed == 7 and loaded.folds == 3


def test_apply_overrides_nested():
    cfg = PipelineConfig()
    out = apply_overrides(cfg, ["model.d_h=16", "scenario.num_hosts=5"])
    assert out.model.d_h == 16
    assert out.scenario.num_hosts == 5
    with pytest.raises(ValidationError):
        apply_overrides(cfg, ["no_such_field=1"])
    with pytest.raises(ValidationError):
        apply_overrides(cfg, ["model.d_h"])  # missing '='


def test_config_validation():
    with pytest.raises(ValidationError):
        PipelineConfig(folds=0)
    with pytest.raises(ValidationError):
        load_config("/definitely/not/here.json")
