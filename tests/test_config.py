"""Config loading: one loader for every section, every rule checked when a
config dataclass is built."""
import dataclasses

import pytest

from aptstage.config import PipelineConfig, ScenarioSettings, from_dict
from aptstage.errors import ValidationError
from aptstage.features import FeaturizerConfig
from aptstage.model import ModelConfig
from aptstage.telemetry import ScenarioConfig, StageInterval
from aptstage.training import FinetuneConfig, PretrainConfig

# (config class, one bad field value, a pattern the error must match)
BROKEN_RULES = [
    (FeaturizerConfig, {"d_cmd": 0}, "d_cmd"),
    (ModelConfig, {"d_h": 0}, "d_h"),
    (ModelConfig, {"d_g": 0}, "d_g"),
    (ModelConfig, {"hidden": 0}, "hidden"),
    (ModelConfig, {"lstm_layers": 0}, "lstm_layers"),
    (ModelConfig, {"dropout": -0.1}, "dropout"),
    (ModelConfig, {"dropout": 1.0}, "dropout"),
    (ModelConfig, {"num_classes": 5}, "num_classes"),
    (ModelConfig, {"seed": -1}, "seed"),
    (PretrainConfig, {"tau": 0.0}, "tau"),
    (PretrainConfig, {"negatives": 0}, "negatives"),
    (PretrainConfig, {"seq_len": 1}, "seq_len"),
    (PretrainConfig, {"lr": -1e-3}, "lr"),
    (PretrainConfig, {"weight_decay": -1e-5}, "weight_decay"),
    (PretrainConfig, {"batch": 0}, "batch"),
    (PretrainConfig, {"epochs": 0}, "epochs"),
    (PretrainConfig, {"clip": 0.0}, "clip"),
    (PretrainConfig, {"seed": -1}, "seed"),
    (FinetuneConfig, {"phase1_epochs": 0}, "phase1_epochs"),
    (FinetuneConfig, {"phase2_epochs": 0}, "phase2_epochs"),
    (FinetuneConfig, {"curriculum_start": 0}, "curriculum"),
    (FinetuneConfig, {"curriculum_start": 31}, "curriculum"),
    (FinetuneConfig, {"patience": 0}, "patience"),
    (FinetuneConfig, {"val_fraction": 0.0}, "val_fraction"),
    (FinetuneConfig, {"val_fraction": 1.0}, "val_fraction"),
    (FinetuneConfig, {"phase1_lr": -1e-4}, "phase1_lr"),
    (FinetuneConfig, {"phase2_lr": -1e-4}, "phase2_lr"),
    (FinetuneConfig, {"weight_decay": -1e-5}, "weight_decay"),
    (FinetuneConfig, {"batch": 0}, "batch"),
    (FinetuneConfig, {"clip": 0.0}, "clip"),
    (FinetuneConfig, {"seed": -1}, "seed"),
    (ScenarioConfig, {"num_hosts": 0}, "num_hosts"),
    (ScenarioConfig, {"duration": 0.0}, "duration"),
    (ScenarioConfig, {"benign_event_rate": 0.0}, "benign_event_rate"),
    (ScenarioConfig, {"attack_event_rate": 0.0}, "attack_event_rate"),
    (ScenarioConfig, {"stage_schedule": [StageInterval(7, 0.0, 10.0)]}, "stage must be in 1..6"),
    (ScenarioConfig, {"stage_schedule": [StageInterval(1, 0.0, 9999.0)]}, "outside"),
    (ScenarioConfig, {"stage_schedule": [StageInterval(1, 0.0, 20.0),
                                         StageInterval(2, 10.0, 30.0)]}, "non-overlapping"),
    (ScenarioConfig, {"seed": -1}, "seed"),
    (ScenarioSettings, {"num_hosts": 0}, "num_hosts"),
    (ScenarioSettings, {"schedule": [["x", 0, 10]]}, "schedule entries"),
    (ScenarioSettings, {"schedule": [[1, 0]]}, "schedule entries"),
    (ScenarioSettings, {"schedule": [[7, 0, 10]]}, "stage must be in 1..6"),
    (PipelineConfig, {"folds": 1}, "folds"),
    (PipelineConfig, {"seed": -1}, "seed"),
    (ScenarioSettings, {"schedule": [[1.7, 0, 600]]}, "integer stage"),
    (ScenarioSettings, {"schedule": [[True, 0, 600]]}, "integer stage"),
    (ScenarioSettings, {"schedule": [[1, "0", 600]]}, "start and end must be numbers"),
    (ScenarioSettings, {"schedule": [[1, 0, True]]}, "start and end must be numbers"),
    (ModelConfig, {"gnn_layers": 0}, "gnn_layers"),
    (ModelConfig, {"gnn_layers": -2}, "gnn_layers"),
    (PretrainConfig, {"lambda_pred": -1.0}, "lambda_pred"),
    (PretrainConfig, {"lambda_ctr": -1.0}, "lambda_ctr"),
    (FinetuneConfig, {"eps": 0.0}, "eps"),
    (FinetuneConfig, {"eps": -1.0}, "eps"),
]


@pytest.mark.parametrize("cls,bad,pattern", BROKEN_RULES,
                         ids=[f"{c.__name__}-{next(iter(b))}-{i}"
                              for i, (c, b, _) in enumerate(BROKEN_RULES)])
def test_every_rule_is_checked_at_construction(cls, bad, pattern):
    with pytest.raises(ValidationError, match=pattern):
        cls(**bad)


def test_scenario_settings_with_an_explicit_schedule():
    settings = ScenarioSettings(duration=1800.0, schedule=[[1, 0, 600], [3, 900.0, 1500]])
    scen = settings.build(seed=4)
    assert scen.stage_schedule == [StageInterval(1, 0.0, 600.0), StageInterval(3, 900.0, 1500.0)]
    assert scen.seed == 4


def test_configs_are_frozen():
    cfg = PipelineConfig()
    for obj, name in ((cfg, "folds"), (cfg.scenario, "num_hosts"), (cfg.model, "d_h"),
                      (cfg.model.featurizer, "d_cmd"), (cfg.pretrain, "tau"),
                      (cfg.finetune, "clip"), (ScenarioConfig(), "seed")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)


def test_from_dict_builds_every_section():
    doc = {"seed": 3, "scenario": {"num_hosts": 2, "schedule": None},
           "model": {"d_h": 16, "featurizer": {"d_cmd": 8}},
           "pretrain": {"train_encoder": False, "lr": 1},  # an int is a float
           "finetune": {"batch": 4}}
    cfg = from_dict(PipelineConfig, doc)
    assert cfg.seed == 3 and cfg.scenario.num_hosts == 2
    assert cfg.model.d_h == 16 and cfg.model.featurizer.d_cmd == 8
    assert cfg.pretrain.train_encoder is False and cfg.pretrain.lr == 1
    assert cfg.finetune.batch == 4
    assert from_dict(PipelineConfig, {}) == PipelineConfig()
    assert from_dict(PipelineConfig, dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("doc,pattern", [
    ({"warp": 9}, r"unknown field\(s\) in config: warp"),
    ({"model": {"featurizer": {"d_cmd": 8, "width": 2}}}, r"in model\.featurizer: width"),
    ({"pretrain": []}, "pretrain must be a JSON object"),
    ({"model": {"featurizer": 8}}, "model.featurizer must be a JSON object"),
    ({"pretrain": {"epochs": "5"}}, "pretrain.epochs must be int"),
    ({"pretrain": {"epochs": 2.0}}, "pretrain.epochs must be int"),
    ({"finetune": {"batch": True}}, "finetune.batch must be int"),
    ({"pretrain": {"train_encoder": 1}}, "pretrain.train_encoder must be bool"),
    ({"scenario": {"duration": "long"}}, "scenario.duration must be float"),
    ({"scenario": {"schedule": "x"}}, "scenario.schedule must be"),
    ({"workdir": None}, "workdir must be str"),
    ({"model": {"dropout": 1.0}}, r"model: dropout must be in \[0, 1\)"),
    ({"model": {"featurizer": {"d_cmd": 0}}}, "model.featurizer: featurizer.d_cmd"),
])
def test_from_dict_names_the_section(doc, pattern):
    with pytest.raises(ValidationError, match=pattern):
        from_dict(PipelineConfig, doc)

