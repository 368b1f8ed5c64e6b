"""Declarative pipeline configuration.

One JSON document controls every stage. The config hash covers everything
except filesystem paths, so artifacts can be relocated but any parameter
change is detected; each artifact records the hash that produced it and
stages refuse mismatched upstream artifacts.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import ValidationError
from .model import ModelConfig
from .telemetry import WINDOW_SECONDS, ScenarioConfig, StageInterval, default_campaign_schedule
from .training import FinetuneConfig, PretrainConfig

CONFIG_VERSION = 1


@dataclass
class ScenarioSettings:
    num_hosts: int = 3
    duration: float = 12 * WINDOW_SECONDS
    benign_event_rate: float = 0.05
    attack_event_rate: float = 0.2
    schedule: list | None = None  # [[stage, start, end], ...]; None → default campaign

    def build(self, seed: int) -> ScenarioConfig:
        if self.schedule is None:
            schedule = default_campaign_schedule(self.duration)
        else:
            schedule = [StageInterval(int(k), float(a), float(b)) for k, a, b in self.schedule]
        return ScenarioConfig(
            num_hosts=self.num_hosts,
            duration=self.duration,
            stage_schedule=schedule,
            benign_event_rate=self.benign_event_rate,
            attack_event_rate=self.attack_event_rate,
            seed=seed,
        )


@dataclass
class PipelineConfig:
    workdir: str = "artifacts"
    events: str | None = None
    alerts: str | None = None
    labels: str | None = None
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    folds: int = 5
    seed: int = 0

    PATH_FIELDS = ("workdir", "events", "alerts", "labels")

    def __post_init__(self):
        if self.folds < 1:
            raise ValidationError("folds must be >= 1")
        for name in ("d_h", "d_g", "hidden"):
            if getattr(self.model, name) < 1:
                raise ValidationError(f"model.{name} must be positive")

    # derived artifact paths
    def path(self, name: str) -> str:
        explicit = {
            "events.jsonl": self.events,
            "alerts.jsonl": self.alerts,
            "labels.csv": self.labels,
        }.get(name)
        return explicit if explicit else os.path.join(self.workdir, name)

    def to_dict(self) -> dict:
        return {"version": CONFIG_VERSION, **asdict(self)}

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        doc = dict(doc)
        version = doc.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValidationError(f"unsupported config version {version}")
        try:
            scenario = ScenarioSettings(**doc.pop("scenario", {}))
            model = ModelConfig.from_dict(doc.pop("model", {}))
            pretrain = PretrainConfig(**doc.pop("pretrain", {}))
            finetune = FinetuneConfig(**doc.pop("finetune", {}))
            return PipelineConfig(scenario=scenario, model=model, pretrain=pretrain,
                                  finetune=finetune, **doc)
        except TypeError as exc:
            raise ValidationError(f"bad config field: {exc}") from exc

    def config_hash(self) -> str:
        doc = self.to_dict()
        for name in self.PATH_FIELDS:
            doc.pop(name, None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config root must be a JSON object")
    return PipelineConfig.from_dict(doc)


def save_config(cfg: PipelineConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings allowed without quotes


def apply_overrides(cfg: PipelineConfig, overrides) -> PipelineConfig:
    """Apply `key.path=value` overrides on top of a config (value parsed as
    JSON, falling back to a plain string)."""
    doc = cfg.to_dict()
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override must look like key.path=value: {item!r}")
        key, raw = item.split("=", 1)
        parts = key.strip().split(".")
        node = doc
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                raise ValidationError(f"unknown config section {part!r} in {key!r}")
            node = nxt
        if parts[-1] not in node:
            raise ValidationError(f"unknown config field {key!r}")
        node[parts[-1]] = _parse_override_value(raw)
    return PipelineConfig.from_dict(doc)
