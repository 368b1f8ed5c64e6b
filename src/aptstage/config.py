"""Declarative pipeline configuration.

One JSON document controls every stage, loaded by `from_dict`; every config
dataclass is frozen and checks its values when it is built. The config hash
covers everything except filesystem paths, so artifacts can be relocated but
any parameter change is detected; each artifact records the hash that
produced it and stages refuse mismatched upstream artifacts.
"""
from __future__ import annotations

import hashlib
import json
import operator
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ValidationError
from .model import ModelConfig
from .telemetry import WINDOW_SECONDS, ScenarioConfig, StageInterval, default_campaign_schedule
from .training import FinetuneConfig, PretrainConfig

CONFIG_VERSION = 1


def _stage_interval(entry) -> StageInterval:
    k, start, end = entry
    if isinstance(k, bool):
        raise TypeError(f"stage {k!r} is a bool")
    for bound in (start, end):
        if not _accepts(float, bound):
            raise TypeError(f"start and end must be numbers, got {bound!r}")
    return StageInterval(operator.index(k), float(start), float(end))  # refuses 1.7 and "1"


@dataclass(frozen=True)
class ScenarioSettings:
    num_hosts: int = 3
    duration: float = 12 * WINDOW_SECONDS
    benign_event_rate: float = 0.05
    attack_event_rate: float = 0.2
    schedule: list | None = None  # [[stage, start, end], ...]; None → default campaign

    def __post_init__(self):
        self.build(seed=0)  # the ScenarioConfig checks the settings and the schedule

    def build(self, seed: int) -> ScenarioConfig:
        if self.schedule is None:
            schedule = default_campaign_schedule(self.duration)
        else:
            try:
                schedule = [_stage_interval(entry) for entry in self.schedule]
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"schedule entries must be [integer stage, start, end]: {exc}") from None
        return ScenarioConfig(
            num_hosts=self.num_hosts,
            duration=self.duration,
            stage_schedule=schedule,
            benign_event_rate=self.benign_event_rate,
            attack_event_rate=self.attack_event_rate,
            seed=seed,
        )


@dataclass(frozen=True)
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
        if self.folds < 2:
            raise ValidationError("folds must be >= 2: one fold leaves no training data")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    def to_dict(self) -> dict:
        return {"version": CONFIG_VERSION, **asdict(self)}

    def config_hash(self) -> str:
        doc = self.to_dict()
        for name in self.PATH_FIELDS:
            doc.pop(name, None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _accepts(hint, value) -> bool:
    """Whether a JSON value fits a type hint; a float takes an int, only a bool a bool."""
    members = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in members
    return isinstance(value, tuple((int, float) if m is float else m for m in members))


def from_dict(cls, doc, section: str = ""):
    """Build the config dataclass `cls` from its JSON object, recursing into
    every field whose default factory is a config dataclass. Unknown keys,
    non-object sections and wrong-typed values raise a ValidationError that
    names the section; `cls` checks the values themselves as it is built."""
    where = section or "config"
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {doc!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(declared))
    if unknown:
        raise ValidationError(f"unknown field(s) in {where}: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, value in doc.items():
        path = f"{section}.{name}" if section else name
        if is_dataclass(declared[name].default_factory):
            value = from_dict(declared[name].default_factory, value, path)
        elif not _accepts(hints[name], value):
            kind = getattr(hints[name], "__name__", hints[name])
            raise ValidationError(f"{path} must be {kind}, got {value!r}")
        values[name] = value
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{section}: {exc}" if section else str(exc)) from None


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
    version = doc.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValidationError(f"unsupported config version {version}")
    return from_dict(PipelineConfig, doc)


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings allowed without quotes


def apply_overrides(cfg: PipelineConfig, overrides) -> PipelineConfig:
    """Apply `key.path=value` overrides on top of a config (value parsed as
    JSON, falling back to a plain string)."""
    doc = asdict(cfg)
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
    return from_dict(PipelineConfig, doc)
