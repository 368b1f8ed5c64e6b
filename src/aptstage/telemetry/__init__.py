from .records import (
    WINDOW_SECONDS,
    EntityKind,
    EntityRef,
    EventKind,
    EventTable,
    HostEvent,
    NetworkAlert,
    Protocol,
    dump_jsonl,
    parse_alerts,
    parse_host_events,
)
from .scenario import (
    ScenarioConfig,
    StageInterval,
    default_campaign_schedule,
    generate_scenario,
    window_labels,
)

__all__ = [
    "WINDOW_SECONDS",
    "EntityKind",
    "EntityRef",
    "EventKind",
    "EventTable",
    "HostEvent",
    "NetworkAlert",
    "Protocol",
    "dump_jsonl",
    "parse_alerts",
    "parse_host_events",
    "ScenarioConfig",
    "StageInterval",
    "default_campaign_schedule",
    "generate_scenario",
    "window_labels",
]
