"""Graphs and host events for tests: hand-written graphs from `Edge` tuples,
hand-written host events as an `EventTable`, and generated corpora."""
import json

from aptstage.graphs import ProvenanceGraph, _RELATION_ORDER, _edge_columns, build_graph_sequence
from aptstage.telemetry import (
    WINDOW_SECONDS,
    ScenarioConfig,
    default_campaign_schedule,
    generate_scenario,
    parse_host_events,
)


def make_graph(window_index, window_start, nodes, edges=()):
    """A `ProvenanceGraph` holding `nodes` and the `Edge`s `edges`, in the
    order given. Not validated."""
    rows = [(e.src, _RELATION_ORDER[e.relation], e.dst, e.timestamp, e.bytes, e.count) for e in edges]
    return ProvenanceGraph(window_index, window_start, tuple(nodes), **_edge_columns(rows))


def event_table(events):
    """The `EventTable` of hand-built `HostEvent`s: each is written as its
    wire record and read back by `parse_host_events`, so that test events
    pass the checks that every host event passes."""
    def record(e):
        rec = {"ts": e.timestamp, "host": e.host_id, "kind": e.event_kind.value,
               "subj_kind": e.subject.kind.value, "subj_key": e.subject.key,
               "obj_kind": e.object.kind.value, "obj_key": e.object.key}
        optional = {"cmd": e.command, "user": e.user, "bytes": e.bytes}
        return json.dumps({**rec, **{k: v for k, v in optional.items() if v is not None}})
    return parse_host_events([record(e) for e in events])


def campaign_scenario(seed=0, windows=8):
    """(events, alerts, labels) of a full campaign on three hosts."""
    dur = windows * WINDOW_SECONDS
    return generate_scenario(ScenarioConfig(num_hosts=3, duration=dur,
                                            stage_schedule=default_campaign_schedule(dur), seed=seed))


def dense_scenario():
    """Ten hosts at ten times the default event and alert rates."""
    dur = 3 * WINDOW_SECONDS
    return generate_scenario(ScenarioConfig(num_hosts=10, duration=dur,
                                            stage_schedule=default_campaign_schedule(dur),
                                            benign_event_rate=0.5, attack_event_rate=2.0, seed=4))


def campaign_graphs(seed=0, windows=8):
    events, alerts, _ = campaign_scenario(seed, windows)
    return build_graph_sequence(events, alerts)


def dense_graphs():
    events, alerts, _ = dense_scenario()
    return build_graph_sequence(events, alerts)
