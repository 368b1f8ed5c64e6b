"""Graphs for tests: hand-written ones from `Edge` tuples, and generated ones."""
from aptstage.graphs import ProvenanceGraph, _RELATION_ORDER, _edge_columns, build_graph_sequence
from aptstage.telemetry import (
    WINDOW_SECONDS,
    ScenarioConfig,
    default_campaign_schedule,
    generate_scenario,
)


def make_graph(window_index, window_start, nodes, edges=()):
    """A `ProvenanceGraph` holding `nodes` and the `Edge`s `edges`, in the
    order given. Not validated."""
    rows = [(e.src, _RELATION_ORDER[e.relation], e.dst, e.timestamp, e.bytes, e.count) for e in edges]
    return ProvenanceGraph(window_index, window_start, tuple(nodes), **_edge_columns(rows))


def campaign_graphs(seed=0, windows=8):
    dur = windows * WINDOW_SECONDS
    cfg = ScenarioConfig(num_hosts=3, duration=dur,
                         stage_schedule=default_campaign_schedule(dur), seed=seed)
    events, alerts, _ = generate_scenario(cfg)
    return build_graph_sequence(events, alerts)


def dense_graphs():
    """Ten hosts at ten times the default event and alert rates."""
    dur = 3 * WINDOW_SECONDS
    cfg = ScenarioConfig(num_hosts=10, duration=dur, stage_schedule=default_campaign_schedule(dur),
                         benign_event_rate=0.5, attack_event_rate=2.0, seed=4)
    events, alerts, _ = generate_scenario(cfg)
    return build_graph_sequence(events, alerts)
