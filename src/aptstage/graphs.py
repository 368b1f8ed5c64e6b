"""Windowed provenance-graph construction with early fusion of network alerts.

Telemetry is segmented into contiguous 300 s half-open windows aligned to the
earliest record; each window becomes one immutable graph. Host events map to
typed edges between entity nodes; every alert becomes a first-class node wired
to the responsible process via a triggered_by edge.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .errors import GraphConsistencyError, ValidationError
from .telemetry.records import (
    WINDOW_SECONDS,
    EntityKind,
    EventKind,
    HostEvent,
    NetworkAlert,
    align_windows,
)


class NodeKind(str, Enum):
    PROCESS = "process"
    FILE = "file"
    SOCKET = "socket"
    USER = "user"
    HOST = "host"
    IP = "ip"
    ALERT = "alert"


class Relation(str, Enum):
    READ = "read"
    WRITE = "write"
    SPAWN = "spawn"
    EXEC = "exec"
    CONNECT = "connect"
    SEND = "send"
    RECV = "recv"
    REGISTRY_WRITE = "registry_write"
    TRIGGERED_BY = "triggered_by"
    SELF_LOOP = "self_loop"


NUM_RELATIONS = len(Relation)

_KIND_ORDER = {k: i for i, k in enumerate(NodeKind)}
_RELATION_ORDER = {r: i for i, r in enumerate(Relation)}

# when one key is sighted under several entity kinds (payload.exe as written
# file, then as running process) the node takes the highest-precedence kind
_KIND_PRECEDENCE = {
    NodeKind.PROCESS: 0,
    NodeKind.FILE: 1,
    NodeKind.SOCKET: 2,
    NodeKind.USER: 3,
    NodeKind.HOST: 4,
    NodeKind.IP: 5,
    NodeKind.ALERT: 6,
}

_EVENT_RELATION = {
    EventKind.PROCESS_CREATE: Relation.SPAWN,
    EventKind.FILE_CREATE: Relation.WRITE,
    EventKind.FILE_WRITE: Relation.WRITE,
    EventKind.FILE_READ: Relation.READ,
    EventKind.FILE_EXEC: Relation.EXEC,
    EventKind.NET_CONNECT: Relation.CONNECT,
    EventKind.NET_SEND: Relation.SEND,
    EventKind.NET_RECV: Relation.RECV,
    EventKind.REGISTRY_WRITE: Relation.REGISTRY_WRITE,
}

_NET_KINDS = {EventKind.NET_CONNECT, EventKind.NET_SEND, EventKind.NET_RECV}


@dataclass(frozen=True)
class Node:
    kind: NodeKind
    key: str
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    relation: Relation
    src: int
    dst: int
    timestamp: float
    bytes: int | None = None
    count: int = 1


@dataclass(frozen=True)
class ProvenanceGraph:
    window_index: int
    window_start: float
    nodes: tuple
    edges: tuple

    def validate(self) -> None:
        n = len(self.nodes)
        keys = [nd.key for nd in self.nodes]
        if len(set(keys)) != n:
            raise GraphConsistencyError("duplicate node keys")
        hi = self.window_start + WINDOW_SECONDS
        for e in self.edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise GraphConsistencyError(
                    f"edge endpoint out of range: {e.src}->{e.dst} with {n} nodes"
                )
            if e.count < 1:
                raise GraphConsistencyError("edge count must be >= 1")
            if e.bytes is not None and e.bytes < 0:
                raise GraphConsistencyError(f"edge bytes must be non-negative: {e.bytes}")
            if not (self.window_start <= e.timestamp < hi):
                raise GraphConsistencyError(
                    f"edge timestamp {e.timestamp} outside [{self.window_start}, {hi})"
                )
            if e.relation is Relation.TRIGGERED_BY and self.nodes[e.src].kind is not NodeKind.ALERT:
                raise GraphConsistencyError("triggered_by edge must originate at an alert node")

    def to_json_dict(self) -> dict:
        return {
            "window_index": self.window_index,
            "window_start": self.window_start,
            "nodes": [
                {"kind": nd.kind.value, "key": nd.key, "attrs": nd.attrs}
                for nd in self.nodes
            ],
            "edges": [
                {
                    "relation": e.relation.value,
                    "src": e.src,
                    "dst": e.dst,
                    "timestamp": e.timestamp,
                    "bytes": e.bytes,
                    "count": e.count,
                }
                for e in self.edges
            ],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ProvenanceGraph":
        nodes = tuple(
            Node(kind=NodeKind(nd["kind"]), key=nd["key"], attrs=dict(nd.get("attrs", {})))
            for nd in doc["nodes"]
        )
        edges = tuple(
            Edge(
                relation=Relation(e["relation"]),
                src=int(e["src"]),
                dst=int(e["dst"]),
                timestamp=float(e["timestamp"]),
                bytes=None if e.get("bytes") is None else int(e["bytes"]),
                count=int(e.get("count", 1)),
            )
            for e in doc["edges"]
        )
        g = ProvenanceGraph(
            window_index=int(doc["window_index"]),
            window_start=float(doc["window_start"]),
            nodes=nodes,
            edges=edges,
        )
        g.validate()
        return g

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def window_events(events, alerts):
    """Partition both streams into the windows of `align_windows`. Empty
    interior windows are retained so window indices stay time-aligned for
    the sequence model."""
    stamps = [e.timestamp for e in events] + [a.timestamp for a in alerts]
    t0, n, idx = align_windows(stamps, stamps)
    out = [([], []) for _ in range(n)]
    for ev, i in zip(events, idx):
        out[i][0].append(ev)
    for al, i in zip(alerts, idx[len(events):]):
        out[i][1].append(al)
    return [WindowSlice(i, t0 + i * WINDOW_SECONDS, evs, als) for i, (evs, als) in enumerate(out)]


@dataclass(frozen=True)
class WindowSlice:
    index: int
    start: float
    events: list
    alerts: list


class _NodeDraft:
    __slots__ = ("kind", "key", "first_ts", "commands", "users", "extra")

    def __init__(self, kind: NodeKind, key: str, ts: float):
        self.kind = kind
        self.key = key
        self.first_ts = ts
        self.commands: set = set()
        self.users: set = set()
        self.extra: dict = {}

    def merge_kind(self, kind: NodeKind) -> None:
        if _KIND_PRECEDENCE[kind] < _KIND_PRECEDENCE[self.kind]:
            self.kind = kind

    def attrs(self) -> dict:
        a = dict(self.extra)
        a["first_ts"] = self.first_ts
        if self.commands:
            a["commands"] = sorted(self.commands)
        if self.users:
            a["users"] = sorted(self.users)
        return a


def external_endpoint(alert: NetworkAlert, host_keys) -> tuple:
    """(ip, port, outbound) for the endpoint not belonging to a monitored host."""
    if alert.dst_ip in host_keys and alert.src_ip not in host_keys:
        return alert.src_ip, alert.src_port, False
    return alert.dst_ip, alert.dst_port, True


def _sighting_tables(net_sightings):
    """Index a window's network sightings (proc_key, remote_key, ts) for
    alert attribution. `exact` maps each remote key, `loose` the remote key
    and every prefix ending before one of its colons (the ips it matches as
    `remote == ip or remote.startswith(ip + ":")`), to (sorted distinct
    sighting times, smallest process key sighted at each time)."""
    exact: dict = {}
    loose: dict = {}
    for proc, remote, ts in net_sightings:
        exact.setdefault(remote, []).append((ts, proc))
        end = len(remote)
        while end >= 0:
            loose.setdefault(remote[:end], []).append((ts, proc))
            end = remote.rfind(":", 0, end)
    for table in (exact, loose):
        for key, pairs in table.items():
            pairs.sort()  # by time, then process key: each time's first pair wins
            times, procs = [], []
            for ts, proc in pairs:
                if not times or ts != times[-1]:
                    times.append(ts)
                    procs.append(proc)
            table[key] = (times, procs)
    return exact, loose


def _latest_sighting(table: dict, key: str, ts: float):
    """Process key of the latest sighting under `key` at or before `ts`
    (ties to the smallest process key), or None."""
    entry = table.get(key)
    if entry is None:
        return None
    times, procs = entry
    i = bisect_right(times, ts)
    return procs[i - 1] if i else None


def build_graph(window: WindowSlice) -> ProvenanceGraph:
    """Construct the fused provenance graph for one window. Pure and
    deterministic: canonical node order is (kind, key), canonical edge order
    is (src, relation, dst) after node indexing."""
    lo, hi = window.start, window.start + WINDOW_SECONDS
    for ev in window.events:
        if not (lo <= ev.timestamp < hi):
            raise ValidationError(f"event at t={ev.timestamp} outside window [{lo}, {hi})")
    for al in window.alerts:
        if not (lo <= al.timestamp < hi):
            raise ValidationError(f"alert at t={al.timestamp} outside window [{lo}, {hi})")

    drafts: dict = {}

    def touch(kind: NodeKind, key: str, ts: float) -> _NodeDraft:
        d = drafts.get(key)
        if d is None:
            d = _NodeDraft(kind, key, ts)
            drafts[key] = d
        else:
            d.merge_kind(kind)
            d.first_ts = min(d.first_ts, ts)
        return d

    # (src_key, relation, dst_key) -> [count, bytes_or_None, earliest_ts]
    agg: dict = {}
    # raw net sightings for alert attribution: (proc_key, remote_key, ts)
    net_sightings: list = []

    for ev in window.events:
        touch(NodeKind.HOST, ev.host_id, ev.timestamp)
        subj = touch(NodeKind(ev.subject.kind.value), ev.subject.key, ev.timestamp)
        obj = touch(NodeKind(ev.object.kind.value), ev.object.key, ev.timestamp)
        if ev.user is not None:
            subj.users.add(ev.user)
        if ev.command is not None:
            cmd_holder = obj if ev.event_kind is EventKind.PROCESS_CREATE else subj
            cmd_holder.commands.add(ev.command)
        rel = _EVENT_RELATION[ev.event_kind]
        if rel is Relation.SPAWN and ev.subject.key == ev.object.key:
            rel = Relation.EXEC  # standalone start without a distinct parent
        k = (ev.subject.key, rel, ev.object.key)
        slot = agg.get(k)
        if slot is None:
            agg[k] = [1, ev.bytes, ev.timestamp]
        else:
            slot[0] += 1
            if ev.bytes is not None:
                slot[1] = ev.bytes if slot[1] is None else slot[1] + ev.bytes
            slot[2] = min(slot[2], ev.timestamp)
        if ev.event_kind in _NET_KINDS:
            net_sightings.append((ev.subject.key, ev.object.key, ev.timestamp))

    host_keys = {k for k, d in drafts.items() if d.kind is NodeKind.HOST}

    # early fusion: alert node + external ip node + triggered_by attribution
    fusion_edges: list = []  # (alert draft, target_key, ts)
    exact, loose = _sighting_tables(net_sightings) if window.alerts else ({}, {})
    for ordinal, al in enumerate(window.alerts):
        ext_ip, ext_port, outbound = external_endpoint(al, host_keys)
        ad = _NodeDraft(NodeKind.ALERT, f"alert:{ordinal}:{al.signature}", al.timestamp)
        ad.extra.update(
            signature=al.signature,
            severity=al.severity,
            protocol=al.protocol.value,
            category=al.category,
            src_ip=al.src_ip,
            src_port=al.src_port,
            dst_ip=al.dst_ip,
            dst_port=al.dst_port,
            external_ip=ext_ip,
            external_port=ext_port,
            outbound=outbound,
        )
        touch(NodeKind.IP, ext_ip, al.timestamp)

        target = _latest_sighting(exact, f"{ext_ip}:{ext_port}", al.timestamp)
        if target is None:
            target = _latest_sighting(loose, ext_ip, al.timestamp)
        if target is None and host_keys:
            target = al.src_ip if al.src_ip in host_keys else min(host_keys)
        elif target is None:
            target = ext_ip
        fusion_edges.append((ad, target, al.timestamp))
    # alert nodes join last, each under a key that no entity node holds
    for ad, _, _ in fusion_edges:
        while ad.key in drafts:
            ad.key += "'"
        drafts[ad.key] = ad

    order = sorted(drafts.values(), key=lambda d: (_KIND_ORDER[d.kind], d.key))
    index = {d.key: i for i, d in enumerate(order)}
    nodes = tuple(Node(kind=d.kind, key=d.key, attrs=d.attrs()) for d in order)

    edges = [
        Edge(relation=rel, src=index[sk], dst=index[dk],
             timestamp=ts, bytes=b, count=c)
        for (sk, rel, dk), (c, b, ts) in agg.items()
    ]
    edges.extend(
        Edge(relation=Relation.TRIGGERED_BY, src=index[ad.key], dst=index[tk], timestamp=ts)
        for ad, tk, ts in fusion_edges
    )
    edges.extend(
        Edge(relation=Relation.SELF_LOOP, src=i, dst=i, timestamp=d.first_ts)
        for i, d in enumerate(order)
    )
    edges.sort(key=lambda e: (e.src, _RELATION_ORDER[e.relation], e.dst))

    g = ProvenanceGraph(
        window_index=window.index,
        window_start=window.start,
        nodes=nodes,
        edges=tuple(edges),
    )
    g.validate()
    return g


def build_graph_sequence(events, alerts):
    return [build_graph(w) for w in window_events(events, alerts)]


def dump_graphs_jsonl(graphs, fh) -> None:
    for g in graphs:
        fh.write(g.to_json())
        fh.write("\n")


def load_graphs_jsonl(fh):
    graphs = []
    for line in fh:
        line = line.strip()
        if line:
            graphs.append(ProvenanceGraph.from_json_dict(json.loads(line)))
    return graphs
