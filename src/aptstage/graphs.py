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
from functools import cached_property

import numpy as np

from .errors import GraphConsistencyError, ValidationError
from .telemetry.records import (
    WINDOW_SECONDS,
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
_RELATIONS = tuple(Relation)
# str enums: a member, its wire value and a same-valued member of another
# str enum (an EntityKind) are one dict key, here and in _RELATION_ORDER
_NODE_KINDS = {k: k for k in NodeKind}
_TRIGGERED_BY, _SELF_LOOP = _RELATION_ORDER[Relation.TRIGGERED_BY], _RELATION_ORDER[Relation.SELF_LOOP]

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


@dataclass(frozen=True, eq=False)
class ProvenanceGraph:
    """One window's graph, its edges held as read-only columns in canonical
    order: `edge_index` (3, M) int64 rows of relation id (`Relation` order),
    src and dst; `edge_time` float64; `edge_bytes` float64, NaN where the
    edge has no byte count (exact below 2**53); `edge_count` int64."""

    window_index: int
    window_start: float
    nodes: tuple
    edge_index: np.ndarray
    edge_time: np.ndarray
    edge_bytes: np.ndarray
    edge_count: np.ndarray

    def __post_init__(self):
        for column in (self.edge_index, self.edge_time, self.edge_bytes, self.edge_count):
            column.flags.writeable = False

    def _edge_rows(self):
        """(relation, src, dst, timestamp, bytes or None, count) per edge."""
        rel, src, dst = self.edge_index.tolist()
        return ((_RELATIONS[r], s, d, t, None if b != b else int(b), c)
                for r, s, d, t, b, c in zip(rel, src, dst, self.edge_time.tolist(),
                                            self.edge_bytes.tolist(), self.edge_count.tolist()))

    @cached_property
    def edges(self) -> tuple:
        """The edges as `Edge`s, derived from the columns on first use."""
        return tuple(Edge(*row) for row in self._edge_rows())

    def validate(self) -> None:
        n = len(self.nodes)
        if len({nd.key for nd in self.nodes}) != n:
            raise GraphConsistencyError("duplicate node keys")
        rel, src, dst = self.edge_index
        t, b = self.edge_time, self.edge_bytes
        lo, hi = self.window_start, self.window_start + WINDOW_SECONDS
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        alert = np.array([nd.kind is NodeKind.ALERT for nd in self.nodes] + [False])  # [n]: out of range
        checks = (
            (~inside, lambda j: f"edge endpoint out of range: {src[j]}->{dst[j]} with {n} nodes"),
            (self.edge_count < 1, lambda j: "edge count must be >= 1"),
            (b < 0, lambda j: f"edge bytes must be non-negative: {int(b[j])}"),
            (~((lo <= t) & (t < hi)), lambda j: f"edge timestamp {float(t[j])} outside [{lo}, {hi})"),
            ((rel == _TRIGGERED_BY) & ~alert[np.where(inside, src, n)],
             lambda j: "triggered_by edge must originate at an alert node"),
        )
        for mask, message in checks:
            if mask.any():
                raise GraphConsistencyError(message(mask.argmax()))

    def to_json_dict(self) -> dict:
        return {
            "window_index": self.window_index,
            "window_start": self.window_start,
            "nodes": [{"kind": nd.kind.value, "key": nd.key, "attrs": nd.attrs} for nd in self.nodes],
            "edges": [
                {"relation": r.value, "src": s, "dst": d, "timestamp": t, "bytes": b, "count": c}
                for r, s, d, t, b, c in self._edge_rows()
            ],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ProvenanceGraph":
        nodes = tuple(Node(kind=_NODE_KINDS[nd["kind"]], key=nd["key"], attrs=dict(nd.get("attrs", {})))
                      for nd in doc["nodes"])
        rows = [(e["src"], _RELATION_ORDER[e["relation"]], e["dst"], e["timestamp"], e.get("bytes"),
                 e.get("count", 1)) for e in doc["edges"]]
        g = ProvenanceGraph(int(doc["window_index"]), float(doc["window_start"]), nodes,
                            **_edge_columns(rows))
        g.validate()
        return g

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _edge_columns(rows) -> dict:
    """The `ProvenanceGraph` edge columns, by field name, of (src, relation
    id, dst, timestamp, bytes or None, count) rows, one edge per row."""
    src, rel, dst, ts, nbytes, count = zip(*rows) if rows else ((),) * 6
    return dict(edge_index=np.array([rel, src, dst], dtype=np.int64),
                edge_time=np.array(ts, dtype=float), edge_bytes=np.trunc(np.array(nbytes, dtype=float)),
                edge_count=np.array(count, dtype=np.int64))


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
    drafts: dict = {}

    def touch(kind: NodeKind, key: str, ts: float) -> _NodeDraft:
        d = drafts.get(key)
        if d is None:
            d = drafts[key] = _NodeDraft(kind, key, ts)
        else:
            # when one key is sighted under several entity kinds (payload.exe
            # as written file, then as running process) the node takes the
            # highest-precedence kind: the one declared first in NodeKind
            if _KIND_ORDER[kind] < _KIND_ORDER[d.kind]:
                d.kind = kind
            d.first_ts = min(d.first_ts, ts)
        return d

    # (src_key, relation, dst_key) -> [count, bytes_or_None, earliest_ts]
    agg: dict = {}
    # raw net sightings for alert attribution: (proc_key, remote_key, ts)
    net_sightings: list = []

    for ev in window.events:
        if not (lo <= ev.timestamp < hi):
            raise ValidationError(f"event at t={ev.timestamp} outside window [{lo}, {hi})")
        touch(NodeKind.HOST, ev.host_id, ev.timestamp)
        subj = touch(_NODE_KINDS[ev.subject.kind], ev.subject.key, ev.timestamp)
        obj = touch(_NODE_KINDS[ev.object.kind], ev.object.key, ev.timestamp)
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
        if not (lo <= al.timestamp < hi):
            raise ValidationError(f"alert at t={al.timestamp} outside window [{lo}, {hi})")
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

    # (src, relation id, dst, timestamp, bytes, count); (src, relation, dst)
    # is unique per row, so the sort never compares the later fields
    rows = [(index[sk], _RELATION_ORDER[rel], index[dk], ts, b, c)
            for (sk, rel, dk), (c, b, ts) in agg.items()]
    rows.extend((index[ad.key], _TRIGGERED_BY, index[tk], ts, None, 1) for ad, tk, ts in fusion_edges)
    rows.extend((i, _SELF_LOOP, i, d.first_ts, None, 1) for i, d in enumerate(order))
    rows.sort()
    g = ProvenanceGraph(window.index, window.start, nodes, **_edge_columns(rows))
    g.validate()
    return g


def build_graph_sequence(events, alerts):
    return [build_graph(w) for w in window_events(events, alerts)]


def dump_graphs_jsonl(graphs, fh) -> None:
    for g in graphs:
        fh.write(g.to_json())
        fh.write("\n")


def load_graphs_jsonl(fh):
    """Graphs from JSONL; a line that is not a valid graph raises
    `GraphConsistencyError` naming its 1-based line number."""
    graphs = []
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(ProvenanceGraph.from_json_dict(json.loads(line)))
        except (GraphConsistencyError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            # broken JSON is a ValueError; a missing field, kind or relation a KeyError
            raise GraphConsistencyError(f"line {line_no}: {type(exc).__name__}: {exc}") from None
    return graphs
