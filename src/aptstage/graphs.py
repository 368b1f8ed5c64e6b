"""Windowed provenance-graph construction with early fusion of network alerts.

Telemetry is segmented into contiguous 300 s half-open windows aligned to the
earliest record; each window becomes one immutable graph. Host events map to
typed edges between entity nodes; every alert becomes a first-class node wired
to the responsible process via a triggered_by edge.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import GraphConsistencyError, ValidationError
from .telemetry.records import (
    ENTITY_KINDS,
    EVENT_KINDS,
    WINDOW_SECONDS,
    EventKind,
    EventTable,
    NetworkAlert,
    _INTEGER,
    _NUMBER,
    _PROTOCOLS,
    _TEXT,
    _check_types,
    _lookup,
    _required,
    align_windows,
    check_alert_ranges,
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
_RELATION_VALUES = tuple(r.value for r in Relation)
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

# by `EventTable` id: an event kind's relation id and whether it is a network
# sighting, an entity kind's `NodeKind` order
_EVENT_RELATION_ID = np.array([_RELATION_ORDER[_EVENT_RELATION[k]] for k in EVENT_KINDS])
_NET_EVENT = np.array([k in _NET_KINDS for k in EVENT_KINDS])
_ENTITY_NODE_KIND = np.array([_KIND_ORDER[_NODE_KINDS[k]] for k in ENTITY_KINDS])
_NODE_KIND_OF = tuple(NodeKind)  # `NodeKind` order -> member
_PROCESS_CREATE = EVENT_KINDS.index(EventKind.PROCESS_CREATE)
_SPAWN, _EXEC = _RELATION_ORDER[Relation.SPAWN], _RELATION_ORDER[Relation.EXEC]


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

    def _edge_lists(self):
        """(relation id, src, dst, timestamp, bytes or NaN, count) per edge."""
        return zip(*self.edge_index.tolist(), self.edge_time.tolist(), self.edge_bytes.tolist(),
                   self.edge_count.tolist())

    @cached_property
    def edges(self) -> tuple:
        """The edges as `Edge`s, derived from the columns on first use."""
        return tuple(Edge(_RELATIONS[r], s, d, t, None if b != b else int(b), c)
                     for r, s, d, t, b, c in self._edge_lists())

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
                {"relation": _RELATION_VALUES[r], "src": s, "dst": d, "timestamp": t,
                 "bytes": None if b != b else int(b), "count": c}
                for r, s, d, t, b, c in self._edge_lists()
            ],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ProvenanceGraph":
        index, start = doc["window_index"], doc["window_start"]
        _check_types("window_index", (index,), _INTEGER)
        _check_types("window_start", (start,), _NUMBER)
        nodes = _nodes_from_json(doc["nodes"], float(start))
        rows = [(e["src"], _RELATION_ORDER[e["relation"]], e["dst"], e["timestamp"], e.get("bytes"),
                 e.get("count", 1)) for e in doc["edges"]]
        g = ProvenanceGraph(index, float(start), nodes, **_edge_columns(rows))
        g.validate()
        return g

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# what featurization reads of an alert node, by the JSON types it may hold
_ALERT_ATTRS = (("signature", _TEXT), ("protocol", _TEXT), ("category", _TEXT), ("external_ip", _TEXT),
                ("severity", _NUMBER), ("external_port", _NUMBER), ("outbound", ({bool}, "a bool")))
# `commands` and `users`: the list, then each of its items
_TEXT_LIST, _TEXT_ITEM = ({list}, "a list of strings"), ({str}, "a list of strings")


def _nodes_from_json(docs, window_start: float) -> tuple:
    """A graph's nodes from their JSON, refusing what featurization cannot
    read: a key that is not a string, a `first_ts` that is not a finite
    number inside the window, `commands` or `users` that are not lists of
    strings, and an alert node whose attributes lack the types, ranges and
    protocols `build_graph` gives them."""
    nodes = tuple(Node(kind=_NODE_KINDS[nd["kind"]], key=nd["key"], attrs=dict(nd.get("attrs", {})))
                  for nd in docs)
    attrs = [nd.attrs for nd in nodes]
    _check_types("key", [nd.key for nd in nodes], _TEXT)
    (first_ts,) = _required(attrs, ("first_ts",))
    _check_types("first_ts", first_ts, _NUMBER)
    if not all(map(math.isfinite, first_ts)):
        bad = next(t for t in first_ts if not math.isfinite(t))
        raise ValidationError(f"first_ts must be finite: {bad}")
    hi = window_start + WINDOW_SECONDS
    outside = [t for t in first_ts if not window_start <= t < hi]
    if outside:
        raise ValidationError(f"first_ts {outside[0]} outside [{window_start}, {hi})")
    for name in ("commands", "users"):
        lists = [a[name] for a in attrs if name in a]
        _check_types(name, lists, _TEXT_LIST)
        _check_types(name, list(chain.from_iterable(lists)), _TEXT_ITEM)
    alerts = [a for nd, a in zip(nodes, attrs) if nd.kind is NodeKind.ALERT]
    for (name, rule), column in zip(_ALERT_ATTRS, _required(alerts, tuple(n for n, _ in _ALERT_ATTRS))):
        _check_types(name, column, rule)
    _lookup(_PROTOCOLS, [a["protocol"] for a in alerts], "protocol")
    for a in alerts:
        check_alert_ranges(a["severity"], (("external_port", a["external_port"]),))
    return nodes


def _edge_columns(rows) -> dict:
    """The `ProvenanceGraph` edge columns, by field name, of (src, relation
    id, dst, timestamp, bytes or None, count) rows, one edge per row."""
    src, rel, dst, ts, nbytes, count = zip(*rows) if rows else ((),) * 6
    return dict(edge_index=np.array([rel, src, dst], dtype=np.int64),
                edge_time=np.array(ts, dtype=float), edge_bytes=np.trunc(np.array(nbytes, dtype=float)),
                edge_count=np.array(count, dtype=np.int64))


def window_events(events: EventTable, alerts):
    """Partition both streams into the windows of `align_windows`. The host
    events, an `EventTable`, are split at the window boundaries; each
    window's alerts keep their input order. Empty interior windows are
    retained so window indices stay time-aligned for the sequence model."""
    stamps = np.concatenate([events.ts, [a.timestamp for a in alerts]])
    t0, n, idx = align_windows(stamps, stamps)
    cuts = np.searchsorted(idx[:len(events)], np.arange(n + 1)).tolist()
    out = [[] for _ in range(n)]
    for al, i in zip(alerts, idx[len(events):].tolist()):
        out[i].append(al)
    return [WindowSlice(i, t0 + i * WINDOW_SECONDS, events[cuts[i]:cuts[i + 1]], als)
            for i, als in enumerate(out)]


@dataclass(frozen=True)
class WindowSlice:
    """One window's host events, an `EventTable`, and its alerts."""

    index: int
    start: float
    events: EventTable
    alerts: list


def external_endpoint(alert: NetworkAlert, host_keys) -> tuple:
    """(ip, port, outbound) for the endpoint not belonging to a monitored host."""
    if alert.dst_ip in host_keys and alert.src_ip not in host_keys:
        return alert.src_ip, alert.src_port, False
    return alert.dst_ip, alert.dst_port, True


def _sighting_tables(keys, proc, remote, ts, lookups):
    """Index a window's network sightings for alert attribution, under only
    the keys that its alerts look up. `proc`, `remote` and `ts` are each
    sighting's process and remote ids into `keys` and its time; `lookups`
    holds each alert's (ip, port). `exact` maps "ip:port", `loose` maps ip
    (matching a remote key r as `r == ip or r.startswith(ip + ":")`), to
    (sorted distinct sighting times, smallest process key sighted at each
    time)."""
    exact = {f"{ip}:{port}": [] for ip, port in lookups}
    loose = {ip: [] for ip, _ in lookups}
    joins = {}  # remote id -> the lists its sightings join
    for r in np.unique(remote).tolist():
        key = keys[r]
        lists = [exact[key]] if key in exact else []
        end = len(key)
        while end >= 0:  # the key, then each prefix ending before one of its colons
            if key[:end] in loose:
                lists.append(loose[key[:end]])
            end = key.rfind(":", 0, end)
        if lists:
            joins[r] = lists
    seen = np.isin(remote, list(joins))
    for p, r, t in zip(proc[seen].tolist(), remote[seen].tolist(), ts[seen].tolist()):
        for pairs in joins[r]:
            pairs.append((t, keys[p]))
    for table in (exact, loose):
        for key, pairs in table.items():
            pairs.sort()  # by time, then process key: each time's first pair wins
            times, procs = [], []
            for t, p in pairs:
                if not times or t != times[-1]:
                    times.append(t)
                    procs.append(p)
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
    ev = window.events
    ts, n_ev = ev.ts, len(ev)
    outside = ~((lo <= ts) & (ts < hi))
    if outside.any():
        raise ValidationError(f"event at t={float(ts[outside.argmax()])} outside window [{lo}, {hi})")

    # Every event sights its host, subject and object. One node per key:
    # when a key is sighted under several entity kinds (payload.exe as
    # written file, then as running process) the node takes the
    # highest-precedence kind, the one declared first in NodeKind, and the
    # earliest sighting's time.
    ids, local = np.unique(np.concatenate([ev.host, ev.subj, ev.obj]), return_inverse=True)
    kind = np.full(len(ids), _KIND_ORDER[NodeKind.ALERT])
    np.minimum.at(kind, local, np.concatenate([np.full(n_ev, _KIND_ORDER[NodeKind.HOST]),
                                               _ENTITY_NODE_KIND[ev.subj_kind],
                                               _ENTITY_NODE_KIND[ev.obj_kind]]))
    first = np.full(len(ids), np.inf)
    np.minimum.at(first, local, np.tile(ts, 3))
    subj, obj = local[n_ev:2 * n_ev], local[2 * n_ev:]
    keys, kinds = [ev.strings[i] for i in ids.tolist()], kind.tolist()
    attrs = [{"first_ts": t} for t in first.tolist()]
    # a ProcessCreate's command belongs to the process it starts
    for name, holder, sid in (("commands", np.where(ev.kind == _PROCESS_CREATE, obj, subj), ev.cmd),
                              ("users", subj, ev.user)):
        present = sid >= 0
        for i, value in sorted({(i, ev.strings[s]) for i, s in zip(holder[present].tolist(),
                                                                     sid[present].tolist())}):
            attrs[i].setdefault(name, []).append(value)
    host_keys = {k for k, c in zip(keys, kinds) if c == _KIND_ORDER[NodeKind.HOST]}

    # early fusion: alert node + external ip node + triggered_by attribution
    position = dict(zip(keys, range(len(keys))))
    fusion: list = []  # (alert key, target key, alert attrs)
    endpoints = [external_endpoint(al, host_keys) for al in window.alerts]
    if window.alerts:
        net = _NET_EVENT[ev.kind]
        exact, loose = _sighting_tables(keys, subj[net], obj[net], ts[net],
                                        [(ip, port) for ip, port, _ in endpoints])
    for ordinal, (al, (ext_ip, ext_port, outbound)) in enumerate(zip(window.alerts, endpoints)):
        if not (lo <= al.timestamp < hi):
            raise ValidationError(f"alert at t={al.timestamp} outside window [{lo}, {hi})")
        j = position.setdefault(ext_ip, len(keys))
        if j == len(keys):
            keys.append(ext_ip)
            kinds.append(_KIND_ORDER[NodeKind.IP])
            attrs.append({"first_ts": al.timestamp})
        else:
            kinds[j] = min(kinds[j], _KIND_ORDER[NodeKind.IP])
            attrs[j]["first_ts"] = min(attrs[j]["first_ts"], al.timestamp)

        target = _latest_sighting(exact, f"{ext_ip}:{ext_port}", al.timestamp)
        if target is None:
            target = _latest_sighting(loose, ext_ip, al.timestamp)
        if target is None and host_keys:
            target = al.src_ip if al.src_ip in host_keys else min(host_keys)
        elif target is None:
            target = ext_ip
        fusion.append((f"alert:{ordinal}:{al.signature}", target, dict(
            signature=al.signature, severity=al.severity, protocol=al.protocol.value,
            category=al.category, src_ip=al.src_ip, src_port=al.src_port, dst_ip=al.dst_ip,
            dst_port=al.dst_port, external_ip=ext_ip, external_port=ext_port, outbound=outbound,
            first_ts=al.timestamp)))
    # alert nodes join last, each under a key that no entity node holds; the
    # rows beyond the events are one triggered_by per alert and one self
    # loop per node: (src, relation, dst, ts)
    more = []
    for key, target, alert_attrs in fusion:
        while key in position:
            key += "'"
        more.append((len(keys), _TRIGGERED_BY, position[target], alert_attrs["first_ts"]))
        position[key] = len(keys)
        keys.append(key)
        kinds.append(_KIND_ORDER[NodeKind.ALERT])
        attrs.append(alert_attrs)
    more.extend((i, _SELF_LOOP, i, a["first_ts"]) for i, a in enumerate(attrs))

    order = sorted(range(len(keys)), key=lambda i: (kinds[i], keys[i]))
    nodes = tuple(Node(kind=_NODE_KIND_OF[kinds[i]], key=keys[i], attrs=attrs[i]) for i in order)
    n = len(nodes)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    # One edge per distinct (src, relation, dst) of the rows, in canonical
    # order: count, bytes summed over the rows that have them (NaN if none
    # does) and the earliest time.
    more = np.array(more, dtype=float).reshape(-1, 4)
    more_src, more_rel, more_dst = more[:, :3].T.astype(np.int64)
    rel = _EVENT_RELATION_ID[ev.kind]
    rel = np.where((rel == _SPAWN) & (ev.subj == ev.obj), _EXEC, rel)  # start without a distinct parent
    src, dst = rank[np.concatenate([subj, more_src])], rank[np.concatenate([obj, more_dst])]
    rel = np.concatenate([rel, more_rel])
    row_ts = np.concatenate([ts, more[:, 3]])
    row_bytes = np.concatenate([ev.nbytes, np.full(len(more), np.nan)])
    code, group, count = np.unique((src * NUM_RELATIONS + rel) * n + dst, return_inverse=True,
                                   return_counts=True)
    edge_time = np.full(len(code), np.inf)
    np.minimum.at(edge_time, group, row_ts)
    has = row_bytes == row_bytes
    total = np.bincount(group, weights=np.where(has, row_bytes, 0.0), minlength=len(code))
    edge_bytes = np.where(np.bincount(group, weights=has, minlength=len(code)) > 0, total, np.nan)
    src, rest = np.divmod(code, NUM_RELATIONS * n)
    rel, dst = np.divmod(rest, n)
    g = ProvenanceGraph(window.index, window.start, nodes, edge_index=np.stack([rel, src, dst]),
                        edge_time=edge_time, edge_bytes=edge_bytes, edge_count=count.astype(np.int64))
    g.validate()
    return g


def build_graph_sequence(events: EventTable, alerts):
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
        except (GraphConsistencyError, ValidationError, ValueError, KeyError, TypeError, AttributeError,
                OverflowError) as exc:
            # broken JSON is a ValueError; a missing field, kind or relation a KeyError
            raise GraphConsistencyError(f"line {line_no}: {type(exc).__name__}: {exc}") from None
    return graphs
