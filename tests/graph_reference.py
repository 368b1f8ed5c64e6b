"""The row-wise window split and graph builder, kept as the oracle of the
columnar ones in `aptstage.graphs`. `aptstage` takes host events only as an
`EventTable`; this oracle takes any sequence of `HostEvent` rows (a
hand-built list, or a table's rows) and walks them one at a time, merging
each sighting into a per-key node draft and each (subject, relation,
object) triple into one aggregate slot."""
import math
from dataclasses import dataclass

from aptstage.errors import ValidationError
from aptstage.graphs import (
    _EVENT_RELATION,
    _KIND_ORDER,
    _NET_KINDS,
    _NODE_KINDS,
    _RELATION_ORDER,
    _SELF_LOOP,
    _TRIGGERED_BY,
    Node,
    NodeKind,
    ProvenanceGraph,
    Relation,
    _edge_columns,
    _latest_sighting,
    external_endpoint,
)
from aptstage.telemetry import WINDOW_SECONDS, EventKind


def sighting_tables(net_sightings):
    """Index every network sighting (proc_key, remote_key, ts) of a window.
    `exact` maps each remote key, `loose` the remote key and every prefix
    ending before one of its colons (the ips it matches as `remote == ip or
    remote.startswith(ip + ":")`), to (sorted distinct sighting times,
    smallest process key sighted at each time)."""
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


def align_windows(stamps, placed) -> tuple:
    """(t0, window count, window index of each timestamp in `placed`) by the
    window rule, one timestamp at a time."""
    if not stamps:
        return 0.0, 0, []
    t0 = min(stamps)
    n = int(math.floor((max(stamps) - t0) / WINDOW_SECONDS)) + 1
    return t0, n, [min(n - 1, int(math.floor((ts - t0) / WINDOW_SECONDS))) for ts in placed]


@dataclass(frozen=True)
class WindowSlice:
    index: int
    start: float
    events: list
    alerts: list


def window_events(events, alerts):
    stamps = [e.timestamp for e in events] + [a.timestamp for a in alerts]
    t0, n, idx = align_windows(stamps, stamps)
    out = [([], []) for _ in range(n)]
    for ev, i in zip(events, idx):
        out[i][0].append(ev)
    for al, i in zip(alerts, idx[len(events):]):
        out[i][1].append(al)
    return [WindowSlice(i, t0 + i * WINDOW_SECONDS, evs, als) for i, (evs, als) in enumerate(out)]


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


def build_graph(window) -> ProvenanceGraph:
    lo, hi = window.start, window.start + WINDOW_SECONDS
    drafts: dict = {}

    def touch(kind: NodeKind, key: str, ts: float) -> _NodeDraft:
        d = drafts.get(key)
        if d is None:
            d = drafts[key] = _NodeDraft(kind, key, ts)
        else:
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
            rel = Relation.EXEC
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

    fusion_edges: list = []  # (alert draft, target_key, ts)
    exact, loose = sighting_tables(net_sightings) if window.alerts else ({}, {})
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
    for ad, _, _ in fusion_edges:
        while ad.key in drafts:
            ad.key += "'"
        drafts[ad.key] = ad

    order = sorted(drafts.values(), key=lambda d: (_KIND_ORDER[d.kind], d.key))
    index = {d.key: i for i, d in enumerate(order)}
    nodes = tuple(Node(kind=d.kind, key=d.key, attrs=d.attrs()) for d in order)

    rows = [(index[sk], _RELATION_ORDER[rel], index[dk], ts, b, c)
            for (sk, rel, dk), (c, b, ts) in agg.items()]
    rows.extend((index[ad.key], _TRIGGERED_BY, index[tk], ts, None, 1) for ad, tk, ts in fusion_edges)
    rows.extend((i, _SELF_LOOP, i, d.first_ts, None, 1) for i, d in enumerate(order))
    rows.sort()
    g = ProvenanceGraph(window.index, window.start, nodes, **_edge_columns(rows))
    g.validate()
    return g
