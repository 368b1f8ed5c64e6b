"""Raw telemetry data model: host events and network alerts, JSONL wire format.

Host event JSONL fields: ts, host, kind, subj_kind, subj_key, obj_kind,
obj_key, cmd?, user?, bytes?.  Alert JSONL fields: ts, sig, sev, proto, cat,
src_ip, src_port, dst_ip, dst_port.  UTF-8, LF line endings.  A parsed
host-event stream is one columnar `EventTable`; alerts stay `NetworkAlert`s.
"""
from __future__ import annotations

import json
import json.scanner
import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Union

import numpy as np

from ..errors import TelemetryParseError, ValidationError

WINDOW_SECONDS = 300.0

# the kill-chain stages a window is labeled with and the model scores; 0 is benign
STAGE_NAMES = (
    "Normal",
    "Reconnaissance",
    "Initial Compromise",
    "Privilege Escalation",
    "Lateral Movement",
    "Command and Control",
    "Exfiltration",
)
NUM_STAGES = len(STAGE_NAMES)


def align_windows(stamps, placed) -> tuple:
    """The window rule that graph building and labeling share. Windows are
    contiguous, half-open and WINDOW_SECONDS long, aligned to t0, the
    earliest of the record timestamps `stamps`; there are
    floor(span / WINDOW_SECONDS) + 1 of them. Returns (t0, window count, the
    int64 window index of each timestamp in `placed`), an index past the end
    clamped to the last window. No stamps, no windows."""
    stamps = np.asarray(stamps, dtype=float)
    if not stamps.size:
        return 0.0, 0, np.zeros(0, dtype=np.int64)
    t0 = float(stamps.min())
    n = int(math.floor((float(stamps.max()) - t0) / WINDOW_SECONDS)) + 1
    idx = np.floor((np.asarray(placed, dtype=float) - t0) / WINDOW_SECONDS)
    return t0, n, np.minimum(idx, n - 1).astype(np.int64)


class EventKind(str, Enum):
    PROCESS_CREATE = "ProcessCreate"
    FILE_CREATE = "FileCreate"
    FILE_READ = "FileRead"
    FILE_WRITE = "FileWrite"
    FILE_EXEC = "FileExec"
    REGISTRY_WRITE = "RegistryWrite"
    NET_CONNECT = "NetConnect"
    NET_SEND = "NetSend"
    NET_RECV = "NetRecv"


class EntityKind(str, Enum):
    PROCESS = "process"
    FILE = "file"
    SOCKET = "socket"
    USER = "user"
    HOST = "host"
    IP = "ip"


class Protocol(str, Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"
    OTHER = "other"


# Declaration order gives each kind its id in an `EventTable`. A str enum
# member and its wire value are one dict key, so these map both to the id.
EVENT_KINDS, ENTITY_KINDS = tuple(EventKind), tuple(EntityKind)
_EVENT_KIND_IDS = {k: i for i, k in enumerate(EVENT_KINDS)}
_ENTITY_KIND_IDS = {k: i for i, k in enumerate(ENTITY_KINDS)}
_PROTOCOLS = {p.value: p for p in Protocol}


def _lookup(table: dict, values, what: str) -> list:
    """`table[v]` for each of `values`, refusing the first unknown one."""
    try:
        return list(map(table.__getitem__, values))
    except (KeyError, TypeError):  # TypeError: an unhashable value, e.g. a list
        bad = next(v for v in values if not isinstance(v, str) or v not in table)
        raise ValidationError(f"unknown {what}: {bad!r}") from None


def _required(recs: list, names: tuple) -> list:
    """Per field of `names`, its column over the records `recs`."""
    try:
        return [list(map(itemgetter(name), recs)) for name in names]
    except KeyError as exc:
        raise ValidationError(f"missing required field: {exc.args[0]}") from None


# (JSON types a field may hold, what to call them): json.loads gives bool for
# true/false, int for a number without fraction or exponent, float for any
# other number
_TEXT, _OPTIONAL_TEXT = ({str}, "a string"), ({str, type(None)}, "a string")
_NUMBER, _INTEGER = ({int, float}, "a number"), ({int}, "an integer")
_OPTIONAL_INTEGER = ({int, type(None)}, "an integer")


def _check_types(name: str, values, rule: tuple) -> None:
    """Refuse the first of `values` (field `name` of each record) whose JSON
    type `rule` does not allow."""
    allowed, what = rule
    if not set(map(type, values)) <= allowed:
        bad = next(v for v in values if type(v) not in allowed)
        raise ValidationError(f"{name} must be {what}: {bad!r}")


# Event kinds that may carry a byte count.
BYTES_KINDS = frozenset(
    {EventKind.NET_SEND, EventKind.NET_RECV, EventKind.FILE_READ, EventKind.FILE_WRITE}
)
# Self-referencing subject/object is only meaningful for "program starts
# executing itself" records.
SELF_EDGE_KINDS = frozenset({EventKind.FILE_EXEC, EventKind.PROCESS_CREATE})
_BYTES_KIND = np.array([k in BYTES_KINDS for k in EVENT_KINDS])
_SELF_EDGE_KIND = np.array([k in SELF_EDGE_KINDS for k in EVENT_KINDS])


@dataclass(frozen=True)
class EntityRef:
    kind: EntityKind
    key: str


@dataclass(frozen=True)
class HostEvent:
    """One row of an `EventTable`, as `table[i]` and iteration read it."""

    timestamp: float
    host_id: str
    event_kind: EventKind
    subject: EntityRef
    object: EntityRef
    command: Optional[str] = None
    user: Optional[str] = None
    bytes: Optional[int] = None


@dataclass(frozen=True, eq=False)
class EventTable:
    """Host events as columns, one row per event, sorted stably by timestamp.

    `strings` holds each distinct host, entity key, command and user once, and
    `host`, `subj`, `obj`, `cmd` and `user` are int64 ids into it, -1 where a
    record has no command or user; an entity is identified by its key alone.
    `kind` holds `EVENT_KINDS` ids, `subj_kind` and `obj_kind` `ENTITY_KINDS`
    ids; `ts` is float64, `nbytes` float64 and NaN where a record has no byte
    count (exact below 2**53). `len(table)`, `table[i]` (a `HostEvent`) and
    iteration read it as rows; `table[a:b]` is a table sharing `strings`."""

    strings: tuple
    ts: np.ndarray
    kind: np.ndarray
    host: np.ndarray
    subj: np.ndarray
    subj_kind: np.ndarray
    obj: np.ndarray
    obj_kind: np.ndarray
    nbytes: np.ndarray
    cmd: np.ndarray
    user: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return EventTable(self.strings, *(getattr(self, name)[i] for name in _COLUMNS))
        s, cmd, user, nbytes = self.strings, self.cmd[i], self.user[i], self.nbytes[i]
        return HostEvent(float(self.ts[i]), s[self.host[i]], EVENT_KINDS[self.kind[i]],
                         EntityRef(ENTITY_KINDS[self.subj_kind[i]], s[self.subj[i]]),
                         EntityRef(ENTITY_KINDS[self.obj_kind[i]], s[self.obj[i]]),
                         command=s[cmd] if cmd >= 0 else None, user=s[user] if user >= 0 else None,
                         bytes=None if nbytes != nbytes else int(nbytes))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _sorted(self) -> "EventTable":
        """The rows sorted stably by timestamp; `self` if they already are."""
        ts = self.ts
        return self[np.argsort(ts, kind="stable")] if (ts[1:] < ts[:-1]).any() else self


_COLUMNS = tuple(f.name for f in fields(EventTable))[1:]
_STRING_IDS = frozenset({"host", "subj", "obj", "cmd", "user"})


def _columns(ts, kind, host, subj, subj_kind, obj, obj_kind, nbytes, cmd, user) -> EventTable:
    """An `EventTable` of per-row lists in input order, its strings interned
    in order of first appearance."""
    text = host + subj + obj + cmd + user
    distinct = dict.fromkeys(text)
    distinct.pop(None, None)
    strings = tuple(distinct)
    ids = dict(zip(strings, range(len(strings))))
    ids[None] = -1
    host, subj, obj, cmd, user = np.fromiter(map(ids.__getitem__, text), np.int64, len(text)).reshape(5, -1)
    return EventTable(strings, np.array(ts, dtype=float), np.array(kind, dtype=np.int64), host, subj,
                      np.array(subj_kind, dtype=np.int64), obj, np.array(obj_kind, dtype=np.int64),
                      np.array(nbytes, dtype=float), cmd, user)


def _event_table(recs: list) -> EventTable:
    """The checked `EventTable` of host-event records (dicts), rows in input
    order. The field types and kinds are checked here, the event rules by
    `_check_events`; each check runs over a whole column and raises
    `ValidationError` phrased for the first record that fails it."""
    ts, host, kind, subj_kind, subj, obj_kind, obj = _required(
        recs, ("ts", "host", "kind", "subj_kind", "subj_key", "obj_kind", "obj_key"))
    cmd, user, nbytes = (list(map(dict.get, recs, repeat(name))) for name in ("cmd", "user", "bytes"))
    for name, values, allowed in (("host", host, _TEXT), ("subj_key", subj, _TEXT), ("obj_key", obj, _TEXT),
                                  ("cmd", cmd, _OPTIONAL_TEXT), ("user", user, _OPTIONAL_TEXT)):
        _check_types(name, values, allowed)
    kind = _lookup(_EVENT_KIND_IDS, kind, "event kind")
    subj_kind = _lookup(_ENTITY_KIND_IDS, subj_kind, "entity kind")
    obj_kind = _lookup(_ENTITY_KIND_IDS, obj_kind, "entity kind")
    _check_types("ts", ts, _NUMBER)
    _check_types("bytes", nbytes, _OPTIONAL_INTEGER)
    return _check_events(_columns(ts, kind, host, subj, subj_kind, obj, obj_kind, nbytes, cmd, user))


def _check_events(t: EventTable) -> EventTable:
    """`t`, if every row keeps the host-event rules; otherwise
    `ValidationError` for the first rule broken, phrased for the first row
    that breaks it. Every host event, parsed or generated, passes here."""
    ts, kind, nbytes = t.ts, t.kind, t.nbytes
    empty = t.strings.index("") if "" in t.strings else -1
    checks = (
        ((t.subj == empty) | (t.obj == empty), lambda j: "entity key must be non-empty"),
        (~(np.isfinite(ts) & (ts >= 0)), lambda j: f"timestamp must be finite and >= 0: {float(ts[j])}"),
        (t.host == empty, lambda j: "host_id must be non-empty"),
        ((t.subj == t.obj) & (t.subj_kind == t.obj_kind) & ~_SELF_EDGE_KIND[kind],
         lambda j: f"subject == object not allowed for {EVENT_KINDS[kind[j]].value}"),
        ((nbytes == nbytes) & ~_BYTES_KIND[kind], lambda j: f"bytes not allowed for {EVENT_KINDS[kind[j]].value}"),
        (nbytes < 0, lambda j: f"bytes must be non-negative: {int(nbytes[j])}"),
    )
    for mask, message in checks:
        if mask.any():
            raise ValidationError(message(mask.argmax()))
    return t


def _concat(tables: list) -> EventTable:
    """The rows of `tables`, in order, as one table with one string table."""
    if len(tables) == 1:
        return tables[0]
    strings = tuple(dict.fromkeys(chain.from_iterable(t.strings for t in tables)))
    ids = dict(zip(strings, range(len(strings))))
    # per table, its string ids -> the merged ids; the -1 appended keeps -1
    remaps = [np.array([ids[s] for s in t.strings] + [-1], dtype=np.int64) for t in tables]
    return EventTable(strings, *(np.concatenate([remap[getattr(t, name)] if name in _STRING_IDS
                                                 else getattr(t, name) for t, remap in zip(tables, remaps)])
                                 for name in _COLUMNS))


def check_alert_ranges(severity, ports) -> None:
    """Refuse a severity outside [0, 1] or a port outside [0, 65535];
    `ports` holds (field name, port) pairs."""
    if not (0.0 <= severity <= 1.0):
        raise ValidationError(f"severity out of [0,1]: {severity}")
    for name, port in ports:
        if not (0 <= port <= 65535):
            raise ValidationError(f"{name} out of [0,65535]: {port}")


@dataclass(frozen=True)
class NetworkAlert:
    timestamp: float
    signature: str
    severity: float
    protocol: Protocol
    category: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    def __post_init__(self):
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValidationError(f"timestamp must be finite and >= 0: {self.timestamp}")
        if not self.signature:
            raise ValidationError("signature must be non-empty")
        check_alert_ranges(self.severity, (("src_port", self.src_port), ("dst_port", self.dst_port)))
        if not self.src_ip or not self.dst_ip:
            raise ValidationError("src_ip and dst_ip must be non-empty")

    def to_record(self) -> dict:
        return {
            "ts": self.timestamp,
            "sig": self.signature,
            "sev": self.severity,
            "proto": self.protocol.value,
            "cat": self.category,
            "src_ip": self.src_ip,
            "src_port": self.src_port,
            "dst_ip": self.dst_ip,
            "dst_port": self.dst_port,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))


# json.loads without its wrappers: one JSON value from a string at an index,
# returned with the index after it; StopIteration where no value starts
_scan_json = json.scanner.make_scanner(json.JSONDecoder())
# Lines decoded at once. A decoded record (a dict and its strings) takes
# several times the memory of its table row, so a stream is decoded a chunk
# at a time and only the chunks' parsed rows are kept.
_CHUNK = 2048


def _parse_stream(stream, parse_records, combine):
    """`combine` of `parse_records` over the stream's JSON lines, taken a
    chunk at a time. A chunk's lines are decoded and checked together; only
    if that fails are they taken one at a time, to raise
    `TelemetryParseError` naming the first bad line."""
    lines = [line.strip() for line in (stream.splitlines() if isinstance(stream, str) else stream)]
    parts = []
    for first in range(0, max(len(lines), 1), _CHUNK):
        chunk = lines[first:first + _CHUNK]
        text = [line for line in chunk if line]
        try:
            decoded = list(map(_scan_json, text, repeat(0)))  # (value, end) per line
            if list(map(itemgetter(1), decoded)) != list(map(len, text)):
                raise ValueError("extra data after a JSON value")
            parts.append(parse_records(list(map(itemgetter(0), decoded))))
        except (ValidationError, ValueError, TypeError, KeyError, OverflowError, StopIteration):
            _refuse_first_bad_line(chunk, first + 1, parse_records)
            raise
    return combine(parts)


def _refuse_first_bad_line(lines, first_no: int, parse_records) -> None:
    """Raise `TelemetryParseError` for the first of `lines`, numbered from
    `first_no`, that does not parse on its own."""
    for line_no, line in enumerate(lines, start=first_no):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryParseError(line_no, f"malformed JSON: {exc.msg}") from None
        if not isinstance(rec, dict):
            raise TelemetryParseError(line_no, "record is not a JSON object")
        try:
            parse_records([rec])
        except ValidationError as exc:
            raise TelemetryParseError(line_no, str(exc)) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise TelemetryParseError(line_no, f"bad field value: {exc}") from None


def parse_host_events(stream: Union[str, Iterable[str]]) -> EventTable:
    """Parse a JSONL host-event stream into an `EventTable`, sorted by
    timestamp (stable on ties)."""
    return _parse_stream(stream, _event_table, lambda tables: _concat(tables)._sorted())


def _alerts(recs: list) -> list:
    """The `NetworkAlert`s of alert records (dicts), in input order. The
    field types and protocols are checked a column at a time, as
    `_event_table` checks host events; `NetworkAlert` checks the values."""
    ts, sig, sev, proto, cat, src_ip, src_port, dst_ip, dst_port = _required(
        recs, ("ts", "sig", "sev", "proto", "cat", "src_ip", "src_port", "dst_ip", "dst_port"))
    for name, values in (("sig", sig), ("cat", cat), ("src_ip", src_ip), ("dst_ip", dst_ip)):
        _check_types(name, values, _TEXT)
    proto = _lookup(_PROTOCOLS, proto, "protocol")
    for name, values, rule in (("ts", ts, _NUMBER), ("sev", sev, _NUMBER),
                               ("src_port", src_port, _INTEGER), ("dst_port", dst_port, _INTEGER)):
        _check_types(name, values, rule)
    return list(map(NetworkAlert, map(float, ts), sig, map(float, sev), proto, cat, src_ip, src_port,
                    dst_ip, dst_port))


def parse_alerts(stream: Union[str, Iterable[str]]) -> list[NetworkAlert]:
    """Parse a JSONL network-alert stream, sorted by timestamp (stable on ties)."""
    return _parse_stream(stream, _alerts,
                         lambda parts: sorted(chain.from_iterable(parts), key=attrgetter("timestamp")))


def _event_lines(t: EventTable):
    """Each row of `t` as its JSONL line: the wire fields in order, floats as
    `repr`, `bytes` as an integer, and `cmd`, `user` and `bytes` only where
    the row has them."""
    text = [json.dumps(s) for s in t.strings]
    kinds = [json.dumps(k.value) for k in EVENT_KINDS]
    entity_kinds = [json.dumps(k.value) for k in ENTITY_KINDS]
    for ts, kind, host, subj_kind, subj, obj_kind, obj, cmd, user, nbytes in zip(
            t.ts.tolist(), t.kind.tolist(), t.host.tolist(), t.subj_kind.tolist(), t.subj.tolist(),
            t.obj_kind.tolist(), t.obj.tolist(), t.cmd.tolist(), t.user.tolist(), t.nbytes.tolist()):
        line = (f'{{"ts":{ts!r},"host":{text[host]},"kind":{kinds[kind]},"subj_kind":{entity_kinds[subj_kind]},'
                f'"subj_key":{text[subj]},"obj_kind":{entity_kinds[obj_kind]},"obj_key":{text[obj]}')
        if cmd >= 0:
            line += f',"cmd":{text[cmd]}'
        if user >= 0:
            line += f',"user":{text[user]}'
        if nbytes == nbytes:
            line += f',"bytes":{int(nbytes)}'
        yield line + "}"


def dump_jsonl(records, fh) -> None:
    """Write host events (an `EventTable`) or `NetworkAlert`s as JSONL, one
    record a line."""
    lines = _event_lines(records) if isinstance(records, EventTable) else map(NetworkAlert.to_json_line, records)
    for line in lines:
        fh.write(line)
        fh.write("\n")
