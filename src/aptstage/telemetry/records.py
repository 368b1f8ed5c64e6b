"""Raw telemetry data model: host events and network alerts, JSONL wire format.

Host event JSONL fields: ts, host, kind, subj_kind, subj_key, obj_kind,
obj_key, cmd?, user?, bytes?.  Alert JSONL fields: ts, sig, sev, proto, cat,
src_ip, src_port, dst_ip, dst_port.  UTF-8, LF line endings.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional, Union

from ..errors import TelemetryParseError, ValidationError

WINDOW_SECONDS = 300.0


def align_windows(stamps, placed) -> tuple:
    """The window rule that graph building and labeling share. Windows are
    contiguous, half-open and WINDOW_SECONDS long, aligned to t0, the
    earliest of the record timestamps `stamps`; there are
    floor(span / WINDOW_SECONDS) + 1 of them. Returns (t0, window count, the
    window index of each timestamp in `placed`), an index past the end
    clamped to the last window. No stamps, no windows."""
    if not stamps:
        return 0.0, 0, []
    t0 = min(stamps)
    n = int(math.floor((max(stamps) - t0) / WINDOW_SECONDS)) + 1
    return t0, n, [min(n - 1, int(math.floor((ts - t0) / WINDOW_SECONDS))) for ts in placed]


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


# wire value -> member
_EVENT_KINDS = {k.value: k for k in EventKind}
_ENTITY_KINDS = {k.value: k for k in EntityKind}
_PROTOCOLS = {p.value: p for p in Protocol}


def _member(table: dict, value, what: str):
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value, e.g. a list
        raise ValidationError(f"unknown {what}: {value!r}") from None


def _required(rec: dict, *names) -> tuple:
    try:
        return itemgetter(*names)(rec)
    except KeyError as exc:
        raise ValidationError(f"missing required field: {exc.args[0]}") from None


_OPTIONAL_TEXT = frozenset({"cmd", "user"})  # may also be absent or null


def _not_text(rec: dict, names) -> ValidationError:
    """The refusal of the first field of `names` in `rec` that holds no
    string. Callers test the fields inline and call this only on a failure,
    so that parsing a good record costs no extra calls."""
    for name in names:
        value = rec.get(name)
        if not (isinstance(value, str) or (value is None and name in _OPTIONAL_TEXT)):
            return ValidationError(f"{name} must be a string: {value!r}")


# Event kinds that may carry a byte count.
BYTES_KINDS = frozenset(
    {EventKind.NET_SEND, EventKind.NET_RECV, EventKind.FILE_READ, EventKind.FILE_WRITE}
)
# Self-referencing subject/object is only meaningful for "program starts
# executing itself" records.
SELF_EDGE_KINDS = frozenset({EventKind.FILE_EXEC, EventKind.PROCESS_CREATE})


@dataclass(frozen=True)
class EntityRef:
    kind: EntityKind
    key: str

    def __post_init__(self):
        if not self.key:
            raise ValidationError("entity key must be non-empty")


@dataclass(frozen=True)
class HostEvent:
    timestamp: float
    host_id: str
    event_kind: EventKind
    subject: EntityRef
    object: EntityRef
    command: Optional[str] = None
    user: Optional[str] = None
    bytes: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValidationError(f"timestamp must be finite and >= 0: {self.timestamp}")
        if not self.host_id:
            raise ValidationError("host_id must be non-empty")
        if self.subject == self.object and self.event_kind not in SELF_EDGE_KINDS:
            raise ValidationError(
                f"subject == object not allowed for {self.event_kind.value}"
            )
        if self.bytes is not None:
            if self.event_kind not in BYTES_KINDS:
                raise ValidationError(
                    f"bytes not allowed for {self.event_kind.value}"
                )
            if self.bytes < 0:
                raise ValidationError(f"bytes must be non-negative: {self.bytes}")

    def to_record(self) -> dict:
        rec = {
            "ts": self.timestamp,
            "host": self.host_id,
            "kind": self.event_kind.value,
            "subj_kind": self.subject.kind.value,
            "subj_key": self.subject.key,
            "obj_kind": self.object.kind.value,
            "obj_key": self.object.key,
        }
        if self.command is not None:
            rec["cmd"] = self.command
        if self.user is not None:
            rec["user"] = self.user
        if self.bytes is not None:
            rec["bytes"] = self.bytes
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "HostEvent":
        return cls._from_record(rec, {})

    @classmethod
    def _from_record(cls, rec: dict, refs: dict) -> "HostEvent":
        """`from_record`, sharing one `EntityRef` per (kind, key) through `refs`."""
        ts, host, kind, subj_kind, subj_key, obj_kind, obj_key = _required(
            rec, "ts", "host", "kind", "subj_kind", "subj_key", "obj_kind", "obj_key")
        cmd, user = rec.get("cmd"), rec.get("user")
        if not (isinstance(host, str) and isinstance(subj_key, str) and isinstance(obj_key, str)
                and (cmd is None or isinstance(cmd, str)) and (user is None or isinstance(user, str))):
            raise _not_text(rec, ("host", "subj_key", "obj_key", "cmd", "user"))
        kind = _member(_EVENT_KINDS, kind, "event kind")
        subj, obj = _entity(refs, subj_kind, subj_key), _entity(refs, obj_kind, obj_key)
        bytes_val = rec.get("bytes")
        return cls(
            timestamp=float(ts),
            host_id=host,
            event_kind=kind,
            subject=subj,
            object=obj,
            command=cmd,
            user=user,
            bytes=int(bytes_val) if bytes_val is not None else None,
        )

    def to_json_line(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))


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
        if not (0.0 <= self.severity <= 1.0):
            raise ValidationError(f"severity out of [0,1]: {self.severity}")
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not (0 <= port <= 65535):
                raise ValidationError(f"{name} out of [0,65535]: {port}")
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

    @classmethod
    def from_record(cls, rec: dict) -> "NetworkAlert":
        ts, sig, sev, proto, cat, src_ip, src_port, dst_ip, dst_port = _required(
            rec, "ts", "sig", "sev", "proto", "cat", "src_ip", "src_port", "dst_ip", "dst_port")
        if not (isinstance(sig, str) and isinstance(cat, str)
                and isinstance(src_ip, str) and isinstance(dst_ip, str)):
            raise _not_text(rec, ("sig", "cat", "src_ip", "dst_ip"))
        proto = _member(_PROTOCOLS, proto, "protocol")
        return cls(
            timestamp=float(ts),
            signature=sig,
            severity=float(sev),
            protocol=proto,
            category=cat,
            src_ip=src_ip,
            src_port=int(src_port),
            dst_ip=dst_ip,
            dst_port=int(dst_port),
        )

    def to_json_line(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))


def _entity(refs: dict, kind, key) -> EntityRef:
    k = (_member(_ENTITY_KINDS, kind, "entity kind"), key)
    return refs.get(k) or refs.setdefault(k, EntityRef(*k))


def _parse_stream(stream, from_record):
    out = []
    for line_no, line in enumerate(stream.splitlines() if isinstance(stream, str) else stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryParseError(line_no, f"malformed JSON: {exc.msg}") from None
        if not isinstance(rec, dict):
            raise TelemetryParseError(line_no, "record is not a JSON object")
        try:
            out.append(from_record(rec))
        except ValidationError as exc:
            raise TelemetryParseError(line_no, str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise TelemetryParseError(line_no, f"bad field value: {exc}") from None
    out.sort(key=lambda r: r.timestamp)  # stable: preserves input order on ties
    return out


def parse_host_events(stream: Union[str, Iterable[str]]) -> list[HostEvent]:
    """Parse a JSONL host-event stream, sorted by timestamp (stable on ties).
    Events of one call that name the same entity share one `EntityRef`."""
    refs: dict = {}
    return _parse_stream(stream, lambda rec: HostEvent._from_record(rec, refs))


def parse_alerts(stream: Union[str, Iterable[str]]) -> list[NetworkAlert]:
    """Parse a JSONL network-alert stream, sorted by timestamp (stable on ties)."""
    return _parse_stream(stream, NetworkAlert.from_record)


def dump_jsonl(records, fh) -> None:
    for rec in records:
        fh.write(rec.to_json_line())
        fh.write("\n")
