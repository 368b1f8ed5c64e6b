"""Synthetic labeled campaign generator.

Each attack stage interval emits its technique's event template: port-scan
connects (stage 1), a powershell download-and-execute chain (stage 2),
registry autorun writes (stage 3), remote-execution spawns on a second host
(stage 4), periodic small-packet beaconing to one external endpoint (stage 5)
and a bulk read-and-send burst (stage 6).  Benign background activity runs
for the whole duration and never produces alerts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .records import (
    _ENTITY_KIND_IDS,
    _EVENT_KIND_IDS,
    NUM_STAGES,
    WINDOW_SECONDS,
    EntityKind,
    EventKind,
    NetworkAlert,
    Protocol,
    _check_events,
    _columns,
    align_windows,
)


@dataclass(frozen=True)
class StageInterval:
    stage: int
    start: float
    end: float


@dataclass(frozen=True)
class ScenarioConfig:
    num_hosts: int = 3
    duration: float = 6 * WINDOW_SECONDS
    stage_schedule: list = field(default_factory=list)  # list of StageInterval
    benign_event_rate: float = 0.05  # events / second
    attack_event_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.num_hosts < 1:
            raise ValidationError("num_hosts must be >= 1")
        if not (self.duration > 0):
            raise ValidationError("duration must be > 0")
        if self.benign_event_rate <= 0 or self.attack_event_rate <= 0:
            raise ValidationError("benign_event_rate and attack_event_rate must be > 0")
        prev_end = 0.0
        for iv in self.stage_schedule:
            if not (1 <= iv.stage < NUM_STAGES):
                raise ValidationError(f"stage must be in 1..{NUM_STAGES - 1}: {iv.stage}")
            if not (0 <= iv.start < iv.end <= self.duration):
                raise ValidationError(
                    f"interval [{iv.start}, {iv.end}) outside [0, {self.duration}]"
                )
            if iv.start < prev_end:
                raise ValidationError("stage intervals must be sorted and non-overlapping")
            prev_end = iv.end
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


def _internal_ip(host_index: int) -> str:
    return f"10.0.0.{10 + host_index}"


# An entity as the emitter takes it: (`EventTable` entity kind id, key).
_PROCESS, _FILE, _IP = (_ENTITY_KIND_IDS[k] for k in (EntityKind.PROCESS, EntityKind.FILE, EntityKind.IP))


def _proc(host: str, name: str) -> tuple:
    return _PROCESS, f"{host}/{name}"


def _file(path: str) -> tuple:
    return _FILE, path


def _ip(addr: str) -> tuple:
    return _IP, addr


_BENIGN_DOCS = [
    "C:/Users/staff/Documents/report.docx",
    "C:/Users/staff/Documents/budget.xlsx",
    "C:/Users/staff/Downloads/notes.txt",
    "C:/ProgramData/app/config.ini",
]
_BENIGN_EXTERNAL = ["142.250.80.46", "151.101.1.140", "104.18.32.68", "13.107.42.14"]
_BENIGN_USERS = ["alice", "bob", "carol", "dave"]

PAYLOAD_IP = "203.0.113.10"
C2_IP = "198.51.100.77"
EXFIL_IP = "198.51.100.99"


class _Emitter:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # the events' `_columns` arguments: ts, kind, host, subj, subj_kind,
        # obj, obj_kind, nbytes, cmd, user, one list entry per event
        self.columns: tuple = tuple([] for _ in range(10))
        self.alerts: list[NetworkAlert] = []
        self.stage_stamps: list[tuple] = []  # (timestamp, stage) per attack record
        self.current_stage: int = 0

    def event(self, timestamp: float, host_id: str, event_kind: EventKind, subject: tuple,
              object: tuple, command=None, user=None, bytes=None) -> float:
        """Record one host event; returns its timestamp."""
        row = (timestamp, _EVENT_KIND_IDS[event_kind], host_id, subject[1], subject[0], object[1],
               object[0], bytes, command, user)
        for column, value in zip(self.columns, row):
            column.append(value)
        if self.current_stage:
            self.stage_stamps.append((timestamp, self.current_stage))
        return timestamp

    def alert_for(self, ts: float, sig: str, sev: float, cat: str,
                  proto: Protocol, dst_ip: str, dst_port: int, src_ip: str) -> None:
        # Anchored on the triggering connect/send event so fusion always has
        # causal evidence inside the same window.
        self.alerts.append(
            NetworkAlert(
                timestamp=ts,
                signature=sig,
                severity=float(min(1.0, max(0.0, sev))),
                protocol=proto,
                category=cat,
                src_ip=src_ip,
                src_port=int(self.rng.integers(49152, 65535)),
                dst_ip=dst_ip,
                dst_port=dst_port,
            )
        )
        if self.current_stage:
            self.stage_stamps.append((ts, self.current_stage))


def _emit_benign(em: _Emitter, cfg: ScenarioConfig) -> None:
    rng = em.rng
    n = int(rng.poisson(cfg.benign_event_rate * cfg.duration))
    times = np.sort(rng.uniform(0.0, cfg.duration - 5.0, size=n))
    for t in times:
        host_idx = int(rng.integers(cfg.num_hosts))
        host = f"host{host_idx:02d}"
        user = _BENIGN_USERS[host_idx % len(_BENIGN_USERS)]
        choice = int(rng.integers(4))
        if choice == 0:
            browser = _proc(host, "chrome.exe")
            dst = _BENIGN_EXTERNAL[int(rng.integers(len(_BENIGN_EXTERNAL)))]
            em.event(timestamp=float(t), host_id=host, event_kind=EventKind.NET_CONNECT,
                     subject=browser, object=_ip(dst), user=user)
            em.event(timestamp=float(t) + 0.4, host_id=host, event_kind=EventKind.NET_RECV,
                     subject=browser, object=_ip(dst), user=user,
                     bytes=int(rng.integers(2_000, 80_000)))
        elif choice == 1:
            word = _proc(host, "winword.exe")
            doc = _file(_BENIGN_DOCS[int(rng.integers(len(_BENIGN_DOCS)))])
            em.event(timestamp=float(t), host_id=host, event_kind=EventKind.FILE_READ,
                     subject=word, object=doc, user=user,
                     bytes=int(rng.integers(1_000, 50_000)))
            if rng.random() < 0.5:
                em.event(timestamp=float(t) + 0.7, host_id=host,
                         event_kind=EventKind.FILE_WRITE, subject=word, object=doc,
                         user=user, bytes=int(rng.integers(1_000, 50_000)))
        elif choice == 2:
            svc = _proc(host, "svchost.exe")
            em.event(timestamp=float(t), host_id=host, event_kind=EventKind.FILE_READ,
                     subject=svc, object=_file("C:/Windows/System32/drivers/etc/hosts"),
                     user="SYSTEM", bytes=int(rng.integers(100, 2_000)))
        else:
            shell = _proc(host, "explorer.exe")
            pad = _proc(host, "notepad.exe")
            em.event(timestamp=float(t), host_id=host, event_kind=EventKind.PROCESS_CREATE,
                     subject=shell, object=pad, user=user, command="notepad.exe")
            em.event(timestamp=float(t) + 0.5, host_id=host, event_kind=EventKind.FILE_WRITE,
                     subject=pad, object=_file("C:/Users/staff/Downloads/notes.txt"),
                     user=user, bytes=int(rng.integers(100, 5_000)))


def _stage_burst_size(stage: int) -> int:
    return {1: 6, 2: 5, 3: 3, 4: 5, 5: 1, 6: 3}[stage]


def _emit_stage(em: _Emitter, cfg: ScenarioConfig, iv: StageInterval) -> None:
    rng = em.rng
    length = iv.end - iv.start
    burst = _stage_burst_size(iv.stage)
    n_inst = max(1, int(round(cfg.attack_event_rate * length / burst)))
    if iv.stage == 5:
        # beaconing is periodic, not Poisson
        period = length / n_inst
        times = iv.start + period * np.arange(n_inst) + rng.uniform(0, 0.2 * period, n_inst)
    else:
        times = np.sort(rng.uniform(iv.start, max(iv.start + 1e-3, iv.end - 10.0), size=n_inst))
    host = "host00"
    hip = _internal_ip(0)
    target_idx = 1 % cfg.num_hosts
    target_host = f"host{target_idx:02d}"
    tip = _internal_ip(target_idx)
    for inst, t in enumerate(times):
        t = float(min(t, cfg.duration - 5.0))
        must_alert = inst == 0  # every interval yields at least one alert
        if iv.stage == 1:
            scanner = _proc(host, "masscan.exe")
            for j in range(6):
                dst = f"10.0.0.{20 + int(rng.integers(60))}"
                port = int(rng.choice([22, 80, 139, 443, 445, 3389]))
                ts = em.event(timestamp=t + 0.3 * j, host_id=host,
                              event_kind=EventKind.NET_CONNECT, subject=scanner,
                              object=_ip(dst), user="eve")
                if j == 0 and (must_alert or rng.random() < 0.5):
                    em.alert_for(ts, "ET SCAN Suspicious Inbound Port Sweep",
                                 0.3 + rng.uniform(0, 0.15), "attempted-recon",
                                 Protocol.TCP, dst, port, hip)
        elif iv.stage == 2:
            psh = _proc(host, "powershell.exe")
            wget = _proc(host, "wget.exe")
            payload_file = _file("C:/Users/staff/AppData/payload.exe")
            payload_proc = _proc(host, "payload.exe")
            em.event(timestamp=t, host_id=host, event_kind=EventKind.PROCESS_CREATE,
                     subject=psh, object=wget, user="staff",
                     command="powershell.exe -nop -w hidden -enc aHR0cDovL2JhZA==")
            ts = em.event(timestamp=t + 1.0, host_id=host, event_kind=EventKind.NET_CONNECT,
                          subject=wget, object=_ip(PAYLOAD_IP), user="staff")
            em.event(timestamp=t + 2.0, host_id=host, event_kind=EventKind.NET_RECV,
                     subject=wget, object=_ip(PAYLOAD_IP), user="staff",
                     bytes=int(rng.integers(800_000, 3_000_000)))
            em.event(timestamp=t + 3.0, host_id=host, event_kind=EventKind.FILE_CREATE,
                     subject=wget, object=payload_file, user="staff")
            em.event(timestamp=t + 4.0, host_id=host, event_kind=EventKind.PROCESS_CREATE,
                     subject=payload_proc, object=payload_proc, user="staff",
                     command="payload.exe")
            if must_alert or rng.random() < 0.7:
                em.alert_for(ts, "ET TROJAN Possible Malicious EXE Download",
                             0.75 + rng.uniform(0, 0.2), "trojan-activity",
                             Protocol.TCP, PAYLOAD_IP, 80, hip)
        elif iv.stage == 3:
            payload_proc = _proc(host, "payload.exe")
            em.event(timestamp=t, host_id=host, event_kind=EventKind.REGISTRY_WRITE,
                     subject=payload_proc,
                     object=_file("reg:HKLM/Software/Microsoft/Windows/CurrentVersion/Run/updater"),
                     user="staff", command="payload.exe -persist")
            em.event(timestamp=t + 0.8, host_id=host, event_kind=EventKind.FILE_READ,
                     subject=payload_proc, object=_file("C:/Windows/System32/config/SAM"),
                     user="staff", bytes=int(rng.integers(10_000, 60_000)))
            em.event(timestamp=t + 1.6, host_id=host, event_kind=EventKind.FILE_WRITE,
                     subject=payload_proc, object=_file("C:/Windows/Temp/dump.bin"),
                     user="staff", bytes=int(rng.integers(10_000, 60_000)))
        elif iv.stage == 4:
            cmd = _proc(host, "cmd.exe")
            psexec = _proc(host, "psexec.exe")
            em.event(timestamp=t, host_id=host, event_kind=EventKind.PROCESS_CREATE,
                     subject=cmd, object=psexec, user="staff",
                     command=f"psexec.exe \\\\{tip} -s cmd.exe")
            ts = em.event(timestamp=t + 0.6, host_id=host, event_kind=EventKind.NET_CONNECT,
                          subject=psexec, object=_ip(tip), user="staff")
            em.event(timestamp=t + 1.2, host_id=host, event_kind=EventKind.NET_SEND,
                     subject=psexec, object=_ip(tip), user="staff",
                     bytes=int(rng.integers(30_000, 90_000)))
            services = _proc(target_host, "services.exe")
            svc = _proc(target_host, "psexesvc.exe")
            em.event(timestamp=t + 1.8, host_id=target_host,
                     event_kind=EventKind.PROCESS_CREATE, subject=services, object=svc,
                     user="SYSTEM", command="psexesvc.exe")
            em.event(timestamp=t + 2.4, host_id=target_host,
                     event_kind=EventKind.PROCESS_CREATE, subject=svc,
                     object=_proc(target_host, "cmd.exe"), user="SYSTEM", command="cmd.exe")
            if must_alert or rng.random() < 0.6:
                em.alert_for(ts, "ET POLICY PsExec Service Install",
                             0.55 + rng.uniform(0, 0.2), "lateral-movement",
                             Protocol.TCP, tip, 445, hip)
        elif iv.stage == 5:
            payload_proc = _proc(host, "payload.exe")
            ts = em.event(timestamp=t, host_id=host, event_kind=EventKind.NET_SEND,
                          subject=payload_proc, object=_ip(C2_IP), user="staff",
                          bytes=int(rng.integers(200, 600)))
            if must_alert or rng.random() < 0.4:
                em.alert_for(ts, "ET MALWARE Beacon Observed to External Host",
                             0.8 + rng.uniform(0, 0.15), "command-and-control",
                             Protocol.TCP, C2_IP, 8443, hip)
        elif iv.stage == 6:
            payload_proc = _proc(host, "payload.exe")
            em.event(timestamp=t, host_id=host, event_kind=EventKind.FILE_READ,
                     subject=payload_proc, object=_file("C:/Data/customer_db.bak"),
                     user="staff", bytes=int(rng.integers(20_000_000, 90_000_000)))
            ts = em.event(timestamp=t + 1.0, host_id=host, event_kind=EventKind.NET_SEND,
                          subject=payload_proc, object=_ip(EXFIL_IP), user="staff",
                          bytes=int(rng.integers(15_000_000, 70_000_000)))
            em.event(timestamp=t + 2.0, host_id=host, event_kind=EventKind.FILE_WRITE,
                     subject=payload_proc, object=_file("C:/Windows/Temp/archive.7z"),
                     user="staff", bytes=int(rng.integers(5_000_000, 20_000_000)))
            if must_alert or rng.random() < 0.7:
                em.alert_for(ts, "ET EXFIL Large Outbound Data Transfer",
                             0.85 + rng.uniform(0, 0.1), "exfiltration",
                             Protocol.TCP, EXFIL_IP, 443, hip)


def window_labels(events, alerts, stage_stamps) -> list[int]:
    """Per-window stage labels by majority of in-window attack records (ties
    toward the smaller stage id; no attack evidence → 0), on the windows of
    `align_windows` that the graph builder uses. `events` is an `EventTable`."""
    stamps = np.concatenate([events.ts, [a.timestamp for a in alerts]])
    _, n_windows, idx = align_windows(stamps, [ts for ts, _ in stage_stamps])
    counts = np.zeros((n_windows, NUM_STAGES), dtype=np.int64)
    for w, (_, k) in zip(idx, stage_stamps):
        counts[w, k] += 1
    return [int(row.argmax()) if row.any() else 0 for row in counts]


def generate_scenario(cfg: ScenarioConfig):
    """Deterministically generate (events, alerts, per-window labels) for one
    campaign: the events an `EventTable` sorted stably by timestamp and
    checked by the parser's rules, the alerts sorted by timestamp. Every
    network-crossing stage interval yields at least one alert anchored on
    one of its own connect/send events."""
    rng = np.random.default_rng(cfg.seed)
    em = _Emitter(rng)
    _emit_benign(em, cfg)
    for iv in cfg.stage_schedule:
        em.current_stage = iv.stage
        _emit_stage(em, cfg, iv)
    em.current_stage = 0
    events = _check_events(_columns(*em.columns)._sorted())
    em.alerts.sort(key=lambda a: a.timestamp)
    labels = window_labels(events, em.alerts, em.stage_stamps)
    return events, em.alerts, labels


def default_campaign_schedule(duration: float) -> list[StageInterval]:
    """A full six-stage progression with benign gaps, scaled to `duration`."""
    # fractions of the timeline: lead-in, then the six stages with gaps
    frac = [
        (1, 0.08, 0.16),
        (2, 0.22, 0.30),
        (3, 0.36, 0.44),
        (4, 0.50, 0.58),
        (5, 0.64, 0.76),
        (6, 0.82, 0.92),
    ]
    return [StageInterval(k, round(a * duration), round(b * duration)) for k, a, b in frac]
