"""Seeded, single-threaded input generation for the benchmark workloads.

Every trace is drawn with the program's own campaign generator
(`telemetry.generate_scenario`); the benchmark only chooses the schedule,
the host count and the event rates, and derives each trace's generator seed
from (run seed, workload tag, trace index). The same seed therefore gives
byte-identical telemetry, which `fingerprint` turns into one sha256 per run.
"""
from __future__ import annotations

import hashlib
import io

import numpy as np

from aptstage import telemetry

# The protocol's rates: 0.05 benign and 0.2 attack events per second.
BENIGN_RATE = 0.05
ATTACK_RATE = 0.2

# Stream mix: (archetype, windows, hosts, rate multiplier). One round of the
# stream-infer workload replays these eleven traces in this order. Default
# density (3 hosts, 1x) spans 20 to 200 windows; the two dense traces run
# 10 and 20 hosts at 10x and 20x the rates, where parsing and alert fusion
# in graph building dominate. Five of the eleven are 40-window traces, so
# the median operation is always one of them and is a median of several.
# Archetype 4 (a random pair of stages) is left out: which pair the seed
# draws changed a dense trace's cost threefold from seed to seed.
STREAM_MIX = (
    (0, 20, 3, 1),
    (1, 20, 3, 1),
    (2, 20, 3, 1),
    (0, 40, 3, 1),
    (1, 40, 3, 1),
    (2, 40, 3, 1),
    (3, 40, 3, 1),
    (1, 40, 3, 1),
    (1, 200, 3, 1),
    (2, 20, 10, 10),
    (1, 20, 20, 20),
)


def _schedule(arch: int, duration: float, rng) -> list:
    """The protocol's five campaign archetypes: benign only, full campaign,
    early stages, late stages, a random pair of stages."""
    if arch == 0:
        return []
    if arch == 1:
        return telemetry.default_campaign_schedule(duration)
    if arch == 2:
        stages = [1, 2, 3]
    elif arch == 3:
        stages = [4, 5, 6]
    else:
        stages = sorted(int(k) for k in rng.choice(np.arange(1, 7), size=2, replace=False))
    span = duration / len(stages)
    return [telemetry.StageInterval(k, i * span + 0.04 * span, i * span + 0.96 * span)
            for i, k in enumerate(stages)]


def campaign(seed: int, tag: int, index: int, arch: int, windows: int,
             hosts: int = 3, rate_mult: float = 1.0):
    """(events, alerts, labels) of one generated trace."""
    ss = np.random.SeedSequence([seed, tag, index])
    rng = np.random.default_rng(ss)
    duration = windows * telemetry.WINDOW_SECONDS
    cfg = telemetry.ScenarioConfig(
        num_hosts=hosts,
        duration=duration,
        stage_schedule=_schedule(arch, duration, rng),
        benign_event_rate=BENIGN_RATE * rate_mult,
        attack_event_rate=ATTACK_RATE * rate_mult,
        seed=int(ss.generate_state(1)[0]),
    )
    return telemetry.generate_scenario(cfg)


def protocol_corpus(seed: int, tag: int, n: int, first: int = 0, windows: int = 20):
    """`n` protocol traces (3 hosts, default rates, 20 windows), archetypes
    cycling by trace index as in the repo's benchmark protocol."""
    return [campaign(seed, tag, i, i % 5, windows) for i in range(first, first + n)]


def jsonl(records) -> str:
    buf = io.StringIO()
    telemetry.dump_jsonl(records, buf)
    return buf.getvalue()


def stream_inputs(seed: int, tag: int):
    """The stream mix as raw JSONL text: list of (events_text, alerts_text, labels)."""
    out = []
    for i, (arch, windows, hosts, mult) in enumerate(STREAM_MIX):
        events, alerts, labels = campaign(seed, tag, i, arch, windows, hosts, mult)
        out.append((jsonl(events), jsonl(alerts), labels))
    return out


def fingerprint(traces) -> str:
    """sha256 over every trace's events, alerts and labels, in order. Accepts
    record lists or JSONL text for the two streams."""
    h = hashlib.sha256()
    for events, alerts, labels in traces:
        for stream in (events, alerts):
            h.update((stream if isinstance(stream, str) else jsonl(stream)).encode())
            h.update(b"\x00")
        h.update(",".join(str(int(k)) for k in labels).encode())
        h.update(b"\x01")
    return h.hexdigest()
