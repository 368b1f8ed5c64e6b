"""Discrete stage decisions over probability sequences.

Argmax with ties broken toward the smallest class id (benign-first: the
cheaper error for a defensive consumer), adjacent-pair transition tracking,
and a versioned JSONL alert export for downstream components. No smoothing is
applied before argmax so temporal-stability measurements see the raw model.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .telemetry.records import STAGE_NAMES, WINDOW_SECONDS

ALERT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StageDecision:
    window_index: int
    window_start: float
    stage: int
    stage_name: str
    confidence: float
    previous_stage: int | None = None


@dataclass(frozen=True)
class TransitionEvent:
    from_stage: int
    to_stage: int
    window_index: int
    confidence_after: float


def decide(probabilities, window_starts=None, window_indices=None):
    """One StageDecision per window; k̂ = argmax_k p^(k), first (smallest k)
    wins ties."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != len(STAGE_NAMES):
        raise InputError(f"expected (T, {len(STAGE_NAMES)}) probabilities, got {probs.shape}")
    n = probs.shape[0]
    if window_indices is None:
        window_indices = range(n)
    if window_starts is None:
        window_starts = [float(i) * WINDOW_SECONDS for i in window_indices]
    decisions = []
    prev = None
    for i, (wi, ws) in enumerate(zip(window_indices, window_starts)):
        k = int(probs[i].argmax())
        decisions.append(StageDecision(
            window_index=int(wi),
            window_start=float(ws),
            stage=k,
            stage_name=STAGE_NAMES[k],
            confidence=float(probs[i, k]),
            previous_stage=prev,
        ))
        prev = k
    return decisions


def transitions(decisions):
    """One event per adjacent pair of differing stages."""
    events = []
    for prev, cur in zip(decisions, decisions[1:]):
        if cur.stage != prev.stage:
            events.append(TransitionEvent(
                from_stage=prev.stage,
                to_stage=cur.stage,
                window_index=cur.window_index,
                confidence_after=cur.confidence,
            ))
    return events


def export_alerts(decisions, transition_events, path) -> int:
    """Write one JSONL record per decision to the file at `path`, replacing
    it; returns the record count."""
    transition_windows = {t.window_index for t in transition_events}
    with open(path, "w") as sink:
        for d in decisions:
            record = {
                "version": ALERT_SCHEMA_VERSION,
                "ts": d.window_start,
                "window": d.window_index,
                "stage_id": d.stage,
                "stage_name": d.stage_name,
                "confidence": d.confidence,
                "prev_stage_id": d.previous_stage,
                "is_transition": d.window_index in transition_windows,
            }
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return len(decisions)
