"""Discrete stage decisions, transitions, and the JSONL alert export."""
import json

import numpy as np
import pytest

from aptstage.errors import InputError
from aptstage.evaluation import temporal_flip_rate
from aptstage.mapping import (
    STAGE_NAMES,
    decide,
    export_alerts,
    transitions,
)


def probs_for(stages, confidence=0.9):
    out = np.full((len(stages), 7), (1.0 - confidence) / 6.0)
    for t, k in enumerate(stages):
        out[t, k] = confidence
    return out


def test_stage_names():
    assert len(STAGE_NAMES) == 7
    assert STAGE_NAMES[0] == "Normal"
    assert STAGE_NAMES[4] == "Lateral Movement"
    assert STAGE_NAMES[6] == "Exfiltration"


def test_decide_argmax_and_confidence():
    ds = decide(probs_for([0, 3, 6], confidence=0.8))
    assert [d.stage for d in ds] == [0, 3, 6]
    assert [d.stage_name for d in ds] == ["Normal", "Privilege Escalation",
                                          "Exfiltration"]
    assert all(abs(d.confidence - 0.8) < 1e-12 for d in ds)
    assert [d.previous_stage for d in ds] == [None, 0, 3]


def test_decide_tie_breaks_to_smallest_class():
    p = np.zeros((1, 7))
    p[0, 2] = 0.5
    p[0, 5] = 0.5
    assert decide(p)[0].stage == 2
    uniform = np.full((1, 7), 1.0 / 7.0)
    assert decide(uniform)[0].stage == 0


def test_decide_window_metadata_defaults():
    ds = decide(probs_for([1, 1]))
    assert [d.window_index for d in ds] == [0, 1]
    assert [d.window_start for d in ds] == [0.0, 300.0]
    ds = decide(probs_for([1, 1]), window_indices=[7, 8],
                window_starts=[2100.0, 2400.0])
    assert [d.window_index for d in ds] == [7, 8]
    assert ds[0].window_start == 2100.0


def test_decide_rejects_bad_shape():
    with pytest.raises(InputError):
        decide(np.zeros((3, 5)))
    with pytest.raises(InputError):
        decide(np.zeros(7))


def test_decide_empty_sequence_ok():
    assert decide(np.zeros((0, 7))) == []


def test_transitions_adjacent_pairs():
    ds = decide(probs_for([0, 0, 2, 2]))
    evs = transitions(ds)
    assert len(evs) == 1
    assert (evs[0].from_stage, evs[0].to_stage, evs[0].window_index) == (0, 2, 2)

    ds = decide(probs_for([1, 2, 1]))
    evs = transitions(ds)
    assert [(e.from_stage, e.to_stage) for e in evs] == [(1, 2), (2, 1)]


def test_transition_count_matches_flip_rate_numerator(rng):
    stages = rng.integers(0, 7, size=30).tolist()
    ds = decide(probs_for(stages))
    evs = transitions(ds)
    assert len(evs) == round(temporal_flip_rate(stages) * (len(stages) - 1))


def test_export_alert_schema(tmp_path):
    ds = decide(probs_for([0, 5, 5]), window_starts=[0.0, 300.0, 600.0])
    evs = transitions(ds)
    path = tmp_path / "alerts.jsonl"
    n = export_alerts(ds, evs, path)
    assert n == 3
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 3
    first = lines[0]
    assert set(first) == {"version", "ts", "window", "stage_id", "stage_name",
                          "confidence", "prev_stage_id", "is_transition"}
    assert first["version"] == 1
    assert first["stage_id"] == 0 and first["stage_name"] == "Normal"
    assert first["prev_stage_id"] is None
    assert lines[1]["is_transition"] is True
    assert lines[2]["is_transition"] is False
    assert lines[2]["prev_stage_id"] == 5
    assert lines[1]["ts"] == 300.0


def test_export_to_path(tmp_path):
    ds = decide(probs_for([3, 4]))
    path = tmp_path / "alerts.jsonl"
    n = export_alerts(ds, transitions(ds), path)
    assert n == 2
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["stage_name"] for r in rows] == ["Privilege Escalation",
                                               "Lateral Movement"]


def test_export_empty(tmp_path):
    path = tmp_path / "alerts.jsonl"
    assert export_alerts([], [], path) == 0
    assert path.read_text() == ""
