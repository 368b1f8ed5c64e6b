"""README's Python code runs as written."""
import re
from functools import partial
from pathlib import Path

from aptstage import training
from aptstage.features import FeaturizerConfig, fit_vocab_and_stats
from aptstage.graphs import build_graph_sequence
from aptstage.telemetry import ScenarioConfig, default_campaign_schedule, generate_scenario
from aptstage.training import featurize_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def tiny_traces():
    """Two labeled 6-window traces of a sparse 1-host campaign, featurized with a
    featurizer fitted on both."""
    sequences = []
    for seed in (0, 1):
        events, alerts, labels = generate_scenario(ScenarioConfig(
            num_hosts=1, duration=1800.0, stage_schedule=default_campaign_schedule(1800.0),
            benign_event_rate=0.01, attack_event_rate=0.02, seed=seed))
        sequences.append((build_graph_sequence(events, alerts), labels))
    fcfg = FeaturizerConfig()
    vocab, stats = fit_vocab_and_stats([g for gs, _ in sequences for g in gs], fcfg)
    return [featurize_trace(f"t{i}", gs, labels, vocab, stats, fcfg)
            for i, (gs, labels) in enumerate(sequences)]


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks, "README has no python code block"
    traces = tiny_traces()
    windows = [(w.X, w.Z, w.graph) for w in traces[0].windows]
    # the documented defaults, with a training budget of a few epochs
    monkeypatch.setattr(training, "PretrainConfig", partial(training.PretrainConfig, epochs=2))
    monkeypatch.setattr(training, "FinetuneConfig",
                        partial(training.FinetuneConfig, phase1_epochs=1, phase2_epochs=2))
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        namespace = {"traces": traces, "windows": windows}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["probs"].shape == (len(windows), 7)
    lines = (tmp_path / "stage_alerts.jsonl").read_text().splitlines()
    assert len(lines) == len(windows)
