"""The three workloads: set-up, one round of operations, and output checks.

A round is the unit the timed section repeats until `--seconds` have
passed. `pretrain` and `finetune` restore the seeded initial parameters at
the start of every round, so each round is the same training run and must
log the same losses. `stream-infer` replays the same eleven traces each round.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from aptstage import errors, evaluation, features, graphs, mapping, model, telemetry, training

import inputs
import oracles
from tracing import Patcher

# Seed-derivation tags, one per input set, so workloads never share traces.
TAG_PRETRAIN, TAG_FINETUNE, TAG_STREAM, TAG_STREAM_FIT = 1, 2, 3, 4

# The repo protocol's dimensions (d_h = 32, d_g = 32, H = 64).
DIMS = dict(d_h=32, d_g=32, hidden=64)

PRETRAIN_TRACES = 64      # one full B = 64, L = 20 batch per epoch
PRETRAIN_EPOCHS = 2       # per round
LABELED_TRACES = 18       # the protocol's label-scarce arm
VAL_TRACES = 20
STREAM_FIT_TRACES = 10    # training corpus the stream featurizer is fitted on
SAMPLE_TRACES = (1, 4)    # stream traces re-run on a prefix for causality
SIMPLEX_TOL = 1e-9
EXACT_TOL = 1e-12


@dataclass
class Round:
    ops: list            # seconds per operation
    windows: int         # windows through training steps, or windows decided
    output: object       # kept for the last round only, see `run._measure`
    digest: object       # what must repeat exactly from round to round
    failed: int = 0


@dataclass
class Checks:
    failures: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


class StepClock:
    """Times optimizer steps and counts windows through training steps by
    wrapping `adam_step` and `recurrent_forward` as the training loops see
    them. An operation runs from one `adam_step` return to the next, the
    first from the start of the round."""

    def __init__(self):
        self.stamps, self.rows = [], 0
        self._patcher = Patcher()

    def __enter__(self):
        def stamp(fn):
            def stamped(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.stamps.append(perf_counter())
                return out
            return stamped

        def count(fn):
            def counted(x, *args, **kwargs):
                self.rows += x.data.shape[0]
                return fn(x, *args, **kwargs)
            return counted

        self._patcher.replace("aptstage.training.loops", "adam_step", stamp)
        self._patcher.replace("aptstage.training.loops", "recurrent_forward", count)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def ops(self) -> list:
        return list(np.diff([self.start] + self.stamps))


def _model_config(seed: int):
    return model.ModelConfig(seed=seed, **DIMS)


def _featurized(corpus, mcfg, fit_on: int, labeled: bool):
    """Graphs for every trace, a featurizer fitted on the first `fit_on`
    traces, and `training.Trace`s of featurized windows."""
    built = [graphs.build_graph_sequence(events, alerts) for events, alerts, _ in corpus]
    vocab, stats = features.fit_vocab_and_stats(
        [g for gs in built[:fit_on] for g in gs], mcfg.featurizer)
    traces = []
    for i, (gs, (_, _, labels)) in enumerate(zip(built, corpus)):
        windows = [training.WindowRecord(*features.featurize_graph(g, vocab, stats, mcfg.featurizer),
                                         graph=g, label=labels[w] if labeled else None)
                   for w, g in enumerate(gs)]
        traces.append(training.Trace(trace_id=f"trace{i:03d}", windows=windows))
    return traces


def _check_corpus_graphs(checks: Checks, corpus, traces) -> None:
    """Window and alert-node counts of set-up graphs against the raw records."""
    for (events, alerts, _), tr in zip(corpus, traces):
        ev = [e.timestamp for e in events]
        al = [a.timestamp for a in alerts]
        checks.expect(len(tr.windows) == oracles.window_count(ev + al),
                      f"{tr.trace_id}: window count differs from raw timestamps")
        checks.expect([_alert_nodes(w.graph) for w in tr.windows] == oracles.alerts_per_window(ev, al),
                      f"{tr.trace_id}: alert nodes differ from the raw alert stream")


def _alert_nodes(g) -> int:
    return sum(1 for nd in g.nodes if nd.kind is graphs.NodeKind.ALERT)


def _triggered_by(g) -> int:
    return sum(1 for e in g.edges if e.relation is graphs.Relation.TRIGGERED_BY)


def _finite_params(store) -> bool:
    return all(np.isfinite(v).all() for v in store.params.values())


@dataclass
class TrainState:
    corpus: list
    traces: list
    mcfg: object
    store: object
    init: dict
    cfg: object


class Pretrain:
    name = "pretrain"
    # A step takes seconds; three rounds give each step of a round a median
    # over three samples, one of them the cold first round.
    min_rounds = 3

    def setup(self, seed: int, workdir: str) -> TrainState:
        corpus = inputs.protocol_corpus(seed, TAG_PRETRAIN, PRETRAIN_TRACES)
        mcfg = _model_config(seed)
        traces = _featurized(corpus, mcfg, fit_on=len(corpus), labeled=False)
        store = model.build_param_store(mcfg)
        cfg = training.PretrainConfig(epochs=PRETRAIN_EPOCHS, seed=seed)
        return TrainState(corpus, traces, mcfg, store, store.snapshot(), cfg)

    def fingerprint(self, st: TrainState) -> str:
        return inputs.fingerprint(st.corpus)

    def round(self, st: TrainState) -> Round:
        st.store.set_values(st.init)
        with StepClock() as clock:
            result = training.pretrain(st.traces, st.store, st.mcfg, st.cfg)
        return Round(clock.ops(), clock.rows, None, result.loss_log)

    def check(self, st: TrainState, rounds) -> Checks:
        checks = Checks()
        _check_corpus_graphs(checks, st.corpus, st.traces)
        logs = [r.digest for r in rounds]
        for log in logs:
            checks.expect(all(np.isfinite([e["loss_pred"], e["loss_ctr"], e["loss_ssl"]]).all()
                              for e in log), "non-finite pretraining loss")
            checks.expect(log[-1]["loss_ssl"] < log[0]["loss_ssl"],
                          "L_ssl did not fall from the first epoch to the last")
            checks.expect(log == logs[0], "rounds from the same init logged different losses")
        checks.expect(_finite_params(st.store), "non-finite parameters after pretraining")
        per_epoch = oracles.windows_per_epoch([len(t.windows) for t in st.traces],
                                              st.cfg.seq_len, min_len=2)
        for r in rounds:
            checks.expect(r.windows == per_epoch * st.cfg.epochs,
                          f"trained {r.windows} windows, expected {per_epoch * st.cfg.epochs}")
        checks.extras["ssl_loss_ratio"] = (logs[0][-1]["loss_ssl"] / logs[0][0]["loss_ssl"], "1")
        return checks


@dataclass
class FinetuneState(TrainState):
    val: list = field(default_factory=list)


class Finetune:
    name = "finetune"
    min_rounds = 1

    def setup(self, seed: int, workdir: str) -> FinetuneState:
        corpus = inputs.protocol_corpus(seed, TAG_FINETUNE, LABELED_TRACES + VAL_TRACES)
        mcfg = _model_config(seed)
        traces = _featurized(corpus, mcfg, fit_on=LABELED_TRACES, labeled=True)
        store = model.build_param_store(mcfg)
        cfg = training.FinetuneConfig(phase1_epochs=6, phase1_lr=1e-3, phase2_epochs=12,
                                      phase2_lr=5e-4, patience=8, batch=8, seed=seed)
        return FinetuneState(corpus, traces[:LABELED_TRACES], mcfg, store, store.snapshot(),
                             cfg, val=traces[LABELED_TRACES:])

    def fingerprint(self, st: FinetuneState) -> str:
        return inputs.fingerprint(st.corpus)

    def round(self, st: FinetuneState) -> Round:
        st.store.set_values(st.init)
        with StepClock() as clock:
            result = training.finetune(st.traces, st.store, st.mcfg, st.cfg, val_traces=st.val)
        return Round(clock.ops(), clock.rows, None, result.metric_log)

    def _expected_windows(self, st: FinetuneState, log) -> int:
        lengths = [len(t.windows) for t in st.traces]
        total = 0
        for phase, epochs in (("phase1", st.cfg.phase1_epochs), ("phase2", st.cfg.phase2_epochs)):
            for e in (e for e in log if e["phase"] == phase):
                seq_len = oracles.curriculum(st.cfg.curriculum_start, st.cfg.curriculum_end,
                                             e["epoch"], epochs)
                if seq_len != e["seq_len"]:
                    return -1
                total += oracles.windows_per_epoch(lengths, seq_len, min_len=1)
        return total

    def check(self, st: FinetuneState, rounds) -> Checks:
        checks = Checks()
        _check_corpus_graphs(checks, st.corpus, st.traces + st.val)
        logs = [r.digest for r in rounds]
        for r in rounds:
            checks.expect(r.digest == logs[0], "rounds from the same init logged different metrics")
            checks.expect(r.windows == self._expected_windows(st, r.digest),
                          "windows trained differ from the corpus, epochs and curriculum")
        checks.expect(_finite_params(st.store), "non-finite parameters after fine-tuning")

        probs = [model.infer_probabilities([(w.X, w.Z, w.graph) for w in tr.windows], st.store, st.mcfg)
                 for tr in st.val]
        checks.expect(max(oracles.simplex_error(p) for p in probs) <= SIMPLEX_TOL,
                      "probability row off the simplex")
        y_true = [w.label for tr in st.val for w in tr.windows]
        preds = [[oracles.argmax(row) for row in p] for p in probs]
        y_pred = [k for seq in preds for k in seq]
        f1, per_class = oracles.macro_f1(y_true, y_pred)
        program = evaluation.classification_metrics(y_true, y_pred)["macro_f1"]
        checks.expect(abs(f1 - program) <= EXACT_TOL,
                      f"oracle macro-F1 {f1!r} != classification_metrics {program!r}")
        best = max(e["val_f1"] for e in logs[-1] if e["phase"] == "phase2")
        checks.expect(abs(f1 - best) <= EXACT_TOL,
                      f"held-out macro-F1 {f1!r} != best phase-2 val_f1 {best!r}")
        majority = oracles.majority_macro_f1([w.label for tr in st.traces for w in tr.windows], y_true)
        checks.expect(f1 > majority, f"macro-F1 {f1:.4f} does not beat majority class {majority:.4f}")
        tfr = oracles.flip_rate(preds)
        checks.expect(abs(tfr - evaluation.flip_rate_over_traces(preds)) <= EXACT_TOL,
                      "oracle flip rate differs from evaluation.flip_rate_over_traces")

        checks.extras["macro_f1"] = (f1, "1")
        checks.extras["majority_macro_f1"] = (majority, "1")
        checks.extras["tfr"] = (tfr, "1")
        checks.extras["per_class_f1"] = ([round(v, 6) for v in per_class], "1")
        checks.extras["epochs"] = ({p: sum(e["phase"] == p for e in logs[-1]) for p in ("phase1", "phase2")},
                                   "count")
        return checks


@dataclass
class StreamState:
    inputs: list
    mcfg: object
    vocab: object
    stats: object
    store: object
    workdir: str


@dataclass
class TraceOutput:
    graphs: list
    probs: np.ndarray
    decisions: list
    transitions: list
    alert_file: str


class StreamInfer:
    name = "stream-infer"
    # The host's speed drifts over tens of seconds and this pure-Python path
    # feels it most, so a run spans six rounds (about 30 s) to average it.
    min_rounds = 6

    def setup(self, seed: int, workdir: str) -> StreamState:
        traces = inputs.stream_inputs(seed, TAG_STREAM)
        fit_corpus = inputs.protocol_corpus(seed, TAG_STREAM_FIT, STREAM_FIT_TRACES)
        mcfg = _model_config(seed)
        vocab, stats = features.fit_vocab_and_stats(
            [g for events, alerts, _ in fit_corpus for g in graphs.build_graph_sequence(events, alerts)],
            mcfg.featurizer)
        return StreamState(traces, mcfg, vocab, stats, model.build_param_store(mcfg), workdir)

    def fingerprint(self, st: StreamState) -> str:
        return inputs.fingerprint(st.inputs)

    def _one(self, st: StreamState, events_text: str, alerts_text: str, alert_file: str):
        """Raw JSONL -> graphs -> graph JSONL round-trip -> features ->
        probabilities -> decisions -> stage-alert file, as the CLI's
        build-graphs and infer stages do it."""
        events = telemetry.parse_host_events(events_text)
        alerts = telemetry.parse_alerts(alerts_text)
        built = [graphs.build_graph(w) for w in graphs.window_events(events, alerts)]
        buf = io.StringIO()
        graphs.dump_graphs_jsonl(built, buf)
        buf.seek(0)
        loaded = graphs.load_graphs_jsonl(buf)
        feats = [features.featurize_graph(g, st.vocab, st.stats, st.mcfg.featurizer) + (g,)
                 for g in loaded]
        probs = model.infer_probabilities(feats, st.store, st.mcfg)
        decisions = mapping.decide(probs, window_starts=[g.window_start for g in loaded],
                                   window_indices=[g.window_index for g in loaded])
        trans = mapping.transitions(decisions)
        mapping.export_alerts(decisions, trans, alert_file)
        return TraceOutput(loaded, probs, decisions, trans, alert_file)

    def round(self, st: StreamState) -> Round:
        ops, outputs, windows, failed = [], [], 0, 0
        for i, (events_text, alerts_text, _) in enumerate(st.inputs):
            t0 = perf_counter()
            try:
                out = self._one(st, events_text, alerts_text,
                                os.path.join(st.workdir, f"stage_alerts_{i}.jsonl"))
            except errors.AptStageError:
                out = None
                failed += 1
            ops.append(perf_counter() - t0)
            outputs.append(out)
            windows += len(out.decisions) if out else 0
        return Round(ops, windows, outputs, [o and o.probs for o in outputs], failed)

    def check(self, st: StreamState, rounds) -> Checks:
        checks = Checks()
        last = rounds[-1].output
        for i, ((events_text, alerts_text, _), out) in enumerate(zip(st.inputs, last)):
            if out is None:
                continue
            name = f"stream trace {i}"
            for r in rounds:
                other = r.digest[i]
                checks.expect(other is None or np.array_equal(other, out.probs),
                              f"{name}: rounds gave different probabilities")
            for g in out.graphs:
                try:
                    g.validate()
                except errors.GraphConsistencyError as exc:
                    checks.failures.append(f"{name}: graph {g.window_index} invalid: {exc}")
            ev = oracles.jsonl_timestamps(events_text)
            al = oracles.jsonl_timestamps(alerts_text)
            n = oracles.window_count(ev + al)
            checks.expect(len(out.graphs) == n and len(out.decisions) == n and out.probs.shape[0] == n,
                          f"{name}: {len(out.decisions)} decisions for {n} windows")
            per_window = oracles.alerts_per_window(ev, al)
            checks.expect([_alert_nodes(g) for g in out.graphs] == per_window,
                          f"{name}: alert nodes differ from the raw alert stream")
            checks.expect([_triggered_by(g) for g in out.graphs] == per_window,
                          f"{name}: triggered_by edges differ from the raw alert stream")
            checks.expect(oracles.simplex_error(out.probs) <= SIMPLEX_TOL,
                          f"{name}: probability row off the simplex")
            checks.expect(all(d.stage == oracles.argmax(row) for d, row in zip(out.decisions, out.probs)),
                          f"{name}: a decision is not the argmax of its probabilities")
            stages = [d.stage for d in out.decisions]
            checks.expect(len(out.transitions) == oracles.flips(stages),
                          f"{name}: transitions differ from the decision flips")
            with open(out.alert_file) as fh:
                lines = sum(1 for line in fh if line.strip())
            checks.expect(lines == len(out.decisions), f"{name}: {lines} stage alerts for "
                          f"{len(out.decisions)} decisions")
            if i in SAMPLE_TRACES:
                feats = [features.featurize_graph(g, st.vocab, st.stats, st.mcfg.featurizer) + (g,)
                         for g in out.graphs]
                k = len(feats) // 2
                prefix = model.infer_probabilities(feats[:k], st.store, st.mcfg)
                err = float(np.max(np.abs(prefix - out.probs[:k])))
                checks.expect(err <= EXACT_TOL, f"{name}: prefix probabilities differ by {err:.2e}")
        done = [o for o in last if o is not None]
        checks.extras["tfr"] = (oracles.flip_rate([[d.stage for d in o.decisions] for o in done]), "1")
        checks.extras["windows_per_round"] = (sum(len(o.decisions) for o in done), "count")
        return checks


WORKLOADS = {w.name: w for w in (Pretrain(), Finetune(), StreamInfer())}
