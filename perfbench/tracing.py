"""Span tracing around the program's public functions, from outside the program.

`Patcher` replaces a function under the name a calling module looks it up
by (`from x import f` binds `f` in the caller, so the caller's binding is
the one replaced) and restores every original afterwards. `Tracer` records
one span per wrapped call: name, start, end, the enclosing span and a work
count. A span's self time is its duration minus the time its child spans
cover; `layer_metrics` turns the spans into the per-layer metrics.
"""
from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter


class Patcher:
    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make):
        """Set owner.attr = make(original); `owner` is a module path or object."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if count is not None:
                rec[4] = count(args, out)
            return out
        return traced

    def totals(self) -> dict:
        """name -> [calls, inclusive s, self s, count]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, count) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
            row[3] += count
        return out

    def coverage(self, t0: float, t1: float) -> float:
        """Share of [t0, t1] covered by top-level spans that start inside it."""
        covered = sum(e - s for _, s, e, parent, _ in self.spans
                      if parent < 0 and t0 <= s < t1)
        return covered / (t1 - t0)


def _tape_size(root):
    """(nodes, bytes of node values) of the autodiff tape behind `root`."""
    seen, stack, nbytes = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


def _n(args, out):
    return len(out)


# (module as the caller sees it, attribute, span name, work count)
LAYER_PATCHES = (
    ("aptstage.telemetry", "parse_host_events", "telemetry.parse", _n),
    ("aptstage.telemetry", "parse_alerts", "telemetry.parse", _n),
    ("aptstage.graphs", "window_events", "graphs.window", None),
    ("aptstage.graphs", "build_graph", "graphs.build", None),
    ("aptstage.graphs", "dump_graphs_jsonl", "graphs.io", None),
    ("aptstage.graphs", "load_graphs_jsonl", "graphs.io", _n),
    ("aptstage.features", "fit_vocab_and_stats", "features.fit", None),
    ("aptstage.features", "featurize_graph", "features.featurize", None),
    ("aptstage.model", "pack_graphs", "encoder.pack", None),
    ("aptstage.model", "encode_packed", "encoder.forward", lambda a, out: a[0].n_nodes),
    ("aptstage.encoder", "project_packed", "encoder.project", None),
    ("aptstage.encoder", "message_passing_packed", "encoder.message_passing", None),
    ("aptstage.encoder", "attention_readout", "encoder.readout", None),
    ("aptstage.model", "recurrent_forward", "estimator.recurrent", None),
    ("aptstage.training.loops", "recurrent_forward", "estimator.recurrent", None),
    ("aptstage.model", "classify", "estimator.heads", None),
    ("aptstage.training.loops", "classify", "estimator.heads", None),
    ("aptstage.training.loops", "predict_next", "estimator.heads", None),
    ("aptstage.model", "infer_probabilities", "model.infer", lambda a, out: len(a[0])),
    ("aptstage.training.loops", "infer_probabilities", "model.infer", lambda a, out: len(a[0])),
    ("aptstage.training", "pretrain", "training.loop", None),
    ("aptstage.training", "finetune", "training.loop", None),
    ("aptstage.training.loops", "loss_pred", "training.loss", None),
    ("aptstage.training.loops", "loss_contrastive_pooled", "training.loss", None),
    ("aptstage.training.loops", "loss_supervised", "training.loss", None),
    ("aptstage.training.loops", "predict_trace", "training.validate", None),
    ("aptstage.training.loops", "macro_f1", "training.validate", lambda a, out: 1),  # once per epoch
    ("aptstage.training.loops", "clip_gradients", "nn.optimizer", None),
    ("aptstage.training.loops", "adam_step", "nn.optimizer", lambda a, out: 1),
    ("aptstage.mapping", "decide", "mapping.decide_export", _n),
    ("aptstage.mapping", "transitions", "mapping.decide_export", None),
    ("aptstage.mapping", "export_alerts", "mapping.decide_export", None),
)


def install(tracer: Tracer, patcher: Patcher) -> None:
    for module, attr, name, count in LAYER_PATCHES:
        patcher.replace(module, attr, lambda fn, n=name, c=count: tracer.wrap(n, fn, c))

    def backward(original):
        def traced(root):
            # The tape walk gets its own span so that neither nn.backward nor
            # the training loop's self time carries it.
            with tracer.span("bench.tape") as rec:
                nodes, nbytes = _tape_size(root)
            rec[4] = nbytes
            with tracer.span("nn.backward") as rec:
                rec[4] = nodes
                return original(root)
        return traced

    from aptstage.nn.tensor import Tensor
    patcher.replace(Tensor, "backward", backward)


CALLS, INCL, SELF, COUNT = range(4)  # fields of a `Tracer.totals()` row
STEPS = ("nn.optimizer", COUNT)       # one count per adam_step

# metric -> (unit, spans whose time it sums, which time, unit of work, scale)
LAYER_METRICS = {
    "telemetry.parse_us_per_record": ("us", ["telemetry.parse"], SELF, ("telemetry.parse", COUNT), 1e6),
    "graphs.build_us_per_window": ("us", ["graphs.window", "graphs.build"], SELF, ("graphs.build", CALLS), 1e6),
    "graphs.io_us_per_window": ("us", ["graphs.io"], SELF, ("graphs.io", COUNT), 1e6),
    "features.fit_ms": ("ms", ["features.fit"], SELF, ("features.fit", CALLS), 1e3),
    "features.featurize_us_per_window": ("us", ["features.featurize"], SELF, ("features.featurize", CALLS), 1e6),
    "encoder.pack_ms": ("ms/call", ["encoder.pack"], SELF, ("encoder.pack", CALLS), 1e3),
    "encoder.project_ms": ("ms/call", ["encoder.project"], SELF, ("encoder.project", CALLS), 1e3),
    "encoder.message_passing_ms": ("ms/round", ["encoder.message_passing"], SELF,
                                   ("encoder.message_passing", CALLS), 1e3),
    "encoder.readout_ms": ("ms/call", ["encoder.readout"], SELF, ("encoder.readout", CALLS), 1e3),
    "encoder.forward_ns_per_node": ("ns", ["encoder.forward"], INCL, ("encoder.forward", COUNT), 1e9),
    "estimator.recurrent_ms": ("ms/call", ["estimator.recurrent"], SELF, ("estimator.recurrent", CALLS), 1e3),
    "estimator.heads_ms": ("ms/call", ["estimator.heads"], SELF, ("estimator.heads", CALLS), 1e3),
    "training.loss_ms": ("ms/step", ["training.loss"], SELF, STEPS, 1e3),
    "training.loop_self_ms": ("ms/step", ["training.loop"], SELF, STEPS, 1e3),
    "training.validate_ms": ("ms/epoch", ["training.validate"], INCL, ("training.validate", COUNT), 1e3),
    "nn.backward_ms": ("ms/step", ["nn.backward"], SELF, ("nn.backward", CALLS), 1e3),
    "nn.optimizer_ms": ("ms/step", ["nn.optimizer"], SELF, STEPS, 1e3),
    "model.infer_us_per_window": ("us", ["model.infer"], INCL, ("model.infer", COUNT), 1e6),
    "mapping.decide_export_us_per_window": ("us", ["mapping.decide_export"], SELF,
                                            ("mapping.decide_export", COUNT), 1e6),
}


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from `Tracer.totals()`: name -> (value, unit). A
    layer that did not run in the workload reads 0."""
    def get(name, field):
        return totals.get(name, [0, 0.0, 0.0, 0])[field]

    def per(amount, n, scale):
        return amount / n * scale if n else 0.0

    out = {name: (per(sum(get(s, field) for s in spans), get(*unit_of_work), scale), unit)
           for name, (unit, spans, field, unit_of_work, scale) in LAYER_METRICS.items()}
    calls = get("nn.backward", CALLS)
    out["nn.tape_nodes"] = (per(get("nn.backward", COUNT), calls, 1.0), "nodes/step")
    out["nn.tape_mb"] = (per(get("bench.tape", COUNT), calls, 1e-6), "MB/step")
    return out
