"""Spans around the public entry points of each dtanet layer.

The benchmark does not change the package. A :class:`Patcher` swaps a
function or method for a wrapper in every ``dtanet`` module that binds it,
and puts the original back afterwards, so an untraced operation runs the
package's own code untouched. A :class:`Tracer` uses it to record one span per
call: name, start, end, parent span, and the benchmark operation, fold and
epoch the call belongs to. Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time covered by its child
spans. Calls run on one thread, so children never overlap and the self times
of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metric -> (span name, what to read). "self" is summed self time,
# "calls" the number of spans; the others are read by the hooks below.
LAYER_METRICS = {
    "engine.forward.calls": ("engine.forward", "calls"),
    "engine.forward.busy_s": ("engine.forward", "self"),
    "engine.backward.busy_s": ("engine.backward", "self"),
    "engine.backward.grad_mb": ("engine.backward", "mean:grad_mb"),
    "engine.adam.calls": ("engine.adam", "calls"),
    "engine.adam.busy_s": ("engine.adam", "self"),
    "engine.adam.zero_row_share": ("engine.adam", "mean:zero_row_share"),
    "model.store_init.busy_s": ("model.store_init", "self"),
    "model.feeds.calls": ("model.feeds", "calls"),
    "model.feeds.busy_s": ("model.feeds", "self"),
    "model.protein_distinct_share": ("engine.forward", "mean:protein_distinct_share"),
    "model.predict.busy_s": ("model.predict", "self"),
    "model.load.busy_s": ("model.load", "self"),
    "model.build.busy_s": ("model.build", "self"),
    "model.save.busy_s": ("model.save", "self"),
    "model.save.mb": ("model.save", "sum:save_mb"),
    "smiles.parse.calls": ("smiles.parse", "calls"),
    "smiles.parse.busy_s": ("smiles.parse", "self"),
    "compounds.ecfp.calls": ("compounds.ecfp", "calls"),
    "compounds.ecfp.busy_s": ("compounds.ecfp", "self"),
    "compounds.atom_features.busy_s": ("compounds.atom_features", "self"),
    "proteins.psc.calls": ("proteins.psc", "calls"),
    "proteins.psc.busy_s": ("proteins.psc", "self"),
    "data.load.busy_s": ("data.load", "self"),
    "graphconv.pack.calls": ("graphconv.pack", "calls"),
    "graphconv.pack.busy_s": ("graphconv.pack", "self"),
    "graphconv.forward.busy_s": ("graphconv.forward", "self"),
    "graphconv.backward.busy_s": ("graphconv.backward", "self"),
    "training.train.busy_s": ("training.train", "self"),
    "training.validation.calls": ("training.validation", "calls"),
    "training.validation.busy_s": ("training.validation", "self"),
    "metrics.ci.calls": ("metrics.ci", "calls"),
    "metrics.ci.busy_s": ("metrics.ci", "self"),
    "splits.cluster.calls": ("splits.cluster", "calls"),
    "splits.cluster.busy_s": ("splits.cluster", "self"),
    "splits.cluster.pairs_compared": ("splits.cluster", "sum:pairs_compared"),
    "splits.assign.busy_s": ("splits.assign", "self"),
    "splits.audit.busy_s": ("splits.audit", "self"),
    "pipeline.run_cv.self_s": ("pipeline.run_cv", "self"),
    "pipeline.run_predict.self_s": ("pipeline.run_predict", "self"),
}


def _dtanet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dtanet" or name.startswith("dtanet."))]


class Patcher:
    """Replace callables in place and restore them in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make_wrapper) -> None:
        """Rebind ``module.attr`` in every dtanet module that imported it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _dtanet_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans for the traced operations of one benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # [name, start, end, parent, op, fold, epoch]
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self.op = ""
        self.fold = 0
        self.epoch = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           self.fold, self.epoch])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, before=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    self._hook(before, args, kwargs)
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if after is not None:
                    self._hook(after, args, kwargs, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _hook(self, hook, *args) -> None:
        # Reading counts is tracing cost: it gets its own span so that it
        # does not land in the self time of the caller's layer.
        index = self._open("trace.hook")
        try:
            hook(self, *args)
        finally:
            self._close(index)

    @contextmanager
    def active(self, op: str, root: str = "bench.op"):
        """Trace everything called inside the block under one root span."""
        patcher = self._install()
        self.op = op
        self.fold = 0
        self.epoch = 0
        index = self._open(root)
        try:
            yield
        finally:
            self._close(index)
            patcher.restore()

    def _install(self) -> Patcher:
        from dtanet import (compounds, data, engine, graphconv, metrics, model,
                            pipeline, proteins, smiles, splits, training)

        p = Patcher()
        w = self._wrap
        p.method(engine.Graph, "forward",
                 w("engine.forward", before=_protein_share))
        p.method(engine.Graph, "backward", w("engine.backward", after=_grad_mb))
        p.method(engine.Adam, "step", w("engine.adam", before=_zero_rows))
        p.method(model.FeatureStore, "__init__", w("model.store_init"))
        p.method(model.FeatureStore, "feeds", w("model.feeds"))
        p.method(model.FeatureStore, "predict", w("model.predict"))
        p.method(model.Model, "predict_feeds", w("model.predict"))
        p.method(model.Model, "build", w("model.build"))
        p.method(model.Model, "load", w("model.load"))
        p.method(model.Model, "save", w("model.save", after=_save_mb))
        for cls in (graphconv.GraphConv, graphconv.GraphPool,
                    graphconv.GraphGather):
            p.method(cls, "compute", w("graphconv.forward"))
            p.method(cls, "backprop", w("graphconv.backward"))
        p.function(smiles, "parse_smiles", w("smiles.parse"))
        p.function(compounds, "ecfp", w("compounds.ecfp"))
        p.function(compounds, "atom_features", w("compounds.atom_features"))
        p.function(proteins, "psc", w("proteins.psc"))
        p.function(data, "load_dataset", w("data.load"))
        p.function(graphconv, "pack_graphs", w("graphconv.pack"))
        p.function(training, "train", w("training.train", before=_next_fold))
        p.function(training, "validation_scores",
                   w("training.validation", after=_next_epoch))
        p.function(metrics, "concordance_index", w("metrics.ci"))
        p.function(splits, "cluster_compounds",
                   w("splits.cluster", before=_pairs_compared))
        for attr in ("cold_cluster_split", "warm_split", "cold_entity_split",
                     "random_split"):
            p.function(splits, attr, w("splits.assign"))
        for attr in ("audit_clusters", "audit_cold", "audit_warm"):
            p.function(splits, attr, w("splits.audit"))
        p.function(pipeline, "run_cv", w("pipeline.run_cv"))
        p.function(pipeline, "run_predict", w("pipeline.run_predict"))
        return p

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_n, start, end, *_rest) in enumerate(self.spans)]

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, *_ in self.spans
                   if parent is None)

    def layer_metrics(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            busy[span[0]] += own
            calls[span[0]] += 1
        out = {}
        for metric, (span, read) in LAYER_METRICS.items():
            if read == "self":
                out[metric] = busy[span]
            elif read == "calls":
                out[metric] = calls[span]
            else:
                how, key = read.split(":")
                values = self.values[key]
                if how == "sum":
                    out[metric] = float(sum(values))
                else:
                    out[metric] = float(np.mean(values)) if values else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """All spans as JSON lines after one header line; written once."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for (name, start, end, parent, op, fold, epoch), own in zip(
                    self.spans, self.self_times()):
                handle.write(json.dumps({
                    "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "op": op,
                    "fold": fold, "epoch": epoch, "self_s": own}) + "\n")


# -- hooks: read counts where the work happens --------------------------------


def _protein_share(tracer, args, kwargs):
    feeds = args[1] if len(args) > 1 else kwargs["feeds"]
    rows = feeds.get("protein")
    if rows is not None and len(rows):
        distinct = len({row.tobytes() for row in rows})
        tracer.values["protein_distinct_share"].append(distinct / len(rows))


def _grad_mb(tracer, args, kwargs, _result):
    graph = args[0]
    filled = sum(node.grad.nbytes for node in graph.nodes
                 if isinstance(getattr(node, "grad", None), np.ndarray))
    tracer.values["grad_mb"].append(filled / 1e6)


def _zero_rows(tracer, args, kwargs):
    adam = args[0]
    for param in adam.parameters:
        if param.name == "dense0.W" and param.grad is not None:
            zero = ~param.grad.any(axis=1)
            tracer.values["zero_row_share"].append(float(zero.mean()))


def _save_mb(tracer, args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.values["save_mb"].append(os.path.getsize(path) / 1e6)


def _pairs_compared(tracer, args, kwargs):
    fingerprints = args[0] if args else kwargs["fingerprints"]
    n = len(fingerprints)
    tracer.values["pairs_compared"].append(n * (n - 1) / 2)


def _next_fold(tracer, args, kwargs):
    tracer.fold += 1
    tracer.epoch = 1


def _next_epoch(tracer, args, kwargs, _result):
    tracer.epoch += 1
