"""Spans around the calls into each rankflex module, recorded from outside.

Each traced function is replaced, for the length of a traced round, at the
name its caller looks up: a module global for functions imported by name
(``training.score_all``, ``cli.trace_lines``) and the class attribute for
methods (``ToyModel.forward``). A span keeps its name, start, end and the
nearest enclosing opaque span. An opaque span's self time is its duration
minus its opaque children's durations; a transparent span (one per
``LinearLayer.forward``) reports its full duration and hides nothing from
its parent, so ``model.forward`` self time excludes only ``adapter.forward``.
Spans stay in memory and are summed when the round ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.opaque = [], [], [], [], []
        self.open_opaque = []
        self.counts = defaultdict(int)
        self.enabled = False

    def open(self, name, opaque=True):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self.open_opaque[-1] if self.open_opaque else -1)
        self.opaque.append(opaque)
        self.ends.append(0.0)
        if opaque:
            self.open_opaque.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        if self.opaque[i]:
            self.open_opaque.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name, opaque=True, on_return=None):
        """``fn`` with a span; ``name`` may be a callable of the call's args."""
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.open(name(args) if callable(name) else name, opaque)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_return is not None:
                on_return(self.counts, args, result)
            return result
        return traced

    def summary(self):
        """name -> (calls, inclusive seconds, self seconds, per-call durations)."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        counted = np.array(self.opaque, dtype=bool) & (parents >= 0)
        np.add.at(child, parents[counted], dur[counted])
        out = {}
        for name, d, s in zip(self.names, dur, dur - child):
            calls, incl, self_s, each = out.get(name, (0, 0.0, 0.0, []))
            each.append(d)
            out[name] = (calls + 1, incl + d, self_s + s, each)
        return out

    def span_times(self, name):
        return [(s, e) for n, s, e in zip(self.names, self.starts, self.ends) if n == name]


def _count_events(counts, args, result):
    counts["trace.events"] += len(args[1])


def _count_changed(counts, args, result):
    counts["allocator.firings_changed"] += bool(result)


@contextmanager
def traced(tracer, layer_names):
    """Install the spans for one round; ``layer_names`` maps id(LinearLayer)
    to its ``model.linear<i>`` name and is filled when the model is built."""
    from rankflex import adapter, checkpoint, cli, model, optim, tasks, training

    def on_build(counts, args, built):
        linear = [l for l in built.layers if isinstance(l, model.LinearLayer)]
        layer_names.update({id(l): f"model.linear{i}.forward" for i, l in enumerate(linear)})

    targets = [
        (cli, "load_config_file", "config.parse"),
        (cli, "apply_overrides", "config.parse"),
        (cli, "parse_config", "config.parse"),
        (cli, "run_training", "training.run"),
        (cli, "checkpoint_lines", "checkpoint.serialize"),
        (cli, "trace_lines", "trace.serialize", True, _count_events),
        (cli, "read_trace", "trace.read"),
        (cli, "verify_trace", "trace.verify"),
        (cli, "heatmap_csv_lines", "trace.heatmap"),
        (training, "build_model", "model.build", True, on_build),
        (training, "build_teacher", "tasks.teacher"),
        (training, "sample_regression", "tasks.sample"),
        (training, "score_all", "importance.score"),
        (training, "select_candidates", "allocator.select"),
        (training, "apply_allocation", "allocator.apply", True, _count_changed),
        (model.ToyModel, "forward", "model.forward"),
        (model.ToyModel, "loss_and_grad", "model.loss"),
        (model.ToyModel, "backward", "model.backward"),
        (model.ToyModel, "trainable_params", "model.trainable_params"),
        (model.LinearLayer, "forward",
         lambda args: layer_names.get(id(args[0]), "model.linear.forward"), False),
        (adapter.SvdAdapter, "forward", "adapter.forward"),
        (adapter.SvdAdapter, "ortho_regularizer_grad", "adapter.ortho_grad"),
        (adapter.SvdAdapter, "prune_rank", "adapter.prune"),
        (adapter.SvdAdapter, "expand_rank", "adapter.expand"),
        (adapter, "gram_schmidt_extend", "linalg.gram_schmidt"),
        (tasks, "gram_schmidt_extend", "linalg.gram_schmidt"),
        (optim.AdamW, "step", "optim.step"),
        (optim.AdamW, "sync_rank_change", "optim.sync"),
        (checkpoint, "parse_checkpoint_lines", "checkpoint.parse"),
    ]
    saved = []
    try:
        for owner, attr, name, *rest in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, *rest))
        tracer.enabled = True
        yield tracer
    finally:
        tracer.enabled = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
