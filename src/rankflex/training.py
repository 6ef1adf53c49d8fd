"""Deterministic training loop wiring adapters, metrics, and allocation.

A run is a pure function of its TrainConfig: the seed is split into
independent streams (model init, task/teacher, batch sampling, expansion
vectors) via SeedSequence spawning, so identical configs produce
byte-identical traces, metrics, and checkpoints.

Step order: sample batch, forward, loss, divergence check, backward,
sensitivity EMA update (when that metric is active), optimizer step, then —
at allocation steps with nonzero budget — score, select, apply, and sync the
optimizer state to the new ranks. The name-keyed parameter dict handed to the
optimizer is collected before the first step and again after each such
allocation step, the only place where arrays are replaced.
The result keeps the teacher for held-out evaluation but not the training
data set, which is freed when the run returns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .allocator import ALLOCATOR_MODES, BudgetSchedule, apply_allocation, select_candidates
from .adapter import InitStrategy
from .errors import ParameterError
from .importance import MetricKind, SensitivityState, score_all, sensitivity_update
from .linalg import split_rng
from .model import LayerSpec, ToyModel, build_model
from .optim import AdamW
from .tasks import (
    SyntheticTask,
    build_teacher,
    check_teacher_ranks,
    sample_blobs,
    sample_regression,
)
from .trace import TRACE_VERSION

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "TrainResult",
    "run_training",
    "metrics_csv_lines",
]

# Training aborts when the loss blows past this multiple of its first value.
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # Range checks live in AdamW; building one validates the config.
        AdamW(self.lr, self.beta1, self.beta2, self.eps, self.weight_decay)

    def build(self):
        return AdamW(self.lr, self.beta1, self.beta2, self.eps, self.weight_decay)


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Everything a run depends on; frozen and array-free by construction.

    The field order is part of ``fingerprint``, which hashes the repr.
    """

    name: str = "experiment"
    seed: int = 0
    layers: tuple[LayerSpec, ...]
    loss: str = "mse"
    task: SyntheticTask
    optimizer: OptimizerConfig = OptimizerConfig()
    schedule: BudgetSchedule
    metric: MetricKind = MetricKind()
    mode: str = "bidirectional"
    init_strategy: InitStrategy = InitStrategy()
    regularizer_weight: float = 0.1
    batch_size: int = 32
    log_every: int = 50
    output_dir: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ParameterError("name must be non-empty")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.mode not in ALLOCATOR_MODES:
            raise ParameterError(f"unknown allocator mode {self.mode!r}")
        if not self.regularizer_weight >= 0.0:
            raise ParameterError("regularizer_weight must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ParameterError("log_every must be >= 1")
        linear = [(i, spec) for i, spec in enumerate(self.layers) if spec.kind == "linear"]
        if not linear:
            raise ParameterError("layers need at least one linear layer")
        ids = [spec.adapter.adapter_id for _, spec in linear if spec.adapter is not None]
        for i, adapter_id in enumerate(ids):
            if adapter_id in ids[:i]:
                raise ParameterError(f"duplicate adapter id {adapter_id!r}")
        d_in = linear[0][1].d_in
        if self.task.input_dim != d_in:
            raise ParameterError(
                f"task.input_dim {self.task.input_dim} != the first linear layer's d_in {d_in}")
        for (i, a), (j, b) in zip(linear, linear[1:]):
            if b.d_in != a.d_out:
                raise ParameterError(f"layers[{j}].d_in {b.d_in} != layers[{i}].d_out {a.d_out}")
        # Regression targets are teacher outputs; blob targets are class labels.
        loss = "mse" if self.task.kind == "low_rank_teacher" else "softmax_ce"
        if self.loss != loss:
            raise ParameterError(
                f"task.kind {self.task.kind!r} needs loss {loss!r}, got {self.loss!r}")
        if self.task.kind == "two_blobs" and linear[-1][1].d_out < 2:
            raise ParameterError(
                f"layers[{linear[-1][0]}].d_out must be >= 2 for two_blobs' two classes")
        if self.task.kind == "low_rank_teacher":
            check_teacher_ranks(self.task.teacher_ranks, [
                (spec.d_out, spec.d_in) for _, spec in linear if spec.adapter is not None])
        if self.init_strategy.variant in ("small_init", "orthogonal_init"):
            # These variants expand along directions orthogonal to the
            # existing factors, and a d-dimensional space holds only d.
            for spec in self.layers:
                a = spec.adapter
                if a is not None and a.r_max > min(spec.d_in, spec.d_out):
                    raise ParameterError(
                        f"adapter {a.adapter_id!r}: {self.init_strategy.variant} needs "
                        f"r_max <= min(d_in, d_out) = {min(spec.d_in, spec.d_out)}, "
                        f"got {a.r_max}")

    def fingerprint(self):
        """Deterministic hash of the config (nested dataclass repr).

        ``output_dir`` is excluded: where artifacts land does not change a
        single computed number, so redirecting a rerun must not change its
        config hash.
        """
        content = replace(self, output_dir=None)
        return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()


@dataclass
class TrainResult:
    model: ToyModel
    header: dict
    events: list
    metrics: list
    final_loss: float
    teacher: object = None
    abort: dict | None = None

    @property
    def diverged(self):
        return self.abort is not None


def _trace_header(config, model):
    depths = model.adapter_depths()
    sched = config.schedule
    return {
        "type": "header",
        "version": TRACE_VERSION,
        "name": config.name,
        "seed": config.seed,
        "config_hash": config.fingerprint(),
        "mode": config.mode,
        "metric": config.metric.variant,
        "init_strategy": config.init_strategy.variant,
        "schedule": {f.name: getattr(sched, f.name) for f in fields(BudgetSchedule)},
        "adapters": [
            {"id": a.id, "r_init": a.r_init, "r_max": a.r_max, "depth": depths[a.id]}
            for a in model.adapters()
        ],
    }


def _metrics_row(step, loss, model):
    row = {
        "step": step,
        "loss": loss,
        "total_rank": sum(a.rank for a in model.adapters()),
        "param_count": model.param_count(),
    }
    for a in model.adapters():
        row[f"rank_{a.id}"] = a.rank
    return row


def _params_and_no_decay(model):
    """The model's parameters by name and the names exempt from decay.

    Both stay valid until rank surgery replaces an adapter's factor arrays.
    """
    params = model.trainable_params()
    return params, frozenset(k for k in params if k.endswith(".bias"))


def run_training(config):
    """Execute one run; returns a TrainResult.

    A diverging loss ends the run at that step: the result carries the
    partial trace and metrics, and an abort record in ``abort``.
    """
    model_rng, task_rng, batch_rng, alloc_rng = split_rng(config.seed, 4)

    model = build_model(config.layers, config.loss, model_rng,
                        init_std=config.init_strategy.gauss_std)
    teacher = None
    if config.task.kind == "low_rank_teacher":
        teacher = build_teacher(model, config.task, task_rng)
        dataset = sample_regression(teacher, config.task, task_rng)
    else:
        dataset = sample_blobs(config.task, task_rng)

    adapters = model.adapters()
    optimizer = config.optimizer.build()
    states = {a.id: SensitivityState() for a in adapters}
    use_sensitivity = config.metric.variant == "sensitivity"

    header = _trace_header(config, model)
    events = []
    metrics = []
    schedule = config.schedule
    gamma = config.regularizer_weight
    n = dataset.inputs.shape[1]
    initial_loss = None
    loss = float("nan")
    params, no_decay = _params_and_no_decay(model)
    axes = {a.id: {name: axis for name, _, axis in a.factors()} for a in adapters}
    abort = None

    for t in range(schedule.total_steps):
        cols = batch_rng.integers(0, n, size=config.batch_size)
        x = dataset.inputs[:, cols]
        targets = dataset.targets[:, cols] if dataset.targets.ndim == 2 else dataset.targets[cols]

        y, caches = model.forward(x)
        loss, grad_out = model.loss_and_grad(y, targets)
        if initial_loss is None:
            initial_loss = loss
        if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(abs(initial_loss), 1e-12):
            abort = {"type": "abort", "step": t, "reason": "divergence", "loss": loss}
            break

        grads = model.backward(caches, grad_out, gamma)
        if use_sensitivity:
            for a in adapters:
                names, arrays, _ = zip(*a.factors())
                states[a.id] = sensitivity_update(
                    states[a.id], arrays, [grads[name] for name in names],
                    config.metric.beta1, config.metric.beta2)
        optimizer.step(params, grads, no_decay=no_decay)

        if adapters and schedule.is_allocation_step(t):
            b = schedule.budget(t)
            if b > 0:
                report = score_all(adapters, config.metric, states, step=t)
                prune_ids, expand_ids = select_candidates(report, adapters, b, config.mode)
                if prune_ids or expand_ids:
                    step_events = apply_allocation(
                        adapters, prune_ids, expand_ids, config.init_strategy,
                        alloc_rng, step=t, scores=report.scores,
                    )
                    for event in step_events:
                        optimizer.sync_rank_change(event, axes[event.adapter_id])
                    events.extend(step_events)
                params, no_decay = _params_and_no_decay(model)

        if t % config.log_every == 0 or t == schedule.total_steps - 1:
            metrics.append(_metrics_row(t, loss, model))

    return TrainResult(model=model, header=header, events=events, metrics=metrics,
                       final_loss=loss, teacher=teacher, abort=abort)


def metrics_csv_lines(header, metrics):
    """Render metrics rows as CSV; column order is fixed by the header's
    adapter order so reruns are byte-identical."""
    ids = [a["id"] for a in header["adapters"]]
    columns = ["step", "loss", "total_rank", "param_count"] + [f"rank_{i}" for i in ids]
    lines = [",".join(columns)]
    for row in metrics:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(repr(float(value)) if col == "loss" else str(int(value)))
        lines.append(",".join(cells))
    return lines
