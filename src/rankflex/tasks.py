"""Synthetic desk-scale tasks with controllable intrinsic rank.

The regression task plants a teacher network: the student's frozen base
weights plus, at every adapted layer, an additive delta of exactly the
requested rank. Targets are teacher outputs with optional Gaussian
observation noise, so an adapter can close the gap exactly if and only if
its rank reaches the teacher's. Each rank-k delta is a scaled product of two
k-column orthonormal factors, each the QR span of k Gaussian columns
(``linalg.orthonormal_columns``); the data set is drawn from the same
generator afterwards. The teacher keeps only the summed weights, not the
deltas. ``check_teacher_ranks`` states which ranks a model's adapted layers
accept. The classification task is two separable Gaussian blobs.

Teachers are frozen at construction (they snapshot the base weights), so a
fresh evaluation set can be sampled later against the same teacher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, check_choice
from .linalg import orthonormal_columns
# Unused here; bench/tracer.py hooks this name until ROADMAP item 1 lands.
from .linalg import gram_schmidt_extend  # noqa: F401
from .model import ActivationLayer, LinearLayer

__all__ = [
    "TASK_KINDS",
    "SyntheticTask",
    "TeacherNet",
    "check_teacher_ranks",
    "build_teacher",
    "sample_regression",
    "sample_blobs",
]

TASK_KINDS = ("low_rank_teacher", "two_blobs")


@dataclass(frozen=True)
class SyntheticTask:
    """Task description; fields beyond the common ones apply per kind."""

    kind: str
    input_dim: int
    sample_count: int
    noise_std: float = 0.0
    teacher_ranks: tuple[int, ...] = ()
    teacher_scale: float = 1.0
    blob_separation: float = 4.0

    def __post_init__(self):
        check_choice("kind", self.kind, TASK_KINDS)
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if self.sample_count < 1:
            raise ParameterError("sample_count must be >= 1")
        if not self.noise_std >= 0.0:
            raise ParameterError("noise_std must be >= 0")
        if self.kind == "low_rank_teacher" and not self.teacher_ranks:
            raise ParameterError("low_rank_teacher needs teacher_ranks")
        if any(r < 1 for r in self.teacher_ranks):
            raise ParameterError("teacher ranks must be >= 1")
        if not self.teacher_scale > 0.0:
            raise ParameterError("teacher_scale must be positive")
        if not self.blob_separation > 0.0:
            raise ParameterError("blob_separation must be positive")


@dataclass(frozen=True)
class TeacherNet:
    """Frozen reference network: (kind, weight-or-None) per layer."""

    layers: tuple

    def forward(self, x):
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2:
            raise ShapeError("input batch must be 2-D")
        for kind, w in self.layers:
            h = w @ h if kind == "linear" else ActivationLayer(kind).forward(h)
        return h


def _rank_k_delta(d_out, d_in, k, scale, rng):
    # Sum of k outer products of orthonormal factor pairs: exactly k singular
    # values, all equal to scale / sqrt(k). A sum of free Gaussian outer
    # products would also be rank k but with a heavily decaying spectrum,
    # which quietly turns "intrinsic rank k" into "a few ranks that matter".
    u = orthonormal_columns(d_out, k, rng)
    v = orthonormal_columns(d_in, k, rng)
    return (scale / np.sqrt(k)) * (u @ v.T)


def check_teacher_ranks(ranks, shapes):
    """Check ``task.teacher_ranks`` against the adapted layers' ``(d_out, d_in)``
    shapes in depth order: one rank per adapted layer, and each rank at most
    its layer's smaller side, since a rank-k delta needs k orthonormal
    columns on each side."""
    if len(ranks) != len(shapes):
        raise ParameterError(
            f"task.teacher_ranks has {len(ranks)} ranks for {len(shapes)} adapted layers")
    for i, (k, (d_out, d_in)) in enumerate(zip(ranks, shapes)):
        if k > min(d_out, d_in):
            raise ParameterError(
                f"task.teacher_ranks[{i}] {k} exceeds its adapted layer's dims {d_out}x{d_in}")


def build_teacher(model, task, rng):
    """Teacher = student base weights + rank-k deltas at adapted layers.

    ``task.teacher_ranks`` pairs with the model's adapted layers in depth
    order; biases are left at zero so the adapters carry the whole gap.
    """
    if task.kind != "low_rank_teacher":
        raise ParameterError(f"task kind {task.kind!r} has no teacher")
    adapted = {i: (l.d_out, l.d_in) for i, l in enumerate(model.layers)
               if isinstance(l, LinearLayer) and l.adapter is not None}
    check_teacher_ranks(task.teacher_ranks, list(adapted.values()))
    ranks = dict(zip(adapted, task.teacher_ranks))
    layers = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, ActivationLayer):
            layers.append((layer.kind, None))
            continue
        w = np.array(layer.base_w)
        if i in ranks:
            w = w + _rank_k_delta(layer.d_out, layer.d_in, ranks[i], task.teacher_scale, rng)
        w.flags.writeable = False
        layers.append(("linear", w))
    return TeacherNet(layers=tuple(layers))


def sample_regression(teacher, task, rng, sample_count=None, noise_std=None):
    """``(inputs, targets)``, one example per column: N(0, I) inputs, teacher outputs plus noise.

    ``sample_count`` and ``noise_std`` default to the task's values; pass
    explicit ones to build held-out or noiseless evaluation sets against the
    same teacher.
    """
    n = task.sample_count if sample_count is None else int(sample_count)
    std = task.noise_std if noise_std is None else float(noise_std)
    if n < 1:
        raise ParameterError("sample_count must be >= 1")
    if not std >= 0.0:
        raise ParameterError("noise_std must be >= 0")
    x = rng.standard_normal((task.input_dim, n))
    y = teacher.forward(x)
    if std > 0.0:
        y = y + std * rng.standard_normal(y.shape)
    return x, y


def sample_blobs(task, rng):
    """``(inputs, labels)``: two Gaussian clusters at +-separation/2 on a random axis."""
    n = task.sample_count
    direction = rng.standard_normal(task.input_dim)
    direction /= np.linalg.norm(direction)
    center = (task.blob_separation / 2.0) * direction
    labels = rng.integers(0, 2, size=n)
    signs = np.where(labels == 0, -1.0, 1.0)
    x = rng.standard_normal((task.input_dim, n)) + center[:, None] * signs[None, :]
    return x, labels.astype(np.int64)

