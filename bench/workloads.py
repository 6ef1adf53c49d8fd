"""Workload definitions: one `rankflex train` config per round, from a seed.

Every workload is a fixed model and schedule; only the config's ``seed``
changes from round to round. Round ``i`` of a run started with workload seed
``s`` trains with ``run_seed(workload, s, i)``, so the same ``--seed`` always
replays the same sequence of configs, and every round draws a fresh model,
teacher and data set.
"""

from __future__ import annotations

import hashlib
import math

WORKLOADS = ("desk", "wide", "churn")


def run_seed(workload, seed, index):
    """Config seed of round ``index``: 31 bits of sha256("workload/seed/index")."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _linear(d_in, d_out, adapter_id, r_init, r_max):
    return {"type": "linear", "d_in": d_in, "d_out": d_out,
            "adapter": {"id": adapter_id, "r_init": r_init, "r_max": r_max}}


def _stack(n, width, prefix, r_init, r_max):
    layers = []
    for i in range(n):
        if i:
            layers.append({"type": "tanh"})
        layers.append(_linear(width, width, f"{prefix}{i}", r_init, r_max))
    return layers


def desk(seed):
    # The acceptance suite's criterion-9 configuration: two 16x16 adapters
    # over a teacher of ranks 12 and 2.
    return {
        "name": "desk", "seed": seed,
        "model": {"layers": [_linear(16, 16, "hi", 7, 14), {"type": "tanh"},
                             _linear(16, 16, "lo", 7, 14)]},
        "task": {"kind": "low_rank_teacher", "input_dim": 16, "sample_count": 48,
                 "noise_std": 0.1, "teacher_ranks": [12, 2]},
        "optimizer": {"lr": 0.01},
        "schedule": {"b0": 1, "t_warmup": 400, "t_final": 100,
                     "total_steps": 3000, "delta_t": 25},
        "metric": {"variant": "spectral_entropy"},
        "init_strategy": {"variant": "zero_impact"},
        "mode": "bidirectional",
        "batch_size": 16,
    }


def wide(seed):
    return {
        "name": "wide", "seed": seed,
        "model": {"layers": _stack(4, 512, "w", 24, 96)},
        "task": {"kind": "low_rank_teacher", "input_dim": 512, "sample_count": 2048,
                 "noise_std": 0.01, "teacher_ranks": [64, 4, 32, 2], "teacher_scale": 16.0},
        "optimizer": {"lr": 0.02},
        "schedule": {"b0": 2, "t_warmup": 20, "t_final": 20,
                     "total_steps": 100, "delta_t": 5},
        "metric": {"variant": "spectral_entropy"},
        "init_strategy": {"variant": "zero_impact"},
        "mode": "bidirectional",
        "batch_size": 128,
    }


def churn(seed):
    # 500 steps keep the event count bound by the budget schedule (about 850
    # events a run); at 3,000 steps it swings with how fast adapters collapse
    # to rank 1, which would make trace-side timings depend on the seed.
    return {
        "name": "churn", "seed": seed,
        "model": {"layers": _stack(8, 24, "c", 8, 24)},
        "task": {"kind": "low_rank_teacher", "input_dim": 24, "sample_count": 256,
                 "noise_std": 0.05, "teacher_ranks": [1, 24, 4, 16, 2, 20, 8, 12]},
        "optimizer": {"lr": 0.01},
        "schedule": {"b0": 4, "t_warmup": 50, "t_final": 50,
                     "total_steps": 500, "delta_t": 1},
        "metric": {"variant": "spectral_entropy"},
        "init_strategy": {"variant": "orthogonal_init"},
        "mode": "bidirectional",
        "batch_size": 16,
    }


CONFIGS = {"desk": desk, "wide": wide, "churn": churn}


def make_config(workload, seed, index):
    return CONFIGS[workload](run_seed(workload, seed, index))


def linear_layers(config):
    """(d_in, d_out, has_bias, adapter-dict-or-None) per linear layer."""
    return [(l["d_in"], l["d_out"], l.get("bias", True), l.get("adapter"))
            for l in config["model"]["layers"] if l["type"] == "linear"]


def budget(schedule, t):
    """The cubic budget, restated from the method: zero outside
    [t_warmup, total_steps - t_final), else round-half-up of
    b0 * (1 - (t - t_warmup) / (total_steps - t_final))^3."""
    end = schedule["total_steps"] - schedule["t_final"]
    if t < schedule["t_warmup"] or t >= end:
        return 0
    raw = schedule["b0"] * (1.0 - (t - schedule["t_warmup"]) / end) ** 3
    return max(0, min(schedule["b0"], math.floor(raw + 0.5)))


def expected_firings(schedule):
    """Allocation steps with a positive budget: every delta_t-th step of the window."""
    end = schedule["total_steps"] - schedule["t_final"]
    return sum(1 for t in range(schedule["t_warmup"], end, schedule["delta_t"])
               if budget(schedule, t) > 0)
