"""Output checks made apart from the program.

Each check reads an artifact with its own parser (json, csv, plain line
scanning) or recomputes a quantity with its own numpy code, and returns a
list of problem strings; an empty list means the artifact passed. Nothing
here calls rankflex's trace, checkpoint or metrics readers.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from workloads import linear_layers

# Relative tolerance between the dense forward below and ToyModel.forward.
# The two orders of summation differ, so bitwise equality is not expected;
# float64 rounding stays near 1e-15 relative on these shapes.
FORWARD_RTOL = 1e-10


def read_trace(path):
    """(header, event records) from a trace.jsonl."""
    header, events = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["type"] == "header":
                header = record
            elif record["type"] == "event":
                events.append(record)
    return header, events


def replay_ranks(config, events):
    """Final ranks from r_init and the trace's events; problems on any gap."""
    ranks = {a["id"]: a["r_init"] for *_, a in linear_layers(config) if a}
    problems = []
    for n, e in enumerate(events, 1):
        aid = e["adapter_id"]
        step = 1 if e["action"] == "expand" else -1
        if aid not in ranks:
            problems.append(f"trace event {n}: unknown adapter {aid!r}")
            continue
        if e["rank_before"] != ranks[aid] or e["rank_after"] != ranks[aid] + step:
            problems.append(f"trace event {n}: {aid} {ranks[aid]} -> "
                            f"{e['rank_before']}/{e['rank_after']} does not follow")
        ranks[aid] += step
    return ranks, problems


def checkpoint_ranks(path):
    """Adapter id -> rank, scanned from the checkpoint's adapter blocks."""
    ranks, current = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("adapter "):
                current = line[len("adapter "):].strip()
            elif current is not None and line.startswith("rank "):
                ranks[current] = int(line.split()[1])
                current = None
    return ranks


def last_metrics_row(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[-1]


def check_ranks(config, trace_ranks, ckpt_ranks, row):
    problems = []
    row_ranks = {k[len("rank_"):]: int(v) for k, v in row.items() if k.startswith("rank_")}
    if not trace_ranks == ckpt_ranks == row_ranks:
        problems.append(f"final ranks disagree: trace {trace_ranks}, "
                        f"checkpoint {ckpt_ranks}, metrics {row_ranks}")
    adapters = [a for *_, a in linear_layers(config) if a]
    for a in adapters:
        r = ckpt_ranks.get(a["id"], 0)
        if not 1 <= r <= a["r_max"]:
            problems.append(f"adapter {a['id']} rank {r} outside [1, {a['r_max']}]")
    total = sum(ckpt_ranks.values())
    if config["mode"] == "bidirectional" and total != sum(a["r_init"] for a in adapters):
        problems.append(f"total rank {total} != sum of r_init in bidirectional mode")
    if int(row["total_rank"]) != total:
        problems.append(f"metrics total_rank {row['total_rank']} != {total}")
    return problems


def expected_param_count(config, ranks):
    count = 0
    for d_in, d_out, bias, adapter in linear_layers(config):
        if adapter:
            count += ranks[adapter["id"]] * (d_in + d_out + 1)
        if bias:
            count += d_out
    return count


def check_param_count(config, ranks, row):
    expected = expected_param_count(config, ranks)
    if int(row["param_count"]) != expected:
        return [f"metrics param_count {row['param_count']} != {expected}"]
    return []


def dense_layers(model, zero_updates=False):
    """('linear', W + (alpha/r_init) P diag(lam) Q, bias) or (activation,)
    per layer of a rankflex model, read from its arrays."""
    layers = []
    for layer in model.layers:
        base = getattr(layer, "base_w", None)
        if base is None:
            layers.append((layer.kind,))
            continue
        w = np.array(base)
        bias = np.zeros(w.shape[0]) if layer.bias is None else np.array(layer.bias)
        a = layer.adapter
        if zero_updates:
            bias = np.zeros_like(bias)
        elif a is not None:
            w = w + (a.alpha / a.r_init) * ((a.p * a.lam) @ a.q)
        layers.append(("linear", w, bias))
    return layers


def dense_forward(layers, x):
    h = x
    for layer in layers:
        if layer[0] == "linear":
            h = layer[1] @ h + layer[2][:, None]
        elif layer[0] == "tanh":
            h = np.tanh(h)
        else:
            h = np.maximum(h, 0.0)
    return h


def teacher_forward(teacher, x):
    h = x
    for kind, w in teacher.layers:
        h = w @ h if kind == "linear" else (np.tanh(h) if kind == "tanh" else np.maximum(h, 0.0))
    return h


def check_forward(loaded, trained, x):
    """The dense forward of the loaded weights against ToyModel.forward of
    the model training returned."""
    ours = dense_forward(dense_layers(loaded), x)
    theirs = trained.forward(x)[0]
    err = float(np.linalg.norm(ours - theirs))
    scale = float(np.linalg.norm(theirs))
    if not err <= FORWARD_RTOL * scale:
        return [f"forward of loaded weights differs: |diff| {err:.3e} vs |y| {scale:.3e}"]
    return []


def holdout_mse(loaded, teacher, x):
    """(MSE of the loaded model, MSE with adapters and biases zeroed) on a
    noiseless held-out sample from the run's teacher."""
    y = teacher_forward(teacher, x)
    mse = float(np.mean((dense_forward(dense_layers(loaded), x) - y) ** 2))
    base = float(np.mean((dense_forward(dense_layers(loaded, zero_updates=True), x) - y) ** 2))
    return mse, base


def heatmap_lines(config, events):
    """The rank heatmap CSV the trace implies: one row per adapter in depth
    order, the initial rank, then the ranks after each step with events."""
    ids = [a["id"] for *_, a in linear_layers(config) if a]
    ranks = {a["id"]: a["r_init"] for *_, a in linear_layers(config) if a}
    rows = {aid: [ranks[aid]] for aid in ids}
    steps = []
    for i, e in enumerate(events):
        ranks[e["adapter_id"]] = e["rank_after"]
        if i + 1 == len(events) or events[i + 1]["step"] != e["step"]:
            steps.append(e["step"])
            for aid in ids:
                rows[aid].append(ranks[aid])
    lines = [",".join(["adapter", "init"] + [str(s) for s in steps])]
    lines += [",".join([aid] + [str(r) for r in rows[aid]]) for aid in ids]
    return lines


def check_heatmap(config, events, path):
    with open(path, encoding="utf-8") as fh:
        got = fh.read().splitlines()
    if got != heatmap_lines(config, events):
        return ["exported heatmap differs from the trace's own replay"]
    return []


def check_artifacts(config, outdir, heatmap_path):
    """Every file-level check of one run; returns (problems, ranks, event_count)."""
    header, events = read_trace(outdir / "trace.jsonl")
    problems = []
    if header is None or header.get("seed") != config["seed"]:
        problems.append("trace header missing or for another seed")
    trace_ranks, replay_problems = replay_ranks(config, events)
    problems += replay_problems
    ckpt_ranks = checkpoint_ranks(outdir / "checkpoint.txt")
    row = last_metrics_row(outdir / "metrics.csv")
    problems += check_ranks(config, trace_ranks, ckpt_ranks, row)
    problems += check_param_count(config, ckpt_ranks, row)
    problems += check_heatmap(config, events, heatmap_path)
    return problems, ckpt_ranks, len(events)


def check_rank_order(final_ranks, high="hi", low="lo"):
    """Median final rank of the high-teacher-rank adapter above the low one's."""
    if not final_ranks:
        return []
    hi = float(np.median([r[high] for r in final_ranks]))
    lo = float(np.median([r[low] for r in final_ranks]))
    if not hi > lo:
        return [f"median final rank of {high} ({hi}) does not exceed {low} ({lo}) "
                f"over {len(final_ranks)} runs"]
    return []
