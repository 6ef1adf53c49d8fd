"""Tests of the benchmark's own checks: each rejects a broken artifact.

    python3 -m pytest bench -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import (  # noqa: E402
    FORWARD_RTOL,
    check_artifacts,
    check_forward,
    dense_forward,
    dense_layers,
)
from tracer import Tracer  # noqa: E402
from workloads import CONFIGS, budget, expected_firings  # noqa: E402

from rankflex import cli  # noqa: E402
from rankflex.allocator import BudgetSchedule  # noqa: E402
from rankflex.checkpoint import load_checkpoint  # noqa: E402
from rankflex.model import AdapterSpec, LayerSpec, build_model  # noqa: E402


def small_config():
    config = CONFIGS["desk"](7)
    config["schedule"].update(t_warmup=50, t_final=20, total_steps=400, delta_t=5)
    return config


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One real `rankflex train` run, its heatmap, and its config."""
    work = tmp_path_factory.mktemp("run")
    config = small_config()
    (work / "config.json").write_text(json.dumps(config))
    out = work / "out"
    assert cli.main(["train", str(work / "config.json"), f"output_dir={out}"]) == 0
    trace = str(out / "trace.jsonl")
    assert cli.main(["export-heatmap", trace, "--out", str(work / "heatmap.csv")]) == 0
    return config, work


@pytest.fixture
def copy(run_dir, tmp_path):
    config, work = run_dir
    shutil.copytree(work, tmp_path / "w")
    return config, tmp_path / "w"


def problems_of(config, work):
    return check_artifacts(config, work / "out", work / "heatmap.csv")[0]


def test_untouched_run_passes(copy):
    config, work = copy
    problems, ranks, events = check_artifacts(config, work / "out", work / "heatmap.csv")
    assert problems == []
    assert events > 0
    assert sum(ranks.values()) == 14


def test_extra_expand_event_is_rejected(copy):
    config, work = copy
    trace = work / "out" / "trace.jsonl"
    lines = trace.read_text().splitlines()
    last = json.loads(lines[-1])
    extra = dict(last, action="expand", rank_before=last["rank_after"],
                 rank_after=last["rank_after"] + 1)
    trace.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
    assert any("final ranks disagree" in p for p in problems_of(config, work))


def test_changed_lambda_entry_is_rejected(copy):
    config, work = copy
    path = work / "out" / "checkpoint.txt"
    trained = load_checkpoint(path)
    lines = path.read_text().splitlines()
    i = lines.index("lambda", lines.index("adapter hi")) + 1
    cells = lines[i].split(",")
    cells[0] = repr(float(cells[0]) + 0.5)
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    x = np.random.default_rng(0).standard_normal((16, 64))
    assert check_forward(trained, trained, x) == []
    assert check_forward(load_checkpoint(path), trained, x) != []


def test_rank_off_by_one_is_rejected(copy):
    config, work = copy
    path = work / "out" / "checkpoint.txt"
    lines = path.read_text().splitlines()
    i = lines.index("adapter lo") + 2
    rank = int(lines[i].split()[1])
    lines[i] = f"rank {rank + 1}"
    path.write_text("\n".join(lines) + "\n")
    assert any("final ranks disagree" in p for p in problems_of(config, work))


def test_wrong_param_count_is_rejected(copy):
    config, work = copy
    path = work / "out" / "metrics.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[-1].split(",")
    col = header.index("param_count")
    cells[col] = str(int(cells[col]) + 1)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("param_count" in p for p in problems_of(config, work))


def test_changed_heatmap_is_rejected(copy):
    config, work = copy
    path = work / "heatmap.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + str((int(lines[1][-1]) + 1) % 10)
    path.write_text("\n".join(lines) + "\n")
    assert any("heatmap" in p for p in problems_of(config, work))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_dense_forward_matches_toy_model(activation):
    specs = (
        LayerSpec("linear", 6, 5, adapter=AdapterSpec("a", 3, 5)),
        LayerSpec(activation),
        LayerSpec("linear", 5, 4, bias=False),
        LayerSpec(activation),
        LayerSpec("linear", 4, 3, adapter=AdapterSpec("b", 2, 3, alpha=4.0)),
    )
    rng = np.random.default_rng(3)
    model = build_model(specs, "mse", rng)
    for a in model.adapters():
        a.lam[:] = rng.standard_normal(a.rank)
    for layer in model.layers:
        if getattr(layer, "bias", None) is not None:
            layer.bias[:] = rng.standard_normal(layer.bias.size)
    x = rng.standard_normal((6, 32))
    ours = dense_forward(dense_layers(model), x)
    theirs = model.forward(x)[0]
    assert np.linalg.norm(ours - theirs) <= FORWARD_RTOL * np.linalg.norm(theirs)
    assert not np.allclose(ours, dense_forward(dense_layers(model, zero_updates=True), x))


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_restated_budget_matches_schedule(workload):
    sched = CONFIGS[workload](0)["schedule"]
    ref = BudgetSchedule(**sched)
    assert [budget(sched, t) for t in range(sched["total_steps"])] == [
        ref.budget(t) for t in range(sched["total_steps"])]
    assert expected_firings(sched) == sum(
        1 for t in ref.allocation_steps() if ref.budget(t) > 0)


def test_self_time_excludes_opaque_children_only():
    tracer = Tracer()
    outer = tracer.open("outer")
    layer = tracer.open("layer", opaque=False)
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(layer)
    tracer.close(outer)
    summary = tracer.summary()
    dur = {n: e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)}
    assert summary["outer"][2] == pytest.approx(dur["outer"] - dur["inner"])
    assert summary["layer"][2] == pytest.approx(dur["layer"])


def test_metric_tables_match_benchmark_json():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(CONFIGS)
