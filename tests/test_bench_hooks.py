"""The names the benchmark hooks still exist where it looks them up.

``bench/tracer.py`` swaps functions and methods for timed wrappers by
reading ``vars(owner)[attr]``, and ``bench/run.py`` wraps three more, so
removing or renaming one of them breaks every benchmark round. These tests
read ``bench/`` without editing it and fail here instead, as does a hook
whose spans stop counting what the benchmark reports.
"""

import importlib.util
from pathlib import Path

from rankflex import cli, training
from rankflex.allocator import BudgetSchedule

from test_training import make_config

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Wrapped by bench/run.py's Bench, outside the tracer's table.
RUN_HOOKS = (
    (training, "_trace_header"),
    (cli, "run_training"),
    (training, "build_teacher"),
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_restore():
    tracer = _load_tracer()
    before = dict(vars(training))
    with tracer.traced(tracer.Tracer(), {}):
        pass
    assert dict(vars(training)) == before


def test_run_hooks_exist():
    for owner, attr in RUN_HOOKS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} is gone"


def test_traced_counts_of_one_training():
    # Prune-only at b0=2: the scored firings at 100..175 change nothing.
    tracer = _load_tracer()
    spans = tracer.Tracer()
    config = make_config(mode="prune_only", schedule=BudgetSchedule(
        b0=2, t_warmup=50, t_final=50, total_steps=400, delta_t=25))
    with tracer.traced(spans, {}):
        result = training.run_training(config)
    calls = {name: calls for name, (calls, *_) in spans.summary().items()}
    changed = len({event.step for event in result.events})
    assert 0 < changed < sum(1 for t in config.schedule.allocation_steps()
                             if config.schedule.budget(t) > 0)
    assert calls["optim.step"] == config.schedule.total_steps
    assert calls["optim.sync"] == changed
    assert calls["allocator.apply"] == changed
    assert calls["model.trainable_params"] == 1 + changed + len(result.metrics)
