"""The names the benchmark hooks still exist where it looks them up.

``bench/tracer.py`` swaps functions and methods for timed wrappers by
reading ``vars(owner)[attr]``, and ``bench/run.py`` wraps three more, so
removing or renaming one of them breaks every benchmark round. This test
reads ``bench/`` without editing it and fails here instead.
"""

import importlib.util
from pathlib import Path

from rankflex import cli, training

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
