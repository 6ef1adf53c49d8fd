"""rankflex benchmark: `rankflex train` end to end, and module by module.

    python3 bench/run.py --workload desk|wide|churn --seed N --seconds S --trace 0|1

Run from the root of a rankflex checkout; the package is imported from its
``src/`` directory. One process runs whole rounds until S seconds have
passed. A round generates one config from the workload seed, runs
``rankflex.cli.main`` for ``train``, ``replay-verify`` and ``export-heatmap``
in a fresh temporary directory, loads the checkpoint with
``rankflex.checkpoint.load_checkpoint``, checks every artifact, and removes
the directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
README.md in this directory for the metrics and workloads.
"""

import os
import sys
import time


def _process_age():
    """Seconds since this process started, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            stat = fh.read()
        ticks = int(stat[stat.rindex(")") + 2:].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


# Set-up is timed from the start of the process: interpreter start, the
# imports of numpy and rankflex, and everything before the first step.
T_START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, expected_firings, linear_layers, make_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = Path(__file__).resolve().parent / "_tmp"

# Held-out sample size for holdout_mse and the forward check.
HOLDOUT = 1024

# replay-verify + export-heatmap, and load_checkpoint, take milliseconds on
# desk, so an untraced round repeats them and keeps the median repeat. The
# load repeats until 0.1 s accumulate (at most 25 times). The replay repeats
# in three batches of 0.04 s (at most 10 times each), spread over the round:
# the machine's speed changes from second to second, and one batch would
# sample a single moment of it.
LOAD_REPEATS = (0.1, 25)
REPLAY_REPEATS = (0.04, 10)

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "train_wall_s": "s",
    "artifact_write_s": "s",
    "checkpoint_load_s": "s",
    "replay_s": "s",
    "artifact_bytes": "bytes",
    "peak_rss_mb": "MB",
    "holdout_mse": "1",
}

PER_LAYER = {
    "config.parse_s": "s",
    "model.build_s": "s",
    "model.forward_s": "s",
    "model.backward_s": "s",
    "model.loss_s": "s",
    "model.linear_max.forward_s": "s",
    "model.linear_min.forward_s": "s",
    "model.trainable_params_s": "s",
    "model.trainable_params_calls": "count",
    "adapter.forward_s": "s",
    "adapter.ortho_grad_s": "s",
    "adapter.prune_s": "s",
    "adapter.expand_s": "s",
    "adapter.prunes": "count",
    "adapter.expands": "count",
    "linalg.gram_schmidt_s": "s",
    "linalg.gram_schmidt_calls": "count",
    "tasks.teacher_s": "s",
    "tasks.sample_s": "s",
    "optim.step_s": "s",
    "optim.step_calls": "count",
    "optim.sync_s": "s",
    "importance.score_s": "s",
    "importance.score_calls": "count",
    "allocator.select_s": "s",
    "allocator.apply_s": "s",
    "allocator.firings": "count",
    "allocator.firings_changed": "count",
    "allocator.change_ratio": "1",
    "training.loop_self_s": "s",
    "checkpoint.serialize_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.parse_s": "s",
    "trace.serialize_s": "s",
    "trace.events": "count",
    "trace.read_s": "s",
    "trace.verify_s": "s",
    "trace.heatmap_s": "s",
    "cli.write_self_s": "s",
    "floor.gemm_s": "s",
    "compute_over_floor": "1",
    "optim.step.median_us": "us",
    "optim.step.p99_us": "us",
    "optim.step.samples": "count",
    "model.forward.median_us": "us",
    "model.forward.p99_us": "us",
    "model.forward.samples": "count",
    "model.backward.median_us": "us",
    "model.backward.p99_us": "us",
    "model.backward.samples": "count",
    "trace.overhead_s": "s",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ARTIFACTS = ("trace.jsonl", "metrics.csv", "checkpoint.txt", "effective_config.json")
DETERMINISTIC = ARTIFACTS[:3]


def _mark(owner, attr, on_return):
    """Replace ``owner.attr`` by a wrapper that reports each result."""
    original = getattr(owner, attr)

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        on_return(result)
        return result

    setattr(owner, attr, marked)


class Bench:
    """Runs rounds of one workload in this process."""

    def __init__(self, workload, seed, tmp_dir):
        import numpy as np
        from rankflex import checkpoint, cli, training

        self.np = np
        self.cli = cli
        self.checkpoint = checkpoint
        self.workload = workload
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.setup_s = None
        # Once-per-run calls only: the end of set-up, the return of
        # run_training with its result, and the teacher for the held-out set.
        self.marks = {}
        _mark(training, "_trace_header",
              lambda _: self.marks.__setitem__("setup_end", time.perf_counter()))
        _mark(cli, "run_training",
              lambda r: self.marks.__setitem__("trained", (time.perf_counter(), r)))
        _mark(training, "build_teacher", lambda t: self.marks.__setitem__("teacher", t))

    def _op(self, fn, *args):
        """One counted operation; returns (ok, value)."""
        self.attempted += 1
        try:
            value = fn(*args)
        except Exception:  # noqa: BLE001 - a crash is a failed operation, reported below
            sys.stderr.write(traceback.format_exc())
            value = None
            ok = False
        else:
            ok = value is not None and value is not False
        self.failed += not ok
        return ok, value

    def _repeat(self, fn, times, limits):
        """Call ``fn(len(times))`` and append its duration to ``times``
        until ``limits`` = (seconds, calls) is reached or a call fails;
        returns (ok, last value)."""
        seconds, calls = limits
        start = len(times)
        while True:
            t0 = time.perf_counter()
            value = fn(len(times))
            times.append(time.perf_counter() - t0)
            ok = value is not None and value is not False
            if not ok or len(times) - start >= calls or sum(times[start:]) >= seconds:
                return ok, value

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        if rc != 0:
            sys.stderr.write(f"rankflex {' '.join(argv)} exited {rc}\n{err.getvalue()}")
        return rc == 0

    def round(self, index, tracer=None):
        from checks import check_artifacts, check_forward, holdout_mse
        from tracer import traced

        np = self.np
        config = make_config(self.workload, self.seed, index)
        rec = {"seed": config["seed"], "problems": []}
        work = Path(tempfile.mkdtemp(prefix=f"{self.workload}-{index}-", dir=self.tmp_dir))
        try:
            cfg_path, out = work / "config.json", work / "out"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            trace = str(out / "trace.jsonl")
            layer_names = {}
            span = tracer.span if tracer else lambda name: contextlib.nullcontext()
            install = traced(tracer, layer_names) if tracer else contextlib.nullcontext()
            self.marks.clear()
            with install:
                t0 = time.perf_counter()
                with span("cli.main"):
                    ok_train, _ = self._op(self._main, ["train", str(cfg_path), f"output_dir={out}"])
                t1 = time.perf_counter()

                # Each export goes to a new file: replacing an existing one
                # makes ext4 start writing the new file out, which added
                # outliers of several milliseconds.
                def replay(k):
                    with span("cli.main"):
                        ok = self._op(self._main, ["replay-verify", trace])[0]
                    with span("cli.main"):
                        return self._op(self._main, ["export-heatmap", trace, "--out",
                                                     str(work / f"heatmap{k}.csv")])[0] and ok

                def load(_):
                    with span("checkpoint.load"):
                        return self._op(self.checkpoint.load_checkpoint,
                                        str(out / "checkpoint.txt"))[1]

                replay_times, load_times = [], []
                once = (0.0, 1)
                ok_replay, _ = self._repeat(replay, replay_times, once if tracer else REPLAY_REPEATS)
                ok_load, loaded = self._repeat(load, load_times, once if tracer else LOAD_REPEATS)
                heatmap = work / "heatmap0.csv"
            if not (ok_train and ok_replay and ok_load):
                rec["ok"] = False
                return rec
            t_trained, result = self.marks["trained"]
            setup_end = self.marks["setup_end"]
            if self.setup_s is None:
                self.setup_s = setup_end - T_START
            steps = config["schedule"]["total_steps"]
            rec.update(
                ok=True,
                steps=steps,
                train_wall_s=t1 - t0,
                loop_s=t_trained - setup_end,
                artifact_write_s=t1 - t_trained,
                checkpoint_load_s=statistics.median(load_times),
                artifact_bytes=sum((out / name).stat().st_size for name in ARTIFACTS),
                checkpoint_bytes=(out / "checkpoint.txt").stat().st_size,
                digests={n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                         for n in DETERMINISTIC},
            )
            problems, ranks, n_events = check_artifacts(config, out, heatmap)
            if tracer is None:
                self._repeat(replay, replay_times, REPLAY_REPEATS)
            rng = np.random.default_rng(config["seed"])
            x = rng.standard_normal((linear_layers(config)[0][0], HOLDOUT))
            problems += check_forward(loaded, result.model, x)
            mse, base = holdout_mse(loaded, self.marks["teacher"], x)
            if not mse < base:
                problems.append(f"holdout MSE {mse:.6g} not below {base:.6g} "
                                f"with adapters and biases zeroed")
            if tracer is None:
                self._repeat(replay, replay_times, REPLAY_REPEATS)
            rec.update(ranks=ranks, events=n_events, holdout_mse=mse, holdout_base=base,
                       replay_s=statistics.median(replay_times), problems=problems)
            if tracer is not None:
                rec["layers"] = self._layer_metrics(tracer, config, rec, t1)
            return rec
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _layer_metrics(self, tracer, config, rec, t_main_end):
        summary = tracer.summary()
        empty = (0, 0.0, 0.0, [])

        def calls(name):
            return summary.get(name, empty)[0]

        def self_s(name):
            return summary.get(name, empty)[2]

        linear = {n[len("model."):-len(".forward")]: v[1]
                  for n, v in summary.items() if n.startswith("model.linear")}
        serialize = self_s("checkpoint.serialize") + self_s("trace.serialize")
        (_, run_end), = tracer.span_times("training.run")
        firings = calls("allocator.select")
        m = {
            "config.parse_s": self_s("config.parse"),
            "model.build_s": self_s("model.build"),
            "model.forward_s": self_s("model.forward"),
            "model.backward_s": self_s("model.backward"),
            "model.loss_s": self_s("model.loss"),
            "model.linear_max.forward_s": max(linear.values()),
            "model.linear_min.forward_s": min(linear.values()),
            "model.trainable_params_s": self_s("model.trainable_params"),
            "model.trainable_params_calls": calls("model.trainable_params"),
            "adapter.forward_s": self_s("adapter.forward"),
            "adapter.ortho_grad_s": self_s("adapter.ortho_grad"),
            "adapter.prune_s": self_s("adapter.prune"),
            "adapter.expand_s": self_s("adapter.expand"),
            "adapter.prunes": calls("adapter.prune"),
            "adapter.expands": calls("adapter.expand"),
            "linalg.gram_schmidt_s": self_s("linalg.gram_schmidt"),
            "linalg.gram_schmidt_calls": calls("linalg.gram_schmidt"),
            "tasks.teacher_s": self_s("tasks.teacher"),
            "tasks.sample_s": self_s("tasks.sample"),
            "optim.step_s": self_s("optim.step"),
            "optim.step_calls": calls("optim.step"),
            "optim.sync_s": self_s("optim.sync"),
            "importance.score_s": self_s("importance.score"),
            "importance.score_calls": calls("importance.score"),
            "allocator.select_s": self_s("allocator.select"),
            "allocator.apply_s": self_s("allocator.apply"),
            "allocator.firings": firings,
            "allocator.firings_changed": tracer.counts["allocator.firings_changed"],
            "allocator.change_ratio":
                tracer.counts["allocator.firings_changed"] / firings if firings else 0.0,
            "training.loop_self_s": self_s("training.run"),
            "checkpoint.serialize_s": self_s("checkpoint.serialize"),
            "checkpoint.bytes": rec["checkpoint_bytes"],
            "checkpoint.parse_s": self_s("checkpoint.parse"),
            "trace.serialize_s": self_s("trace.serialize"),
            "trace.events": tracer.counts["trace.events"],
            "trace.read_s": self_s("trace.read"),
            "trace.verify_s": self_s("trace.verify"),
            "trace.heatmap_s": self_s("trace.heatmap"),
            "cli.write_self_s": (t_main_end - run_end) - serialize,
            "floor.gemm_s": self._floor_gemm(config, rec["steps"]),
        }
        m["compute_over_floor"] = (m["model.forward_s"] + m["adapter.forward_s"]
                                   + m["model.backward_s"] + m["adapter.ortho_grad_s"]
                                   ) / m["floor.gemm_s"]
        m["linear"] = linear
        m["per_call"] = {n: summary.get(n, empty)[3]
                         for n in ("optim.step", "model.forward", "model.backward")}
        problems = rec["problems"]
        if m["optim.step_calls"] != rec["steps"]:
            problems.append(f"optim.step_calls {m['optim.step_calls']} != {rec['steps']} steps")
        if firings != expected_firings(config["schedule"]):
            problems.append(f"allocator.firings {firings} != "
                            f"{expected_firings(config['schedule'])} from the schedule")
        if not m["adapter.prunes"] + m["adapter.expands"] == m["trace.events"] == rec["events"]:
            problems.append(f"prunes {m['adapter.prunes']} + expands {m['adapter.expands']}, "
                            f"trace.events {m['trace.events']} and {rec['events']} event "
                            f"lines disagree")
        return m

    def _floor_gemm(self, config, steps):
        """Bare base_w @ x and base_w.T @ g at every linear layer's shape."""
        rng = self.np.random.default_rng(config["seed"])
        batch = config["batch_size"]
        mats = [(rng.standard_normal((d_out, d_in)), rng.standard_normal((d_in, batch)),
                 rng.standard_normal((d_out, batch)))
                for d_in, d_out, *_ in linear_layers(config)]
        t0 = time.perf_counter()
        for _ in range(steps):
            for w, x, g in mats:
                w @ x
                w.T @ g
        return time.perf_counter() - t0


def _median(values):
    return statistics.median(values)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(bench, rounds):
    """Means over the run's rounds. The time a round takes swings between a
    fast and a slow mode on this machine, and the median of a dozen such
    rounds jumps between the modes where the mean does not."""
    import resource

    def mean(key):
        return statistics.fmean(r[key] for r in rounds)

    return {
        "setup_s": bench.setup_s,
        "steps_per_s": sum(r["steps"] for r in rounds) / sum(r["loop_s"] for r in rounds),
        "train_wall_s": mean("train_wall_s"),
        "artifact_write_s": mean("artifact_write_s"),
        "checkpoint_load_s": mean("checkpoint_load_s"),
        "replay_s": mean("replay_s"),
        "artifact_bytes": mean("artifact_bytes"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holdout_mse": mean("holdout_mse"),
    }


def per_layer(pairs):
    traced = [t["layers"] for _, t in pairs]
    m = {name: _median([t[name] for t in traced])
         for name in PER_LAYER if name in traced[0]}
    for name in ("optim.step", "model.forward", "model.backward"):
        samples = [d for t in traced for d in t["per_call"][name]]
        m[f"{name}.median_us"] = _median(samples) * 1e6
        m[f"{name}.p99_us"] = _percentile(samples, 0.99) * 1e6
        m[f"{name}.samples"] = len(samples)
    m["trace.overhead_s"] = _median([t["train_wall_s"] - u["train_wall_s"] for u, t in pairs])
    linear = {k: _median([t["linear"][k] for t in traced]) for k in traced[0]["linear"]}
    return m, linear


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rankflex" / "__init__.py").is_file():
        print(f"rankflex sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: with two on this 2-CPU machine, any other process on
    # the second CPU stalls every GEMM barrier, which slowed wide's step
    # loop eightfold in a trial. One thread also stays within nproc anywhere.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from checks import check_rank_order
    from tracer import Tracer

    TMP_ROOT.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        bench = Bench(args.workload, args.seed, tmp_dir)
        start = time.perf_counter()
        rounds, pairs, index = [], [], 0
        while True:
            if args.trace:
                # Alternate which side of a pair runs first, so that drift in
                # the machine's speed does not bias trace.overhead_s.
                if index % 2:
                    traced = bench.round(index, Tracer())
                    pair = (bench.round(index), traced)
                else:
                    pair = (bench.round(index), bench.round(index, Tracer()))
                pairs.append(pair)
                rounds.extend(pair)
            else:
                rounds.append(bench.round(index))
            index += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    done = [r for r in rounds if r["ok"]]
    problems = [f"round seed {r['seed']}: {p}" for r in done for p in r["problems"]]
    for u, t in pairs:
        if u["ok"] and t["ok"] and u["digests"] != t["digests"]:
            problems.append(f"round seed {u['seed']}: traced artifacts differ from untraced")
    if args.workload == "desk":
        problems += check_rank_order([r["ranks"] for r in done])
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        complete = [(u, t) for u, t in pairs if u["ok"] and t["ok"]]
        values, linear = per_layer(complete) if complete else ({}, {})
        units = PER_LAYER
        for name, v in sorted(linear.items(), key=lambda kv: int(kv[0][len("linear"):])):
            print(f"model.{name}.forward_s {v:.6g} s")
    else:
        values = end_to_end(bench, done) if done else {}
        units = END_TO_END
    for name, unit in units.items():
        if name in values:
            print(f"{name} {values[name]:.6g} {unit}")
    print(f"rounds {len(rounds)}, operations {bench.attempted}, failed {bench.failed}")
    correct = not problems and len(values) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
