"""Command-line front end.

Subcommands: train (full run producing trace/metrics/checkpoint artifacts),
importance (score a spectrum CSV), schedule (print the budget decay),
export-heatmap (pivot a trace to rank-over-time CSV), and replay-verify
(re-run a trace's bookkeeping and report violations).

Exit codes: 0 success, 1 runtime failure (lock conflict, bad trace, failed
verification, out of memory), 2 configuration or usage error (an unwritable
output path included), 3 training divergence (the partial trace with its
abort record is still written).

Artifacts are streamed a few lines at a time into a temp file renamed over
the target (so written atomically) and a ``.lock`` file taken with O_EXCL
guards each output directory against concurrent runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path

from .allocator import BudgetSchedule
from .checkpoint import checkpoint_lines
from .config import (
    apply_overrides,
    config_to_json,
    dataclass_from_json,
    load_config_file,
    parse_config,
)
from .errors import (
    ConfigError,
    ParameterError,
    ParseError,
    RankflexError,
    TraceError,
    numbered_lines,
    reading,
)
from .importance import EPSILON_DEFAULT, SPECTRUM_METRICS, spectrum_flag
from .linalg import matrix_from_csv_lines
from .trace import heatmap_csv_lines, read_trace, trace_lines, verify_trace
from .training import metrics_csv_lines, run_training

__all__ = ["main"]

OUTPUT_DIR_ENV = "RANKFLEX_OUTPUT_DIR"


def _atomic_write(path, lines):
    """Replace ``path`` by a new regular file of the list ``lines``, streamed a
    few at a time into a temporary file, each ended by a newline. An existing
    target of another kind (a named pipe, a device, a directory) is refused,
    not replaced, and a failed write leaves no temporary file behind."""
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ParameterError(f"{path}: exists and is not a regular file")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for i in range(0, len(lines), 64):
                fh.write("\n".join(lines[i:i + 64]) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ParameterError(f"{path}: cannot write it: {exc.strerror}") from None
    finally:
        if tmp.is_file():
            tmp.unlink()


def _lock_conflict(path):
    """Why the lock at ``path`` is held. A lock whose pid no longer runs here is
    stale; it is reported, not removed, because the pid is only looked up on
    this host and the run may live on another one that shares the directory."""
    try:
        pid = int(path.read_text(encoding="utf-8").split()[1])
        os.kill(pid, 0)
    except ProcessLookupError:
        return (f"stale lock: pid {pid} in {path} is not running; "
                f"remove {path} if no other run uses the directory")
    except (OSError, ValueError, IndexError):
        pass
    return f"output directory is locked by another run: {path}"


@contextmanager
def _output_lock(directory):
    """Hold an O_EXCL ``.lock`` file, holding this pid, in ``directory`` for the
    block. A lock that cannot be made or written is a ParameterError, like
    an artifact's, and leaves no file behind."""
    path = Path(directory) / ".lock"
    fd = None
    try:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, f"pid {os.getpid()}\n".encode())
        except FileExistsError:
            raise RankflexError(_lock_conflict(path)) from None
        except OSError as exc:
            raise ParameterError(f"{path}: cannot write it: {exc.strerror}") from None
        yield
    finally:
        if fd is not None:
            os.close(fd)
            path.unlink(missing_ok=True)


def _write_artifacts(outdir, config, result, overrides):
    effective = config_to_json(config, applied_overrides=overrides)
    artifacts = {
        "trace.jsonl": trace_lines(result.header, result.events, result.abort),
        "metrics.csv": metrics_csv_lines(result.header, result.metrics),
        "checkpoint.txt": checkpoint_lines(result.model),
        "effective_config.json": [json.dumps(effective, indent=2, sort_keys=True)],
    }
    for name, lines in artifacts.items():
        _atomic_write(outdir / name, lines)


def cmd_train(args):
    raw = load_config_file(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("config: must be an object")
    overrides = list(args.override)
    if overrides:
        raw = apply_overrides(raw, overrides)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir and not any(o.startswith("output_dir=") for o in overrides):
        raw["output_dir"] = env_dir
    if args.seed is not None:
        raw["seed"] = args.seed
    config = parse_config(raw)
    outdir = Path(config.output_dir) if config.output_dir else Path("runs") / config.name
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {outdir}: cannot make it: {exc.strerror}") from None
    with _output_lock(outdir):
        result = run_training(config)
        _write_artifacts(outdir, config, result, overrides)
    if result.diverged:
        print(f"diverged: loss {result.final_loss} at step {result.abort['step']}",
              file=sys.stderr)
    else:
        total_rank = sum(a.rank for a in result.model.adapters())
        print(f"completed {config.schedule.total_steps} steps; "
              f"final loss {result.final_loss:.6g}; total rank {total_rank}")
    print(f"artifacts written to {outdir}")
    return 3 if result.diverged else 0


def _load_spectrum_csv(path):
    with reading(path, ParseError, "spectrum file"), open(path, encoding="utf-8") as fh:
        rows = [line for _, line in numbered_lines(fh)]
    if not rows:
        raise ParseError("empty spectrum file")
    if len(rows) != 1:
        raise ParseError(f"expected a single-row CSV, got {len(rows)} rows")
    return matrix_from_csv_lines(rows)[0].tolist()


def cmd_importance(args):
    values = _load_spectrum_csv(args.spectrum)
    # Score everything before printing, so a bad epsilon prints no line.
    lines = [f"{name} {fn(values, args.epsilon):#.12g}" for name, fn in SPECTRUM_METRICS.items()]
    print("\n".join(lines + ["sensitivity n/a"]))
    flag = spectrum_flag(values)
    if flag is not None:
        print(f"flag {flag}")
    return 0


def cmd_schedule(args):
    values = {f.name: getattr(args, f.name) for f in fields(BudgetSchedule)}
    schedule = dataclass_from_json(BudgetSchedule, values, "schedule")
    if schedule.t_warmup + schedule.t_final >= schedule.total_steps:
        raise ParameterError("t_warmup + t_final must be < total_steps")
    try:
        rows = set(schedule.allocation_steps())
    except MemoryError:
        count = len(range(schedule.t_warmup, schedule.window_end, schedule.delta_t))
        raise MemoryError(f"cannot tabulate {count} allocation steps") from None
    rows.update({schedule.t_warmup, schedule.window_end})
    if schedule.t_warmup > 0:
        rows.add(schedule.t_warmup - 1)
    print("t,budget,allocation")
    for t in sorted(rows):
        fires = "yes" if schedule.is_allocation_step(t) else "no"
        print(f"{t},{schedule.budget(t)},{fires}")
    return 0


def cmd_export_heatmap(args):
    with suppress(OSError):  # by any path or link; a missing file is no match
        if args.out is not None and os.path.samefile(args.out, args.trace):
            raise ParameterError(f"--out {args.out} is the trace being read")
    header, events, _ = read_trace(args.trace)
    lines = heatmap_csv_lines(header, events)
    if args.out is None:
        print(*lines, sep="\n")
    else:
        _atomic_write(args.out, lines)
        print(f"heatmap written to {args.out}")
    return 0


def cmd_replay_verify(args):
    header, events, abort = read_trace(args.trace)
    problems = verify_trace(header, events, abort)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print(f"trace ok: {len(events)} events, "
          f"{len(header['adapters'])} adapters, seed {header['seed']}")
    return 0


@functools.cache
def build_parser():
    # Built once: nothing mutates it, and parse_args returns a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="rankflex",
        description="Dynamic-rank adapter engine: training, metrics, and trace tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment from a JSON config")
    p.add_argument("config", help="path to the JSON config file")
    p.add_argument("override", nargs="*",
                   help="dotted-path overrides, e.g. schedule.b0=2")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("importance", help="score a single-row spectrum CSV")
    p.add_argument("spectrum", help="CSV file with one row of values")
    p.add_argument("--epsilon", type=float, default=EPSILON_DEFAULT,
                   help="log guard for the entropy variants")
    p.set_defaults(fn=cmd_importance)

    p = sub.add_parser("schedule", help="print the budget decay table")
    p.add_argument("b0", type=int)
    p.add_argument("t_warmup", type=int)
    p.add_argument("t_final", type=int)
    p.add_argument("total_steps", type=int)
    p.add_argument("delta_t", type=int)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("export-heatmap", help="pivot a trace to a rank heatmap CSV")
    p.add_argument("trace", help="trace.jsonl produced by train")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_export_heatmap)

    p = sub.add_parser("replay-verify", help="check a trace's bookkeeping")
    p.add_argument("trace", help="trace.jsonl produced by train")
    p.set_defaults(fn=cmd_replay_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: send what is still buffered to devnull,
        # so that the interpreter's last flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    except RankflexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1

