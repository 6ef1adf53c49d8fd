"""Allocation trace files: serialize, read, verify, and pivot to heatmaps.

A trace is line-delimited JSON: one header record (seed, config hash,
schedule, adapter roster), zero or more event records in application order,
and at most one trailing abort record. Keys are sorted and separators fixed,
so identical runs serialize to identical bytes. This module owns every
record's JSON form, the allocator's ``AllocationEvent`` included; each
non-blank line read back is one record, which must have the JSON types
written and pass the event's own checks.

``verify_trace`` replays the bookkeeping from scratch — rank bounds, step
legality against the schedule, per-step budget caps, mode conformance,
exact rank conservation in bidirectional mode, and an abort step inside the
run and after every event — and reports every violation with its line
context.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from .allocator import ALLOCATOR_MODES, AllocationEvent, BudgetSchedule
from .errors import ParameterError, TraceError, numbered_lines, reading
from .importance import METRIC_VARIANTS

__all__ = [
    "trace_lines",
    "read_trace",
    "verify_trace",
    "heatmap_csv_lines",
]

TRACE_VERSION = 1

# Value checks of the header's and the abort record's fields, where present.
_HEADER_VALUES = {
    "version": lambda v: type(v) is int and v == TRACE_VERSION,
    "seed": lambda v: type(v) is int,
    "mode": lambda v: v in ALLOCATOR_MODES,
    "metric": lambda v: v in METRIC_VARIANTS,
}
_ABORT_VALUES = {
    "step": lambda v: type(v) is int,
    "reason": lambda v: isinstance(v, str),
    "loss": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

# (field, JSON types) of an event as ``_event_json`` writes them: ``detail``
# is a number for a prune, a string for an expand. Exact type tests keep
# bool (an int) out.
_NUMBER = (float, int)
_FIELD_TYPES = (("step", (int,)), ("adapter_id", (str,)), ("action", (str,)),
                ("rank_before", (int,)), ("rank_after", (int,)),
                ("score", _NUMBER + (type(None),)), ("index", (int,)))
_PRUNE_TYPES = _FIELD_TYPES + (("detail", _NUMBER),)
_EXPAND_TYPES = _FIELD_TYPES + (("detail", (str,)),)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _event_json(e):
    """An event's fields as a JSON object; a NaN score is written as null."""
    return {"type": "event", **vars(e), "score": None if math.isnan(e.score) else float(e.score)}


def _event_from_json(obj):
    """Inverse of ``_event_json``: each field must have the JSON type that
    it writes, or ParameterError names the field."""
    for key, types in _EXPAND_TYPES if obj["action"] == "expand" else _PRUNE_TYPES:
        if type(obj[key]) not in types:
            raise ParameterError(f"{key} {obj[key]!r} has type {type(obj[key]).__name__}")
    score = obj["score"]
    return AllocationEvent(obj["step"], obj["adapter_id"], obj["action"], obj["rank_before"],
                           obj["rank_after"], math.nan if score is None else float(score),
                           obj["detail"], obj["index"])


def trace_lines(header, events, abort=None):
    lines = [_dump(header)]
    lines.extend(_dump(_event_json(e)) for e in events)
    if abort is not None:
        lines.append(_dump(abort))
    return lines


def _header_schedule(header):
    values = {f.name: header["schedule"][f.name] for f in fields(BudgetSchedule)}
    for name, value in values.items():
        if type(value) is not int:
            raise TraceError(f"{name} {value!r} has type {type(value).__name__}")
    return BudgetSchedule(**values)


def _is_roster(adapters):
    return isinstance(adapters, list) and all(
        isinstance(a, dict) and isinstance(a.get("id"), str)
        and all(type(a.get(k)) is int for k in ("r_init", "r_max", "depth"))
        for a in adapters)


def _check_values(obj, checks, record, lineno):
    for key, ok in checks.items():
        if key in obj and not ok(obj[key]):
            raise TraceError(f"line {lineno}: bad {record} {key} {obj[key]!r}")


def read_trace(path):
    """Parse a trace file, read line by line, into (header, events, abort-or-None).

    Structural problems, fields of the wrong type, an event that contradicts
    itself and an unknown version, mode or metric raise TraceError naming
    the offending line (1-based).
    """
    header = None
    events = []
    abort = None
    with reading(path, TraceError, "trace file"), open(path, encoding="utf-8") as fh:
        for lineno, text in numbered_lines(fh):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "type" not in obj:
                raise TraceError(f"line {lineno}: record has no type")
            kind = obj["type"]
            if kind == "header":
                if header is not None:
                    raise TraceError(f"line {lineno}: duplicate header")
                for key in ("version", "seed", "mode", "metric", "schedule", "adapters"):
                    if key not in obj:
                        raise TraceError(f"line {lineno}: header missing {key!r}")
                _check_values(obj, _HEADER_VALUES, "header", lineno)
                if not _is_roster(obj["adapters"]):
                    raise TraceError(f"line {lineno}: header adapters must be a list of objects "
                                     "with a string id and integer r_init, r_max and depth")
                try:
                    _header_schedule(obj)
                except Exception as exc:
                    raise TraceError(f"line {lineno}: bad schedule ({exc})") from None
                header = obj
            elif kind == "event":
                if header is None:
                    raise TraceError(f"line {lineno}: event before header")
                if abort is not None:
                    raise TraceError(f"line {lineno}: event after abort record")
                try:
                    events.append(_event_from_json(obj))
                except Exception as exc:
                    raise TraceError(f"line {lineno}: bad event ({exc})") from None
            elif kind == "abort":
                if header is None:
                    raise TraceError(f"line {lineno}: abort before header")
                if abort is not None:
                    raise TraceError(f"line {lineno}: duplicate abort record")
                _check_values(obj, _ABORT_VALUES, "abort record", lineno)
                abort = obj
            else:
                raise TraceError(f"line {lineno}: unknown record type {kind!r}")
    if header is None:  # any first record but a header has raised
        raise TraceError("line 1: empty trace")
    return header, events, abort


def verify_trace(header, events, abort=None):
    """Replay a trace's bookkeeping; returns a list of problem strings."""
    problems = []
    schedule = _header_schedule(header)
    mode = header["mode"]
    ranks = {}
    caps = {}
    for meta in header["adapters"]:
        aid = meta["id"]
        if aid in ranks:
            problems.append(f"header: duplicate adapter {aid!r}")
        ranks[aid] = int(meta["r_init"])
        caps[aid] = int(meta["r_max"])
        if not 1 <= ranks[aid] <= caps[aid]:
            problems.append(f"header: adapter {aid!r} r_init outside [1, r_max]")

    by_step = {}
    last_step = None
    expand_seen = False
    for i, e in enumerate(events, start=1):
        where = f"event {i} (step {e.step}, {e.adapter_id})"
        if last_step is not None and e.step < last_step:
            problems.append(f"{where}: steps not in order")
        if e.step != last_step:
            expand_seen = False
        last_step = e.step
        if e.action == "expand":
            expand_seen = True
        elif expand_seen:
            problems.append(f"{where}: prune after expand within one step")
        if e.adapter_id not in ranks:
            problems.append(f"{where}: unknown adapter")
            continue
        if not schedule.is_allocation_step(e.step):
            problems.append(f"{where}: not an allocation step")
        if e.rank_before != ranks[e.adapter_id]:
            problems.append(
                f"{where}: rank_before {e.rank_before} but replay says {ranks[e.adapter_id]}"
            )
        if mode == "prune_only" and e.action == "expand":
            problems.append(f"{where}: expand in prune_only mode")
        if mode == "expand_only" and e.action == "prune":
            problems.append(f"{where}: prune in expand_only mode")
        ranks[e.adapter_id] = e.rank_after
        if not 1 <= e.rank_after <= caps[e.adapter_id]:
            problems.append(f"{where}: rank {e.rank_after} outside [1, {caps[e.adapter_id]}]")
        step_counts = by_step.setdefault(e.step, {"prune": 0, "expand": 0})
        step_counts[e.action] += 1

    for step in sorted(by_step):
        counts = by_step[step]
        budget = schedule.budget(step)
        for action in ("prune", "expand"):
            if counts[action] > budget:
                problems.append(
                    f"step {step}: {counts[action]} {action}s exceed budget {budget}"
                )
        if mode == "bidirectional" and counts["prune"] != counts["expand"]:
            problems.append(
                f"step {step}: bidirectional imbalance "
                f"({counts['prune']} prunes, {counts['expand']} expands)"
            )
    if abort is not None:
        for key in ("step", "reason"):
            if key not in abort:
                problems.append(f"abort record missing {key!r}")
        # A run aborts at the top of its step, before that step allocates.
        step = abort.get("step")
        if step is not None and not 0 <= step < schedule.total_steps:
            problems.append(f"abort step {step} outside [0, {schedule.total_steps})")
        last = max((e.step for e in events), default=None)
        if step is not None and last is not None and last >= step:
            problems.append(f"abort step {step} not after the last event's step {last}")
    return problems


def heatmap_csv_lines(header, events):
    """Pivot a trace into a rank-over-time CSV: one row per adapter in depth
    order, holding its id, its initial rank (column "init") and its rank
    after each step that saw an event (one column per such step)."""
    meta = sorted(header["adapters"], key=lambda m: m["depth"])
    ranks = {m["id"]: int(m["r_init"]) for m in meta}
    rows = [[m["id"], str(ranks[m["id"]])] for m in meta]
    by_step = {}
    for e in events:
        by_step.setdefault(e.step, []).append(e)
    steps = sorted(by_step)
    for step in steps:
        for e in by_step[step]:
            if e.adapter_id not in ranks:
                raise TraceError(f"event for unknown adapter {e.adapter_id!r}")
            ranks[e.adapter_id] = e.rank_after
        for row in rows:
            row.append(str(ranks[row[0]]))
    return [",".join(["adapter", "init", *map(str, steps)])] + [",".join(row) for row in rows]
