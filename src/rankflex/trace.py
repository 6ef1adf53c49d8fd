"""Allocation trace files: serialize, read, verify, and pivot to heatmaps.

A trace is line-delimited JSON: one header record (seed, config hash,
schedule, adapter roster), zero or more event records in application order,
and at most one trailing abort record. Keys are sorted and separators fixed,
so identical runs serialize to identical bytes. This module owns every
record's JSON form, the allocator's ``AllocationEvent`` included.
``read_trace`` alone checks what a record says about itself: each non-blank
line is one record holding every field of its type's table, with the JSON
type written, and an event must agree with itself and name a roster adapter.
``verify_trace`` replays the bookkeeping of what it returns — rank bounds,
step legality against the schedule, per-step budget caps, mode conformance,
exact rank conservation in bidirectional mode, and an abort step inside the
run and after every event — and reports every violation with its line
context; ``heatmap_csv_lines`` only pivots it.
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


def _event_from_json(obj, ids):
    """Inverse of ``_event_json``; ParameterError names an ill-typed field or an unknown id."""
    for key, types in _EXPAND_TYPES if obj["action"] == "expand" else _PRUNE_TYPES:
        if type(obj[key]) not in types:
            raise ParameterError(f"{key} {obj[key]!r} has type {type(obj[key]).__name__}")
    if obj["adapter_id"] not in ids:
        raise ParameterError(f"unknown adapter {obj['adapter_id']!r}")
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


def _header_schedule(schedule):
    try:
        values = {f.name: schedule[f.name] for f in fields(BudgetSchedule)}
        for name, value in values.items():
            if type(value) is not int:
                raise ParameterError(f"{name} {value!r} has type {type(value).__name__}")
        return BudgetSchedule(**values)
    except Exception as exc:
        raise TraceError(f"bad schedule ({exc})") from None


def _is_roster(adapters):
    if not (isinstance(adapters, list) and all(
            isinstance(a, dict) and isinstance(a.get("id"), str)
            and all(type(a.get(k)) is int for k in ("r_init", "r_max", "depth"))
            and 1 <= a["r_init"] <= a["r_max"] for a in adapters)
            and len({a["id"] for a in adapters}) == len(adapters)):
        raise TraceError("header adapters must be a list of objects with distinct string ids, "
                         "integer r_init, r_max and depth, and 1 <= r_init <= r_max")
    return True


# Every field a record must hold, with its check: False or TraceError if bad.
_HEADER = {
    "version": lambda v: type(v) is int and v == TRACE_VERSION,
    "seed": lambda v: type(v) is int,
    "mode": lambda v: v in ALLOCATOR_MODES,
    "metric": lambda v: v in METRIC_VARIANTS,
    "adapters": _is_roster,
    "schedule": _header_schedule,
}
_ABORT = {
    "step": lambda v: type(v) is int,
    "reason": lambda v: isinstance(v, str),
    "loss": lambda v: type(v) in _NUMBER,
}


def _check_record(obj, table, record, lineno):
    for key, check in table.items():
        if key not in obj:
            raise TraceError(f"line {lineno}: {record} missing {key!r}")
        try:
            good = check(obj[key])
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if not good:
            raise TraceError(f"line {lineno}: bad {record} {key} {obj[key]!r}")


def read_trace(path):
    """Parse a trace file, read line by line, into (header, events, abort-or-None).

    Structural problems, and a record that fails its table, the roster rule
    or the event's checks, raise TraceError naming the offending line (1-based).
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
            if kind in ("event", "abort") and header is None:
                raise TraceError(f"line {lineno}: {kind} before header")
            if kind == "header":
                if header is not None:
                    raise TraceError(f"line {lineno}: duplicate header")
                _check_record(obj, _HEADER, "header", lineno)
                header = obj
                ids = {a["id"] for a in obj["adapters"]}
            elif kind == "event":
                if abort is not None:
                    raise TraceError(f"line {lineno}: event after abort record")
                try:
                    events.append(_event_from_json(obj, ids))
                except Exception as exc:
                    raise TraceError(f"line {lineno}: bad event ({exc})") from None
            elif kind == "abort":
                if abort is not None:
                    raise TraceError(f"line {lineno}: duplicate abort record")
                _check_record(obj, _ABORT, "abort record", lineno)
                abort = obj
            else:
                raise TraceError(f"line {lineno}: unknown record type {kind!r}")
    if header is None:  # any first record but a header has raised
        raise TraceError("line 1: empty trace")
    return header, events, abort


def verify_trace(header, events, abort=None):
    """Replay the bookkeeping of a trace as ``read_trace`` returns it, whose
    records have passed their own checks; returns a list of problem strings."""
    problems = []
    schedule = _header_schedule(header["schedule"])
    mode = header["mode"]
    ranks = {meta["id"]: meta["r_init"] for meta in header["adapters"]}
    caps = {meta["id"]: meta["r_max"] for meta in header["adapters"]}

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
        # A run aborts at the top of its step, before that step allocates.
        step = abort["step"]
        if not 0 <= step < schedule.total_steps:
            problems.append(f"abort step {step} outside [0, {schedule.total_steps})")
        last = max((e.step for e in events), default=None)
        if last is not None and last >= step:
            problems.append(f"abort step {step} not after the last event's step {last}")
    return problems


def heatmap_csv_lines(header, events):
    """Pivot a trace as ``read_trace`` returns it into a rank-over-time CSV:
    one row per adapter in depth order, holding its id, its initial rank
    (column "init") and its rank after each step that saw an event."""
    meta = sorted(header["adapters"], key=lambda m: m["depth"])
    ranks = {m["id"]: m["r_init"] for m in meta}
    rows = [[m["id"], str(ranks[m["id"]])] for m in meta]
    by_step = {}
    for e in events:
        by_step.setdefault(e.step, []).append(e)
    steps = sorted(by_step)
    for step in steps:
        for e in by_step[step]:
            ranks[e.adapter_id] = e.rank_after
        for row in rows:
            row.append(str(ranks[row[0]]))
    return [",".join(["adapter", "init", *map(str, steps)])] + [",".join(row) for row in rows]
