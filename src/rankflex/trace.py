"""Allocation trace files: serialize, read, verify, and pivot to heatmaps.

A trace is line-delimited JSON: one header record (seed, config hash,
schedule, adapter roster), zero or more event records in application order,
and at most one trailing abort record. Keys are sorted and separators fixed,
so identical runs serialize to identical bytes. This module owns every
record's JSON form, the allocator's ``AllocationEvent`` included.
``read_trace`` alone checks what a record says about itself: one function
reads each record type's (field, JSON types) table, an event's picked by its
action, as ``line N: <record> missing 'k'`` or ``line N: bad <record> k v``;
then the header's values, roster and schedule and each event's checks apply.
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

# (field, JSON types) per record type, as the writer gives them. Exact type
# tests keep bool (an int) out. An event's fields are in AllocationEvent's
# order, and its ``detail`` is a number for a prune, a string for an expand.
# The roster and schedule may hold any JSON value; the header's rules check them.
_NUMBER = (float, int)
_ANY = (dict, list, str, bool, type(None)) + _NUMBER
_HEADER = (("version", (int,)), ("seed", (int,)), ("mode", (str,)), ("metric", (str,)),
           ("adapters", _ANY), ("schedule", _ANY))
_ABORT = (("step", (int,)), ("reason", (str,)), ("loss", _NUMBER))
_EVENT = (("step", (int,)), ("adapter_id", (str,)), ("action", (str,)), ("rank_before", (int,)),
          ("rank_after", (int,)), ("score", _NUMBER + (type(None),)))
_EVENTS = {"prune": _EVENT + (("detail", _NUMBER), ("index", (int,))),
           "expand": _EVENT + (("detail", (str,)), ("index", (int,)))}
_NO_ACTION = (("action", ()),)  # for an action that names no table: any value is bad


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _event_json(e):
    """An event's fields as a JSON object; a NaN score is written as null."""
    return {"type": "event", **vars(e), "score": None if math.isnan(e.score) else float(e.score)}


def trace_lines(header, events, abort=None):
    lines = [_dump(header)]
    lines.extend(_dump(_event_json(e)) for e in events)
    if abort is not None:
        lines.append(_dump(abort))
    return lines


def _fields(obj, table, record):
    """The values of ``table``'s fields in ``obj``, in table order; TraceError
    names the first one missing or not of one of its JSON types."""
    values = []
    try:
        for key, types in table:
            value = obj[key]
            if type(value) not in types:
                raise TraceError(f"bad {record} {key} {value!r}")
            values.append(value)
    except KeyError:
        raise TraceError(f"{record} missing {key!r}") from None
    return values


def _header_schedule(schedule):
    try:
        values = {f.name: schedule[f.name] for f in fields(BudgetSchedule)}
        for name, value in values.items():
            if type(value) is not int:
                raise ParameterError(f"{name} {value!r} has type {type(value).__name__}")
        return BudgetSchedule(**values)
    except Exception as exc:
        raise TraceError(f"bad schedule ({exc})") from None


def _header_ids(obj):
    """The roster's adapter ids, once the header has passed its table and its rules."""
    _fields(obj, _HEADER, "header")
    for key, allowed in (("version", (TRACE_VERSION,)), ("mode", ALLOCATOR_MODES),
                         ("metric", METRIC_VARIANTS)):
        if obj[key] not in allowed:
            raise TraceError(f"bad header {key} {obj[key]!r}")
    adapters = obj["adapters"]
    if not (isinstance(adapters, list) and all(
            isinstance(a, dict) and isinstance(a.get("id"), str)
            and all(type(a.get(k)) is int for k in ("r_init", "r_max", "depth"))
            and 1 <= a["r_init"] <= a["r_max"] for a in adapters)
            and len({a["id"] for a in adapters}) == len(adapters)):
        raise TraceError("header adapters must be a list of objects with distinct string ids, "
                         "integer r_init, r_max and depth, and 1 <= r_init <= r_max")
    _header_schedule(obj["schedule"])
    return {a["id"] for a in adapters}


def read_trace(path):
    """Parse a trace file, read line by line, into (header, events, abort-or-None).

    Structural problems, and a record that fails its table, the header's rules
    or the event's own checks, raise TraceError naming the offending line (1-based).
    """
    header = None
    events = []
    abort = None
    with reading(path, TraceError, "trace file"), open(path, encoding="utf-8") as fh:
        for lineno, text in numbered_lines(fh):
            try:
                obj = json.loads(text)
                if not isinstance(obj, dict) or "type" not in obj:
                    raise TraceError("record has no type")
                kind = obj["type"]
                if kind in ("event", "abort") and header is None:
                    raise TraceError(f"{kind} before header")
                if kind == "event":
                    if abort is not None:
                        raise TraceError("event after abort record")
                    action = obj.get("action")
                    table = _EVENTS.get(action, _NO_ACTION) if type(action) is str else _NO_ACTION
                    values = _fields(obj, table, "event")  # in AllocationEvent's order
                    if values[1] not in ids:
                        raise TraceError(f"bad event (unknown adapter {values[1]!r})")
                    values[5] = math.nan if values[5] is None else float(values[5])  # score
                    events.append(AllocationEvent(*values))
                elif kind == "header":
                    if header is not None:
                        raise TraceError("duplicate header")
                    ids = _header_ids(obj)
                    header = obj
                elif kind == "abort":
                    if abort is not None:
                        raise TraceError("duplicate abort record")
                    _fields(obj, _ABORT, "abort record")
                    abort = obj
                else:
                    raise TraceError(f"unknown record type {kind!r}")
            except (ParameterError, OverflowError) as exc:  # AllocationEvent's checks; float()
                raise TraceError(f"line {lineno}: bad event ({exc})") from None
            except TraceError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
            except ValueError as exc:  # from json.loads; an integer too long has no msg
                raise TraceError(
                    f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
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
    forbidden = {"prune_only": "expand", "expand_only": "prune"}.get(mode)

    by_step = {}
    last_step = None
    expand_seen = False
    for i, e in enumerate(events, start=1):
        where = f"event {i} (step {e.step}, {e.adapter_id})"
        if last_step is not None and e.step < last_step:
            problems.append(f"{where}: steps not in order")
        expand_seen = expand_seen and e.step == last_step  # an expand counts within its step
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
        if e.action == forbidden:
            problems.append(f"{where}: {e.action} in {mode} mode")
        ranks[e.adapter_id] = e.rank_after
        if not 1 <= e.rank_after <= caps[e.adapter_id]:
            problems.append(f"{where}: rank {e.rank_after} outside [1, {caps[e.adapter_id]}]")
        by_step.setdefault(e.step, {"prune": 0, "expand": 0})[e.action] += 1

    for step, counts in sorted(by_step.items()):
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
