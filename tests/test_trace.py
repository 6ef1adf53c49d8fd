import json
import math
import re

import pytest

from rankflex.allocator import AllocationEvent
from rankflex.cli import main
from rankflex.errors import ParameterError, TraceError
from rankflex.trace import (
    heatmap_csv_lines,
    read_trace,
    trace_lines,
    verify_trace,
)


def write(path, header, events, abort=None):
    path.write_text("\n".join(trace_lines(header, events, abort)) + "\n", encoding="utf-8")


def write_ghost(path):
    """A trace whose second event names an adapter the roster lacks."""
    write(path, make_header(), good_events()[:1] + [ev(10, "ghost", "expand", 3)])
    return str(path)


def pivot(header, events):
    """(adapter ids, column labels, rank grid) read back from the heatmap CSV."""
    head, *rows = [line.split(",") for line in heatmap_csv_lines(header, events)]
    assert head[0] == "adapter"
    return [r[0] for r in rows], head[1:], [[int(c) for c in r[1:]] for r in rows]


def make_header(mode="bidirectional", adapters=None, schedule=None):
    return {
        "type": "header",
        "version": 1,
        "name": "t",
        "seed": 0,
        "config_hash": "x" * 64,
        "mode": mode,
        "metric": "spectral_entropy",
        "init_strategy": "zero_impact",
        "schedule": schedule or {
            "b0": 2, "t_warmup": 10, "t_final": 10,
            "total_steps": 100, "delta_t": 5,
        },
        "adapters": adapters or [
            {"id": "enc", "r_init": 3, "r_max": 6, "depth": 0},
            {"id": "dec", "r_init": 3, "r_max": 6, "depth": 2},
        ],
    }


def ev(step, aid, action, before, score=0.5, index=None):
    """A self-consistent event; an expand appends at index ``before``, a
    prune removes index 0 unless told otherwise."""
    expand = action == "expand"
    after = before + 1 if expand else before - 1
    detail = "zero_impact" if expand else 0.01
    if index is None:
        index = before if expand else 0
    return AllocationEvent(step=step, adapter_id=aid, action=action,
                           rank_before=before, rank_after=after,
                           score=score, detail=detail, index=index)


def event_json(e):
    """The JSON object a trace writes for the event ``e``."""
    return json.loads(trace_lines(make_header(), [e])[1])


def good_events():
    # Step 10: enc loses a rank, dec gains one; step 15 reverses it.
    return [
        ev(10, "enc", "prune", 3),
        ev(10, "dec", "expand", 3),
        ev(15, "dec", "prune", 4),
        ev(15, "enc", "expand", 2),
    ]


class TestEventRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [ev(10, "enc", "prune", 3, index=2), ev(10, "dec", "expand", 3)]
        write(path, make_header(), events)
        assert read_trace(path)[1] == events

    def test_nan_score_becomes_null(self, tmp_path):
        e = ev(10, "enc", "expand", 3, score=math.nan)
        assert event_json(e)["score"] is None
        path = tmp_path / "trace.jsonl"
        write(path, make_header(), [e])
        (back,) = read_trace(path)[1]
        assert math.isnan(back.score)

    def test_rank_step_must_be_one(self):
        with pytest.raises(ParameterError):
            AllocationEvent(step=0, adapter_id="a", action="prune",
                            rank_before=3, rank_after=1, score=0.0,
                            detail=0.0, index=0)

    def test_unknown_action(self):
        with pytest.raises(ParameterError):
            AllocationEvent(step=0, adapter_id="a", action="merge",
                            rank_before=3, rank_after=4, score=0.0,
                            detail=0.0, index=0)

    @pytest.mark.parametrize("action, before, after, index", [
        ("prune", 3, 4, 0), ("expand", 3, 2, 3),
        ("prune", 3, 2, 3), ("prune", 3, 2, -1),
        ("expand", 3, 4, 0), ("expand", 3, 4, 4),
    ], ids=["prune-up", "expand-down", "prune-index-at-rank", "prune-index-negative",
            "expand-index-inside", "expand-index-past-rank"])
    def test_event_must_agree_with_itself(self, action, before, after, index):
        # A prune takes the rank down by one and removes a live direction; an
        # expand takes it up by one and appends at the old rank.
        detail = 0.01 if action == "prune" else "zero_impact"
        with pytest.raises(ParameterError):
            AllocationEvent(10, "enc", action, before, after, 0.5, detail, index)


class TestRoundTrip:
    def test_write_read_preserves_everything(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        header = make_header()
        events = good_events()
        abort = {"type": "abort", "step": 20, "reason": "divergence",
                 "loss": 1e9}
        write(path, header, events, abort)
        h, es, ab = read_trace(path)
        assert h == header
        assert es == events
        assert ab == abort

    def test_lines_are_compact_sorted_json(self):
        lines = trace_lines(make_header(), good_events())
        for line in lines:
            obj = json.loads(line)
            assert line == json.dumps(obj, sort_keys=True,
                                      separators=(",", ":"))

    def test_byte_stability(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write(p1, make_header(), good_events())
        write(p2, make_header(), good_events())
        assert p1.read_bytes() == p2.read_bytes()

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = trace_lines(make_header(), good_events()[:1])
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n")
        _, events, _ = read_trace(path)
        assert len(events) == 1


class TestReadErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_empty_file(self, tmp_path):
        path = self.write_lines(tmp_path, [""])
        with pytest.raises(TraceError, match="line 1: empty trace"):
            read_trace(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_and_line_ends_keep_line_numbers(self, tmp_path, newline):
        lines = trace_lines(make_header(), good_events())
        path = tmp_path / "trace.jsonl"
        path.write_bytes(newline.join([lines[0], "", "  ", *lines[1:]]).encode() + b"\n")
        assert read_trace(path)[1] == good_events()
        path.write_bytes(newline.join([lines[0], "", "  ", *lines[1:], "{x"]).encode())
        with pytest.raises(TraceError, match="^line 8: invalid JSON"):
            read_trace(path)

    def test_invalid_json_names_line(self, tmp_path):
        lines = trace_lines(make_header(), [])
        path = self.write_lines(tmp_path, lines + ["{not json"])
        with pytest.raises(TraceError, match="line 2: invalid JSON"):
            read_trace(path)

    def test_record_without_type(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"a": 1}'])
        with pytest.raises(TraceError, match="line 1: record has no type"):
            read_trace(path)

    def test_event_before_header(self, tmp_path):
        line = json.dumps(event_json(good_events()[0]))
        path = self.write_lines(tmp_path, [line])
        with pytest.raises(TraceError, match="line 1: event before header"):
            read_trace(path)

    def test_duplicate_header(self, tmp_path):
        h = trace_lines(make_header(), [])[0]
        path = self.write_lines(tmp_path, [h, h])
        with pytest.raises(TraceError, match="line 2: duplicate header"):
            read_trace(path)

    def test_event_after_abort(self, tmp_path):
        lines = trace_lines(make_header(), good_events()[:1],
                            {"type": "abort", "step": 5, "reason": "x", "loss": 1.0})
        lines.append(json.dumps(event_json(good_events()[1])))
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(TraceError, match="line 4: event after abort"):
            read_trace(path)

    def test_unknown_record_type(self, tmp_path):
        lines = trace_lines(make_header(), [])
        lines.append('{"type": "checkpoint"}')
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(TraceError, match="unknown record type"):
            read_trace(path)

    def test_header_missing_key(self, tmp_path):
        h = make_header()
        del h["schedule"]
        path = self.write_lines(tmp_path, [json.dumps(h)])
        with pytest.raises(TraceError, match="header missing 'schedule'"):
            read_trace(path)

    @pytest.mark.parametrize("adapters", [
        5,
        [5],
        [{"id": "enc", "r_max": 6, "depth": 0}],
        [{"id": 3, "r_init": 3, "r_max": 6, "depth": 0}],
        [{"id": "enc", "r_init": 3, "r_max": 6, "depth": "0"}],
        [{"id": "enc", "r_init": True, "r_max": 6, "depth": 0}],
    ])
    def test_header_adapter_roster_shape(self, tmp_path, adapters):
        h = make_header()
        h["adapters"] = adapters
        path = self.write_lines(tmp_path, [json.dumps(h)])
        with pytest.raises(TraceError, match="line 1: header adapters"):
            read_trace(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read trace"):
            read_trace(tmp_path)
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(TraceError, match="cannot read trace"):
            read_trace(path)

    def test_header_bad_schedule(self, tmp_path):
        h = make_header(schedule={"b0": 0, "t_warmup": 0, "t_final": 0,
                                  "total_steps": 10, "delta_t": 1})
        path = self.write_lines(tmp_path, [json.dumps(h)])
        with pytest.raises(TraceError, match="bad schedule"):
            read_trace(path)

    def test_unknown_mode(self, tmp_path):
        path = self.write_lines(tmp_path, trace_lines(make_header(mode="sideways"), []))
        with pytest.raises(TraceError, match="line 1: bad header mode 'sideways'"):
            read_trace(path)

    def test_bad_event_payload(self, tmp_path):
        lines = trace_lines(make_header(), [])
        bad = event_json(good_events()[0])
        bad["rank_after"] = 9
        lines.append(json.dumps(bad))
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(TraceError, match="line 2: bad event"):
            read_trace(path)

    def test_unknown_adapter(self, tmp_path):
        path = self.write_lines(tmp_path, trace_lines(
            make_header(), good_events()[:1] + [ev(10, "ghost", "expand", 3)]))
        with pytest.raises(TraceError, match=r"^line 3: bad event \(unknown adapter 'ghost'\)"):
            read_trace(path)

    def test_duplicate_adapter_in_header(self, tmp_path):
        adapters = [{"id": "enc", "r_init": 3, "r_max": 6, "depth": 0},
                    {"id": "enc", "r_init": 2, "r_max": 6, "depth": 2}]
        path = self.write_lines(tmp_path, trace_lines(make_header(adapters=adapters), []))
        with pytest.raises(TraceError, match="^line 1: header adapters .* distinct string ids"):
            read_trace(path)

    @pytest.mark.parametrize("r_init", [0, -1, 7])
    def test_r_init_bounds_checked(self, tmp_path, r_init):
        adapters = [{"id": "enc", "r_init": r_init, "r_max": 6, "depth": 0}]
        path = self.write_lines(tmp_path, trace_lines(make_header(adapters=adapters), []))
        with pytest.raises(TraceError, match=r"^line 1: header adapters .* 1 <= r_init <= r_max"):
            read_trace(path)

    @pytest.mark.parametrize("key", ["step", "reason", "loss"])
    def test_abort_record_fields(self, tmp_path, key):
        abort = {"type": "abort", "step": 16, "reason": "divergence", "loss": 1e9}
        del abort[key]
        path = self.write_lines(tmp_path, trace_lines(make_header(), good_events(), abort))
        with pytest.raises(TraceError, match=f"^line 6: abort record missing '{key}'$"):
            read_trace(path)

    def test_abort_before_header(self, tmp_path):
        abort = {"type": "abort", "step": 16, "reason": "divergence", "loss": 1e9}
        path = self.write_lines(tmp_path, [json.dumps(abort)] + trace_lines(make_header(), []))
        with pytest.raises(TraceError, match="^line 1: abort before header$"):
            read_trace(path)

    def test_duplicate_abort_record(self, tmp_path):
        abort = {"type": "abort", "step": 16, "reason": "divergence", "loss": 1e9}
        lines = trace_lines(make_header(), good_events(), abort)
        path = self.write_lines(tmp_path, lines + [lines[-1]])
        with pytest.raises(TraceError, match="^line 7: duplicate abort record$"):
            read_trace(path)


class TestVerify:
    def test_clean_trace(self):
        assert verify_trace(make_header(), good_events()) == []

    def test_unknown_adapter(self, tmp_path, capsys):
        # read_trace rejects the event before verify_trace replays anything.
        assert main(["replay-verify", write_ghost(tmp_path / "t.jsonl")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "trace error: line 3: bad event (unknown adapter 'ghost')\n"

    def test_step_order(self):
        events = [ev(15, "enc", "prune", 3), ev(10, "dec", "prune", 3)]
        problems = verify_trace(make_header(mode="prune_only"), events)
        assert any("steps not in order" in p for p in problems)

    def test_prune_after_expand_within_step(self):
        events = [ev(10, "dec", "expand", 3), ev(10, "enc", "prune", 3)]
        problems = verify_trace(make_header(), events)
        assert any("prune after expand" in p for p in problems)

    def test_non_allocation_step(self):
        events = [ev(12, "enc", "prune", 3), ev(12, "dec", "expand", 3)]
        problems = verify_trace(make_header(), events)
        assert any("not an allocation step" in p for p in problems)

    def test_rank_continuity(self):
        events = [ev(10, "enc", "prune", 3), ev(10, "dec", "expand", 3),
                  ev(15, "enc", "prune", 3), ev(15, "dec", "expand", 4)]
        problems = verify_trace(make_header(), events)
        assert any("replay says 2" in p for p in problems)

    def test_rank_cap_violation(self):
        adapters = [{"id": "enc", "r_init": 3, "r_max": 3, "depth": 0}]
        problems = verify_trace(make_header(mode="expand_only",
                                            adapters=adapters),
                                [ev(10, "enc", "expand", 3)])
        assert any("outside [1, 3]" in p for p in problems)

    def test_mode_conformance(self):
        problems = verify_trace(make_header(mode="prune_only"),
                                [ev(10, "dec", "expand", 3)])
        assert any("expand in prune_only" in p for p in problems)
        problems = verify_trace(make_header(mode="expand_only"),
                                [ev(10, "enc", "prune", 3)])
        assert any("prune in expand_only" in p for p in problems)

    def test_budget_cap(self):
        # Budget at step 40 of the default schedule is 1; two prunes overflow.
        sched = {"b0": 1, "t_warmup": 10, "t_final": 10,
                 "total_steps": 100, "delta_t": 5}
        events = [ev(10, "enc", "prune", 3), ev(10, "dec", "prune", 3)]
        problems = verify_trace(make_header(mode="prune_only", schedule=sched),
                                events)
        assert any("exceed budget 1" in p for p in problems)

    def test_bidirectional_balance(self):
        problems = verify_trace(make_header(), [ev(10, "enc", "prune", 3)])
        assert any("bidirectional imbalance" in p for p in problems)

    @pytest.mark.parametrize("step, problem", [
        (15, "abort step 15 not after the last event's step 15"),
        (3, "abort step 3 not after the last event's step 15"),
        (-3, "abort step -3 outside [0, 100)"),
        (100, "abort step 100 outside [0, 100)"),
    ], ids=["at-last-event", "before-events", "negative", "at-total-steps"])
    def test_abort_step_contradicting_the_run(self, step, problem):
        # The run stops at the top of the abort step, before it allocates,
        # so every event lies before it and the step lies inside the run.
        abort = {"type": "abort", "step": step, "reason": "divergence", "loss": 1e9}
        assert problem in verify_trace(make_header(), good_events(), abort)
        assert verify_trace(make_header(), [], {**abort, "step": 0}) == []
        assert verify_trace(make_header(), [], {**abort, "step": 99}) == []


class TestHeatmap:
    def test_pivot_matches_hand_computation(self):
        ids, labels, grid = pivot(make_header(), good_events())
        assert ids == ["enc", "dec"]
        assert labels == ["init", "10", "15"]
        assert grid == [[3, 2, 3], [3, 4, 3]]

    def test_rows_follow_depth_order(self):
        adapters = [{"id": "zz", "r_init": 2, "r_max": 4, "depth": 4},
                    {"id": "aa", "r_init": 2, "r_max": 4, "depth": 0}]
        ids, _, _ = pivot(make_header(adapters=adapters), [])
        assert ids == ["aa", "zz"]

    def test_zero_events_single_column(self):
        ids, labels, grid = pivot(make_header(), [])
        assert labels == ["init"]
        assert grid == [[3], [3]]

    def test_csv_rendering(self):
        lines = heatmap_csv_lines(make_header(), good_events())
        assert lines == [
            "adapter,init,10,15",
            "enc,3,2,3",
            "dec,3,4,3",
        ]

    def test_unknown_adapter_rejected(self, tmp_path, capsys):
        out_csv = tmp_path / "heat.csv"
        assert main(["export-heatmap", write_ghost(tmp_path / "t.jsonl"),
                     "--out", str(out_csv)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "trace error: line 3: bad event (unknown adapter 'ghost')\n"
        assert not out_csv.exists()

    def test_final_column_is_final_rank_state(self):
        events = good_events() + [ev(20, "enc", "prune", 3),
                                  ev(20, "dec", "expand", 3)]
        _, _, grid = pivot(make_header(), events)
        assert [row[-1] for row in grid] == [2, 4]


def table_records():
    """A clean trace's records: header, a prune and an expand at step 10, abort."""
    abort = {"type": "abort", "step": 16, "reason": "divergence", "loss": 1e9}
    return [json.loads(line) for line in trace_lines(make_header(), good_events()[:2], abort)]


# (line index, record name, field, JSON kind) for every field of every table.
# An event's table is picked by its action: line 1 is a prune, line 2 an expand.
_EVENT_KINDS = (("step", "int"), ("adapter_id", "str"), ("action", "str"),
                ("rank_before", "int"), ("rank_after", "int"), ("score", "number or null"),
                ("index", "int"))
TABLE_FIELDS = (
    [(0, "header", key, kind) for key, kind in (
        ("version", "int"), ("seed", "int"), ("mode", "str"), ("metric", "str"),
        ("adapters", "any"), ("schedule", "any"))]
    + [(1, "event", key, kind) for key, kind in _EVENT_KINDS + (("detail", "number"),)]
    + [(2, "event", key, kind) for key, kind in _EVENT_KINDS + (("detail", "str"),)]
    + [(3, "abort record", key, kind) for key, kind in (
        ("step", "int"), ("reason", "str"), ("loss", "number"))]
)
TYPED_FIELDS = [c for c in TABLE_FIELDS if c[3] != "any"]
NUMERIC_FIELDS = [c for c in TABLE_FIELDS if c[3] in ("int", "number")]
# A JSON value of another type, per kind.
WRONG_TYPE = {"int": "3", "str": 7, "number": "0.5", "number or null": "0.5"}


def _field_ids(cases):
    return [f"{line}-{key}" for line, _, key, _ in cases]


class TestRecordTables:
    """Every record type's fields are read by one table: a missing field and
    a value of another JSON type each fail with the record, the field and
    the line; an event's action picks its table."""

    def read_with(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(map(json.dumps, records)) + "\n")
        return path

    def test_clean_records_read(self, tmp_path):
        header, events, abort = read_trace(self.read_with(tmp_path, table_records()))
        assert events == good_events()[:2] and abort["step"] == 16

    @pytest.mark.parametrize("line, record, key, kind", TABLE_FIELDS,
                             ids=_field_ids(TABLE_FIELDS))
    def test_missing_field(self, tmp_path, line, record, key, kind):
        records = table_records()
        del records[line][key]
        path = self.read_with(tmp_path, records)
        with pytest.raises(TraceError, match=f"^line {line + 1}: {record} missing '{key}'$"):
            read_trace(path)

    @pytest.mark.parametrize("line, record, key, kind", TYPED_FIELDS,
                             ids=_field_ids(TYPED_FIELDS))
    def test_wrong_json_type(self, tmp_path, line, record, key, kind):
        records = table_records()
        records[line][key] = WRONG_TYPE[kind]
        path = self.read_with(tmp_path, records)
        message = f"line {line + 1}: bad {record} {key} {WRONG_TYPE[kind]!r}"
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            read_trace(path)

    @pytest.mark.parametrize("line, record, key, kind", NUMERIC_FIELDS,
                             ids=_field_ids(NUMERIC_FIELDS))
    def test_true_is_not_a_number(self, tmp_path, line, record, key, kind):
        records = table_records()
        records[line][key] = True
        path = self.read_with(tmp_path, records)
        with pytest.raises(TraceError, match=f"^line {line + 1}: bad {record} {key} True$"):
            read_trace(path)

    @pytest.mark.parametrize("action", ["grow", "Prune", "", 1, None, True, ["prune"],
                                        {"prune": 1}])
    def test_action_naming_no_table(self, tmp_path, action):
        records = table_records()
        records[1]["action"] = action
        path = self.read_with(tmp_path, records)
        message = f"line 2: bad event action {action!r}"
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            read_trace(path)

    def test_action_picks_the_detail_type(self, tmp_path):
        # An expand's string detail on a prune line, and the reverse.
        records = table_records()
        records[1]["action"], records[2]["action"] = "expand", "prune"
        path = self.read_with(tmp_path, records)
        with pytest.raises(TraceError, match=r"^line 2: bad event detail 0\.01$"):
            read_trace(path)

    def test_score_past_float_range(self, tmp_path):
        records = table_records()
        records[1]["score"] = 10 ** 400
        path = self.read_with(tmp_path, records)
        with pytest.raises(TraceError, match=r"^line 2: bad event \(int too large to convert"):
            read_trace(path)

    def test_integer_of_too_many_digits(self, tmp_path, capsys):
        lines = trace_lines(make_header(), good_events()[:1])
        lines[1] = lines[1].replace('"step":10', '"step":' + "1" * 5000)
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="^line 2: invalid JSON .*digits"):
            read_trace(path)
        for command in ("replay-verify", "export-heatmap"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith("trace error: line 2: invalid JSON")
