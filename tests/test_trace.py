import json
import math

import pytest

from rankflex.errors import ParameterError, TraceError
from rankflex.events import AllocationEvent
from rankflex.trace import (
    heatmap_csv_lines,
    read_trace,
    trace_lines,
    verify_trace,
)


def write(path, header, events, abort=None):
    path.write_text("\n".join(trace_lines(header, events, abort)) + "\n", encoding="utf-8")


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


def ev(step, aid, action, before, score=0.5, index=0):
    after = before + 1 if action == "expand" else before - 1
    detail = "zero_impact" if action == "expand" else 0.01
    return AllocationEvent(step=step, adapter_id=aid, action=action,
                           rank_before=before, rank_after=after,
                           score=score, detail=detail, index=index)


def good_events():
    # Step 10: enc loses a rank, dec gains one; step 15 reverses it.
    return [
        ev(10, "enc", "prune", 3),
        ev(10, "dec", "expand", 3),
        ev(15, "dec", "prune", 4),
        ev(15, "enc", "expand", 2),
    ]


class TestEventRecord:
    def test_round_trip(self):
        e = ev(10, "enc", "prune", 3)
        assert AllocationEvent.from_json(e.to_json()) == e

    def test_nan_score_becomes_null(self):
        e = ev(10, "enc", "expand", 3, score=math.nan)
        obj = e.to_json()
        assert obj["score"] is None
        back = AllocationEvent.from_json(obj)
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
        line = json.dumps(good_events()[0].to_json())
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
                            {"type": "abort", "step": 5, "reason": "x"})
        lines.append(json.dumps(good_events()[1].to_json()))
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
        bad = good_events()[0].to_json()
        bad["rank_after"] = 9
        lines.append(json.dumps(bad))
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(TraceError, match="line 2: bad event"):
            read_trace(path)


class TestVerify:
    def test_clean_trace(self):
        assert verify_trace(make_header(), good_events()) == []

    def test_unknown_adapter(self):
        problems = verify_trace(make_header(), [ev(10, "ghost", "prune", 3)])
        assert any("unknown adapter" in p for p in problems)

    def test_duplicate_adapter_in_header(self):
        adapters = [{"id": "enc", "r_init": 3, "r_max": 6, "depth": 0},
                    {"id": "enc", "r_init": 2, "r_max": 6, "depth": 2}]
        problems = verify_trace(make_header(adapters=adapters), [])
        assert any("duplicate adapter" in p for p in problems)

    def test_r_init_bounds_checked(self):
        adapters = [{"id": "enc", "r_init": 9, "r_max": 6, "depth": 0}]
        problems = verify_trace(make_header(adapters=adapters), [])
        assert any("r_init outside" in p for p in problems)

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

    def test_abort_record_fields(self):
        problems = verify_trace(make_header(), good_events(),
                                abort={"type": "abort", "step": 3})
        assert any("abort record missing 'reason'" in p for p in problems)
        assert verify_trace(make_header(), good_events(),
                            abort={"type": "abort", "step": 3,
                                   "reason": "divergence"}) == []


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

    def test_unknown_adapter_rejected(self):
        with pytest.raises(TraceError):
            pivot(make_header(), [ev(10, "ghost", "prune", 3)])

    def test_final_column_is_final_rank_state(self):
        events = good_events() + [ev(20, "enc", "prune", 3),
                                  ev(20, "dec", "expand", 3)]
        _, _, grid = pivot(make_header(), events)
        assert [row[-1] for row in grid] == [2, 4]
