import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflex.adapter import INIT_VARIANTS, InitStrategy, SvdAdapter
from rankflex.allocator import (
    ALLOCATOR_MODES,
    BudgetSchedule,
    apply_allocation,
    select_candidates,
)
from rankflex.errors import ConfigError, MaxRankError, MinRankError, ParameterError

PAPER = BudgetSchedule(b0=4, t_warmup=1000, t_final=1000, total_steps=5000,
                       delta_t=200)


def budget_oracle(s, t):
    """Straight restatement of the cubic decay, for cross-checking."""
    end = s.total_steps - s.t_final
    if t < s.t_warmup or t >= end:
        return 0
    raw = s.b0 * (1.0 - (t - s.t_warmup) / end) ** 3
    return max(0, min(s.b0, math.floor(raw + 0.5)))


def stub(adapter_id, rank, r_max):
    return SimpleNamespace(id=adapter_id, rank=rank, r_max=r_max)


def live_adapter(rng, adapter_id, rank=3, r_max=6, d=8):
    rng.standard_normal((d, d))  # a base draw, kept so the stream is unchanged
    a = SvdAdapter.create(adapter_id, d, d, r_init=rank, r_max=r_max, alpha=8.0, rng=rng)
    a.lam[:] = rng.standard_normal(rank)
    return a


class TestScheduleValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            BudgetSchedule(0, 0, 0, 10, 1)
        with pytest.raises(ParameterError):
            BudgetSchedule(1, -1, 0, 10, 1)
        with pytest.raises(ParameterError):
            BudgetSchedule(1, 0, -1, 10, 1)
        with pytest.raises(ParameterError):
            BudgetSchedule(1, 0, 0, 0, 1)
        with pytest.raises(ParameterError):
            BudgetSchedule(1, 0, 0, 10, 0)

    def test_empty_window_is_legal(self):
        s = BudgetSchedule(2, 6, 6, 10, 1)
        assert s.allocation_steps() == []
        assert all(s.budget(t) == 0 for t in range(-5, 15))
        assert not any(s.is_allocation_step(t) for t in range(-5, 15))


class TestBudget:
    def test_known_values_on_reference_schedule(self):
        assert PAPER.window_end == 4000
        assert PAPER.budget(999) == 0
        assert PAPER.budget(1000) == 4
        assert PAPER.budget(1400) == 3
        assert PAPER.budget(2000) == 2
        assert PAPER.budget(3000) == 1
        assert PAPER.budget(4000) == 0
        assert PAPER.budget(5000) == 0

    def test_half_rounds_away_from_zero(self):
        # Raw value at t=3000 is exactly 4 * 0.5^3 = 0.5; banker's rounding
        # would give 0 here.
        t = 3000
        frac = (t - PAPER.t_warmup) / PAPER.window_end
        assert PAPER.b0 * (1.0 - frac) ** 3 == 0.5
        assert PAPER.budget(t) == 1

    @pytest.mark.parametrize("sched", [
        PAPER,
        BudgetSchedule(3, 0, 0, 100, 7),
        BudgetSchedule(1, 5, 12, 60, 3),
        BudgetSchedule(2, 6, 6, 10, 1),
    ])
    def test_matches_oracle_everywhere(self, sched):
        for t in range(-10, sched.total_steps + 10):
            assert sched.budget(t) == budget_oracle(sched, t)

    def test_monotone_within_window(self):
        vals = [PAPER.budget(t) for t in range(PAPER.t_warmup, PAPER.window_end)]
        assert vals[0] == PAPER.b0
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= PAPER.b0 for v in vals)


class TestAllocationSteps:
    def test_reference_schedule_firing_points(self):
        steps = PAPER.allocation_steps()
        assert steps == list(range(1000, 4000, 200))
        assert len(steps) == 15

    def test_is_allocation_step_agrees_exhaustively(self):
        members = set(PAPER.allocation_steps())
        for t in range(-10, PAPER.total_steps + 10):
            assert PAPER.is_allocation_step(t) == (t in members)

    def test_boundaries(self):
        assert not PAPER.is_allocation_step(999)
        assert PAPER.is_allocation_step(1000)
        assert not PAPER.is_allocation_step(1001)
        assert PAPER.is_allocation_step(3800)
        assert not PAPER.is_allocation_step(4000)


class TestSelectCandidates:
    def test_basic_split(self):
        ads = [stub("a", 3, 6), stub("b", 3, 6), stub("c", 3, 6)]
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        prune, expand = select_candidates(scores, ads, 1, "bidirectional")
        assert prune == ["a"]
        assert expand == ["c"]

    def test_rank1_never_pruned(self):
        # 'a' has the lowest score but sits at rank 1, so 'b' is pruned.
        ads = [stub("a", 1, 6), stub("b", 3, 6), stub("c", 3, 6)]
        scores = {"a": 0.0, "b": 0.5, "c": 0.9}
        prune, expand = select_candidates(scores, ads, 1, "bidirectional")
        assert prune == ["b"]
        assert expand == ["c"]

    def test_at_cap_never_expanded(self):
        # 'c' has the highest score but is at its cap, so 'b' expands.
        ads = [stub("a", 3, 6), stub("b", 3, 6), stub("c", 6, 6)]
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        prune, expand = select_candidates(scores, ads, 1, "bidirectional")
        assert prune == ["a"]
        assert expand == ["b"]

    def test_overlap_goes_to_expand(self):
        ads = [stub("a", 3, 6), stub("b", 3, 6)]
        scores = {"a": 0.1, "b": 0.9}
        prune, expand = select_candidates(scores, ads, 2, "bidirectional")
        # Both pools contain both ids; the overlap hands them to expand and
        # truncation then zeroes the prune side.
        assert prune == []
        assert expand == []

    def test_clean_bidirectional_pair(self):
        ads = [stub(i, 3, 6) for i in ("a", "b", "c", "d")]
        scores = {"a": 0.1, "b": 0.2, "c": 0.8, "d": 0.9}
        prune, expand = select_candidates(scores, ads, 2, "bidirectional")
        assert prune == ["a", "b"]
        assert expand == ["d", "c"]

    def test_ties_break_by_id(self):
        ads = [stub("x", 1, 6), stub("z", 3, 6), stub("y", 3, 6)]
        scores = {"x": 0.5, "y": 0.5, "z": 0.5}
        prune, expand = select_candidates(scores, ads, 1, "bidirectional")
        assert prune == ["y"]
        assert expand == ["x"]

    def test_prune_only_mode(self):
        ads = [stub("a", 3, 6), stub("b", 3, 6)]
        scores = {"a": 0.1, "b": 0.9}
        prune, expand = select_candidates(scores, ads, 2, "prune_only")
        assert prune == ["a", "b"]
        assert expand == []

    def test_expand_only_mode(self):
        ads = [stub("a", 3, 6), stub("b", 3, 6)]
        scores = {"a": 0.1, "b": 0.9}
        prune, expand = select_candidates(scores, ads, 2, "expand_only")
        assert prune == []
        assert expand == ["b", "a"]

    def test_budget_zero(self):
        ads = [stub("a", 3, 6)]
        scores = {"a": 0.5}
        assert select_candidates(scores, ads, 0, "bidirectional") == ([], [])

    def test_budget_exceeds_pools(self):
        ads = [stub("a", 1, 6), stub("b", 3, 6), stub("c", 3, 3)]
        scores = {"a": 0.3, "b": 0.6, "c": 0.9}
        prune, expand = select_candidates(scores, ads, 10, "bidirectional")
        # Prune pool [b, c], expand pool [b, a]; the b overlap goes to the
        # expand side and truncation balances the rest.
        assert prune == ["c"]
        assert expand == ["b"]

    def test_expand_exceeding_budget_with_distinct_pools(self):
        ads = [stub("lo", 2, 2), stub("hi", 2, 6)]
        scores = {"lo": 0.1, "hi": 0.9}
        prune, expand = select_candidates(scores, ads, 3, "bidirectional")
        assert prune == ["lo"]
        assert expand == ["hi"]

    def test_missing_score_rejected(self):
        with pytest.raises(ConfigError):
            select_candidates({"a": 1.0}, [stub("b", 3, 6)], 1,
                              "bidirectional")

    def test_bad_budget_and_mode(self):
        scores = {"a": 0.5}
        with pytest.raises(ParameterError):
            select_candidates(scores, [stub("a", 3, 6)], -1, "bidirectional")
        with pytest.raises(ParameterError):
            select_candidates(scores, [stub("a", 3, 6)], 1, "sideways")

    def test_modes_constant(self):
        assert ALLOCATOR_MODES == ("bidirectional", "prune_only", "expand_only")


class TestApplyAllocation:
    def test_prunes_before_expands_in_id_order(self, rng):
        ads = [live_adapter(rng, i) for i in ("b", "a", "d", "c")]
        events = apply_allocation(ads, ["d", "b"], ["c", "a"],
                                  InitStrategy("zero_impact"), rng, step=40)
        assert [(e.action, e.adapter_id) for e in events] == [
            ("prune", "b"), ("prune", "d"), ("expand", "a"), ("expand", "c")]
        assert all(e.step == 40 for e in events)

    def test_conserves_total_rank(self, rng):
        ads = [live_adapter(rng, i) for i in ("a", "b", "c")]
        total = sum(a.rank for a in ads)
        apply_allocation(ads, ["a"], ["c"], InitStrategy("zero_impact"), rng)
        assert sum(a.rank for a in ads) == total

    def test_scores_recorded_on_events(self, rng):
        ads = [live_adapter(rng, i) for i in ("a", "b")]
        events = apply_allocation(ads, ["a"], ["b"], InitStrategy("zero_impact"),
                                  rng, scores={"a": 0.25})
        assert events[0].score == 0.25
        assert math.isnan(events[1].score)

    def test_stale_prune_detected(self, rng):
        a = live_adapter(rng, "a", rank=2)
        a.prune_rank()
        with pytest.raises(MinRankError):
            apply_allocation([a], ["a"], [], InitStrategy("zero_impact"), rng)

    def test_stale_expand_detected(self, rng):
        a = live_adapter(rng, "a", rank=6, r_max=6)
        with pytest.raises(MaxRankError):
            apply_allocation([a], [], ["a"], InitStrategy("zero_impact"), rng)

    def test_id_in_both_lists_rejected(self, rng):
        a = live_adapter(rng, "a")
        with pytest.raises(ParameterError):
            apply_allocation([a], ["a"], ["a"], InitStrategy("zero_impact"), rng)

    def test_unknown_id_rejected(self, rng):
        a = live_adapter(rng, "a")
        with pytest.raises(ConfigError):
            apply_allocation([a], ["ghost"], [], InitStrategy("zero_impact"), rng)

    def test_empty_lists_are_noop(self, rng):
        a = live_adapter(rng, "a")
        assert apply_allocation([a], [], [], InitStrategy("zero_impact"), rng) == []
        assert a.rank == 3


@st.composite
def allocation_cases(draw):
    """Adapters of random rank and cap, with lam drawn from few values so
    ties occur, a legal prune and expand selection, some scores, a strategy
    and a step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adapters = []
    for i in range(draw(st.integers(1, 4))):
        r_max = draw(st.integers(1, 5))
        rank = draw(st.integers(1, r_max))
        a = SvdAdapter.create(f"a{i}", 6, 5, r_init=rank, r_max=r_max, alpha=4.0, rng=rng)
        a.lam[:] = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 2.0]),
                                 min_size=rank, max_size=rank))
        adapters.append(a)
    prune = [a.id for a in adapters if a.rank > 1 and draw(st.booleans())]
    expand = [a.id for a in adapters
              if a.rank < a.r_max and a.id not in prune and draw(st.booleans())]
    scores = {a.id: draw(st.floats(-1.0, 1.0)) for a in adapters if draw(st.booleans())}
    strategy = InitStrategy(draw(st.sampled_from(INIT_VARIANTS)))
    return adapters, prune, expand, scores, strategy, draw(st.integers(0, 10**6)), rng


class TestApplyAllocationEvents:
    @settings(max_examples=200, deadline=None)
    @given(case=allocation_cases())
    def test_events_state_what_each_adapter_did(self, case):
        adapters, prune, expand, scores, strategy, step, rng = case
        before = {a.id: (a.rank, a.lam.copy()) for a in adapters}
        events = apply_allocation(adapters, prune, expand, strategy, rng,
                                  step=step, scores=scores)
        assert [(e.action, e.adapter_id) for e in events] == (
            [("prune", i) for i in sorted(prune)] + [("expand", i) for i in sorted(expand)])
        after = {a.id: a.rank for a in adapters}
        for e in events:
            rank, lam = before[e.adapter_id]
            assert (e.step, e.rank_before, e.rank_after) == (step, rank, after[e.adapter_id])
            if e.action == "prune":
                weakest = int(np.argmin(np.abs(lam)))
                assert (e.index, e.detail) == (weakest, abs(lam[weakest]))
            else:
                assert (e.index, e.detail) == (rank, strategy.variant)
            if e.adapter_id in scores:
                assert e.score == scores[e.adapter_id]
            else:
                assert math.isnan(e.score)


class TestSelectApplyFuzz:
    def test_thousand_conserving_rounds(self, rng):
        ads = [live_adapter(rng, f"a{i}", rank=int(rng.integers(1, 7)),
                            r_max=8) for i in range(5)]
        total = sum(a.rank for a in ads)
        strat = InitStrategy("zero_impact")
        for _ in range(1000):
            scores = {a.id: float(rng.random()) for a in ads}
            b = int(rng.integers(0, 4))
            prune, expand = select_candidates(scores, ads, b, "bidirectional")
            assert len(prune) == len(expand)
            apply_allocation(ads, prune, expand, strat, rng,
                             scores=scores)
            assert sum(a.rank for a in ads) == total
            assert all(1 <= a.rank <= a.r_max for a in ads)

    def test_prune_only_monotone(self, rng):
        ads = [live_adapter(rng, f"p{i}", rank=6, r_max=8) for i in range(4)]
        strat = InitStrategy("zero_impact")
        prev = sum(a.rank for a in ads)
        for _ in range(50):
            scores = {a.id: float(rng.random()) for a in ads}
            prune, expand = select_candidates(scores, ads, 2, "prune_only")
            assert expand == []
            apply_allocation(ads, prune, expand, strat, rng)
            cur = sum(a.rank for a in ads)
            assert cur <= prev
            prev = cur
        assert all(a.rank == 1 for a in ads)

    def test_expand_only_monotone(self, rng):
        ads = [live_adapter(rng, f"e{i}", rank=1, r_max=5) for i in range(4)]
        strat = InitStrategy("zero_impact")
        prev = sum(a.rank for a in ads)
        for _ in range(50):
            scores = {a.id: float(rng.random()) for a in ads}
            prune, expand = select_candidates(scores, ads, 2, "expand_only")
            assert prune == []
            apply_allocation(ads, prune, expand, strat, rng)
            cur = sum(a.rank for a in ads)
            assert cur >= prev
            prev = cur
        assert all(a.rank == 5 for a in ads)
