"""Budget scheduling and bidirectional rank allocation.

The per-step budget follows a cubic decay from ``b0`` down to zero across the
active window [t_warmup, total_steps - t_final); outside the window it is
zero. Allocation fires every ``delta_t`` steps inside the window. At each
firing, the ``b`` lowest-scoring adapters lose a rank and the ``b``
highest-scoring gain one; in bidirectional mode both lists are truncated to
the same length so the total rank is conserved exactly. Applying a selection
yields one ``AllocationEvent`` per rank change, the record a trace stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ParameterError, check_choice

__all__ = [
    "ALLOCATOR_MODES",
    "AllocationEvent",
    "BudgetSchedule",
    "select_candidates",
    "apply_allocation",
]

ALLOCATOR_MODES = ("bidirectional", "prune_only", "expand_only")


@dataclass(frozen=True)
class AllocationEvent:
    """One rank change: which adapter, which direction, and why.

    A prune takes the rank down by one and ``index`` is the removed
    direction, one of the ``rank_before`` live ones; an expansion takes it up
    by one and appends at ``index == rank_before``. ``detail`` is the removed
    |lambda| for prunes and the init strategy name for expansions. ``score``
    is the metric value that drove the selection (NaN when the change was
    applied outside a scored pass).
    """

    step: int
    adapter_id: str
    action: str
    rank_before: int
    rank_after: int
    score: float
    detail: float | str
    index: int

    def __post_init__(self):
        if self.action not in ("prune", "expand"):
            raise ParameterError(f"unknown action {self.action!r}")
        prune = self.action == "prune"
        if self.rank_after != self.rank_before + (-1 if prune else 1):
            raise ParameterError(f"{self.action} cannot take rank {self.rank_before} "
                                 f"to {self.rank_after}")
        if not (0 <= self.index < self.rank_before if prune else self.index == self.rank_before):
            raise ParameterError(f"{self.action} index {self.index} does not fit "
                                 f"rank {self.rank_before}")


@dataclass(frozen=True)
class BudgetSchedule:
    """Cubic-decay budget over a fixed training horizon.

    An empty active window (t_warmup + t_final >= total_steps) is legal and
    simply never allocates; the ``schedule`` CLI subcommand is stricter and
    rejects it.
    """

    b0: int
    t_warmup: int
    t_final: int
    total_steps: int
    delta_t: int

    def __post_init__(self):
        if self.b0 < 1:
            raise ParameterError("b0 must be >= 1")
        if self.t_warmup < 0 or self.t_final < 0:
            raise ParameterError("warmup and final phases must be >= 0 steps")
        if self.total_steps < 1:
            raise ParameterError("total_steps must be >= 1")
        if self.delta_t < 1:
            raise ParameterError("delta_t must be >= 1")

    @property
    def window_end(self):
        return self.total_steps - self.t_final

    def budget(self, t):
        """Per-side budget at step t.

        Inside the window: round(b0 * (1 - (t - t_warmup)/(total - t_final))^3)
        with half-away-from-zero rounding, clamped to [0, b0].
        """
        if t < self.t_warmup or t >= self.window_end:
            return 0
        frac = (t - self.t_warmup) / self.window_end
        raw = self.b0 * (1.0 - frac) ** 3
        b = math.floor(raw + 0.5)
        return max(0, min(self.b0, b))

    def is_allocation_step(self, t):
        if t < self.t_warmup or t >= self.window_end:
            return False
        return (t - self.t_warmup) % self.delta_t == 0

    def allocation_steps(self):
        """All steps at which allocation fires, in order."""
        return list(range(self.t_warmup, self.window_end, self.delta_t))


def select_candidates(scores, adapters, b, mode):
    """Pick prune and expand id lists from ``scores``, {adapter id: score}.

    Pure function of (scores, ranks, b, mode). Rank-1 adapters are never
    pruned, at-cap adapters never expanded. Ties break by adapter id
    ascending. An id landing in both lists goes to the expand side; in
    bidirectional mode both lists are then truncated to the shorter length
    so applying them conserves total rank.
    """
    if b < 0:
        raise ParameterError("budget must be >= 0")
    check_choice("mode", mode, ALLOCATOR_MODES)
    adapters = list(adapters)
    for a in adapters:
        if a.id not in scores:
            raise ConfigError(f"adapter {a.id!r} missing from the scores")

    prune_pool = sorted(
        (a for a in adapters if a.rank > 1),
        key=lambda a: (scores[a.id], a.id),
    )
    expand_pool = sorted(
        (a for a in adapters if a.rank < a.r_max),
        key=lambda a: (-scores[a.id], a.id),
    )
    prune_ids = [a.id for a in prune_pool[:b]]
    expand_ids = [a.id for a in expand_pool[:b]]
    if mode == "prune_only":
        expand_ids = []
    elif mode == "expand_only":
        prune_ids = []
    overlap = set(prune_ids) & set(expand_ids)
    if overlap:
        prune_ids = [i for i in prune_ids if i not in overlap]
    if mode == "bidirectional":
        k = min(len(prune_ids), len(expand_ids))
        prune_ids = prune_ids[:k]
        expand_ids = expand_ids[:k]
    return prune_ids, expand_ids


def apply_allocation(adapters, prune_ids, expand_ids, strategy, rng, step=0, scores=None):
    """Apply selected rank changes and return their events; prunes first,
    each side in id order.

    An adapter that slipped to rank 1 or to its cap since selection raises
    the MinRankError or MaxRankError of its own prune or expand, before that
    adapter changes or draws from ``rng``.
    """
    by_id = {a.id: a for a in adapters}
    both = set(prune_ids) & set(expand_ids)
    if both:
        raise ParameterError(f"ids in both lists: {sorted(both)}")
    for aid in list(prune_ids) + list(expand_ids):
        if aid not in by_id:
            raise ConfigError(f"unknown adapter id {aid!r}")
    scores = scores or {}
    events = []
    for action, ids in (("prune", prune_ids), ("expand", expand_ids)):
        for aid in sorted(ids):
            a = by_id[aid]
            before = a.rank
            if action == "prune":
                index, detail = a.prune_rank()
            else:
                a.expand_rank(strategy, rng)
                index, detail = before, strategy.variant
            events.append(AllocationEvent(step, aid, action, before, a.rank,
                                          scores.get(aid, math.nan), detail, index))
    return events
