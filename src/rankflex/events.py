"""Allocation event records shared by the adapter, allocator, and trace code."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = ["AllocationEvent"]


@dataclass(frozen=True)
class AllocationEvent:
    """One rank change: which adapter, which direction, and why.

    ``index`` is the pruned column index or the position a new direction was
    appended at; ``detail`` is the removed |lambda| for prunes and the init
    strategy name for expansions. ``score`` is the metric value that drove
    the selection (NaN when the change was applied outside a scored pass).
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
        if abs(self.rank_after - self.rank_before) != 1:
            raise ParameterError(
                f"rank must change by exactly 1, got {self.rank_before} -> {self.rank_after}"
            )

    def to_json(self):
        score = None if math.isnan(self.score) else float(self.score)
        return {
            "type": "event",
            "step": self.step,
            "adapter_id": self.adapter_id,
            "action": self.action,
            "rank_before": self.rank_before,
            "rank_after": self.rank_after,
            "score": score,
            "detail": self.detail,
            "index": self.index,
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of ``to_json``: each field must have the JSON type that
        ``to_json`` writes, or ParameterError names the field."""
        for key, types in _EXPAND_TYPES if obj["action"] == "expand" else _PRUNE_TYPES:
            if type(obj[key]) not in types:
                raise ParameterError(f"{key} {obj[key]!r} has type {type(obj[key]).__name__}")
        score = obj["score"]
        return cls(obj["step"], obj["adapter_id"], obj["action"], obj["rank_before"],
                   obj["rank_after"], math.nan if score is None else float(score),
                   obj["detail"], obj["index"])


# (field, JSON types) as ``to_json`` writes them: ``detail`` is a number for a
# prune, a string for an expand. Exact type tests keep bool (an int) out.
_NUMBER = (float, int)
_FIELD_TYPES = (("step", (int,)), ("adapter_id", (str,)), ("action", (str,)),
                ("rank_before", (int,)), ("rank_after", (int,)),
                ("score", _NUMBER + (type(None),)), ("index", (int,)))
_PRUNE_TYPES = _FIELD_TYPES + (("detail", _NUMBER),)
_EXPAND_TYPES = _FIELD_TYPES + (("detail", (str,)),)
