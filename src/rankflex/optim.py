"""AdamW with per-direction state surgery over flat moment buffers.

A hand-rolled optimizer is used instead of a framework import because rank
changes must reach into the moment buffers: pruning an adapter direction
deletes the matching slice of m and v, expansion appends zeros, and every
untouched direction keeps its accumulated state. The caller names the
arrays a change touches and their direction axes. Weight decay is decoupled
(applied directly to the parameter, not through the gradient), runs before
the moment update, and skips any name passed in ``no_decay``. The
hyperparameters are stated and range-checked once, in ``OptimizerConfig``.

m and v live in two contiguous float64 buffers, one span per parameter in
sorted-name order; ``state[name]["m"]`` and ``["v"]`` are reshaped views of
them. A step gathers the gradients into one buffer and updates both moments
with whole-buffer ufuncs in the per-array operation order, so each element
is rounded exactly as a per-parameter loop would round it. The buffers are
re-packed when the ``(name, shape)`` layout of the parameters differs from
the packed one: on the first step, after ``sync_rank_change`` (which
replaces a name's views with resized arrays), and when a new name appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["AdamW", "OptimizerConfig"]


@dataclass(frozen=True)
class OptimizerConfig:
    """AdamW's hyperparameters, each range-checked here."""

    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ParameterError("lr must be positive and finite")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1)")
        if not self.eps > 0.0:
            raise ParameterError("eps must be positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ParameterError("weight_decay must be >= 0 and finite")


class AdamW:
    def __init__(self, config):
        self.config = config
        self.t = 0
        self.state = {}
        # The (name, shape) layout the flat buffers were packed for; None
        # forces a re-pack on the next step.
        self._layout = None

    def step(self, params, grads, no_decay=()):
        """One update, in place, over name-keyed parameter arrays.

        Moment state is created as zeros for a new name; a shape mismatch
        between a parameter and its state means rank surgery was skipped and
        is an error rather than a silent reset.
        """
        names = sorted(params)
        ps = [params[name] for name in names]
        gs = []
        for name, p in zip(names, ps):
            if name not in grads:
                raise ParameterError(f"missing gradient for parameter {name!r}")
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
            gs.append(g)
        layout = tuple((name, p.shape) for name, p in zip(names, ps))
        if layout != self._layout:
            self._repack(layout)
        self.t += 1
        if not ps:
            return
        c = self.config
        if c.weight_decay > 0.0:
            decay = c.lr * c.weight_decay
            for name, p in zip(names, ps):
                if name not in no_decay:
                    p -= decay * p
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
        # upd = lr*(m/bc1) / (sqrt(v/bc2) + eps), written in place into
        # buffers packed with m and v; every product, quotient and sum is the
        # one the per-array formula rounds.
        m, v, g, upd, den = self._m, self._v, self._g, self._upd, self._den
        np.concatenate(gs, axis=None, out=g)
        m *= c.beta1
        m += np.multiply(g, 1.0 - c.beta1, out=upd)
        v *= c.beta2
        g *= g
        g *= 1.0 - c.beta2
        v += g
        np.divide(m, 1.0 - c.beta1**self.t, out=upd)
        upd *= c.lr
        np.divide(v, 1.0 - c.beta2**self.t, out=den)
        np.sqrt(den, out=den)
        den += c.eps
        upd /= den
        for p, u in zip(ps, self._upd_views):
            p -= u

    def _repack(self, layout):
        """Copy each name's moments into fresh flat buffers laid out as
        ``layout``; a new name starts at zero."""
        spans, end = [], 0
        for name, shape in layout:
            st = self.state.get(name)
            if st is not None and st["m"].shape != shape:
                raise ShapeError(f"{name}: state shape {st['m'].shape} != param shape {shape}")
            spans.append((end, end + math.prod(shape), shape))
            end += math.prod(shape)
        self._m, self._v = np.zeros(end), np.zeros(end)
        self._g, self._upd, self._den = np.empty(end), np.empty(end), np.empty(end)
        for (name, _), (a, b, shape) in zip(layout, spans):
            views = {"m": self._m[a:b].reshape(shape), "v": self._v[a:b].reshape(shape)}
            st = self.state.get(name)
            if st is not None:
                views["m"][...] = st["m"]
                views["v"][...] = st["v"]
            self.state[name] = views
        self._upd_views = [self._upd[a:b].reshape(shape) for a, b, shape in spans]
        self._layout = layout

    def sync_rank_change(self, event, axes):
        """Apply one AllocationEvent to the moments of the names in ``axes``,
        which maps each to its direction axis: a prune deletes the
        direction's slice, an expansion appends a zero slice. Names without
        state yet are left alone."""
        for name, axis in axes.items():
            st = self.state.get(name)
            if st is None:
                continue
            for key in ("m", "v"):
                if event.action == "prune":
                    st[key] = np.delete(st[key], event.index, axis=axis)
                else:
                    zero = np.zeros(st[key].shape[:axis] + (1,) + st[key].shape[axis + 1:])
                    st[key] = np.concatenate([st[key], zero], axis=axis)
            self._layout = None
