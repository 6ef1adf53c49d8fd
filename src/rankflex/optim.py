"""AdamW with per-direction state surgery over flat moment buffers.

A hand-rolled optimizer is used instead of a framework import because rank
changes must reach into the moment buffers: pruning an adapter direction
deletes the matching slice of m and v, expansion appends zeros, and every
untouched direction keeps its accumulated state. Weight decay is decoupled
(applied directly to the parameter, not through the gradient), runs before
the moment update, and skips the names in ``no_decay``. The hyperparameters
are stated and range-checked once, in ``OptimizerConfig``.

The optimizer is bound to the model's name-keyed arrays when built, and by
``sync_rank_change`` after each allocation step that changed a rank, given
each changed factor's direction axis. Each binding lays out m and v afresh
in two float64 buffers, one span per name in sorted-name order, with
``state[name]["m"]`` and ``["v"]`` as views. A step gathers the gradients
into one buffer and updates both moments with whole-buffer ufuncs in the
per-array operation order, so each element rounds as a per-array loop would.
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
    def __init__(self, config, params, no_decay=()):
        """Bind the name-keyed arrays ``params``, all with zero moments;
        the names in ``no_decay`` skip weight decay."""
        self.config = config
        self.no_decay = frozenset(no_decay)
        self.t = 0
        zeros = {name: np.zeros(p.shape) for name, p in params.items()}
        self._bind(params, zeros, zeros)

    def step(self, grads):
        """One update, in place, of the bound arrays; ``grads`` holds a
        gradient of each one's shape, so a rank surgery that was never
        synced fails here."""
        gs = []
        for name, p in zip(self._names, self._params):
            if name not in grads:
                raise ParameterError(f"missing gradient for parameter {name!r}")
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
            gs.append(g)
        self.t += 1
        if not gs:
            return
        c = self.config
        if c.weight_decay > 0.0:
            decay = c.lr * c.weight_decay
            for p in self._decayed:
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
        for p, u in zip(self._params, self._upd_views):
            p -= u

    def sync_rank_change(self, events, axes, params):
        """Follow one allocation step's rank changes, then bind ``params``.

        ``axes`` maps each event's adapter id to {name: direction axis}. In
        event order, a prune deletes the direction's slice of m and v and an
        expansion appends a zero slice; the result must match ``params``.
        """
        if params.keys() != self.state.keys():
            raise ParameterError("parameter names changed: "
                                 f"{sorted(params.keys() ^ self.state.keys())}")
        m, v = ({name: st[key] for name, st in self.state.items()} for key in ("m", "v"))
        for event in events:
            for name, axis in axes[event.adapter_id].items():
                for moments in (m, v):
                    a = moments[name]
                    if event.action == "prune":
                        moments[name] = np.delete(a, event.index, axis=axis)
                    else:
                        zero = np.zeros(a.shape[:axis] + (1,) + a.shape[axis + 1:])
                        moments[name] = np.concatenate([a, zero], axis=axis)
        for name, p in params.items():
            if m[name].shape != p.shape:
                raise ShapeError(f"{name}: state shape {m[name].shape} != param shape {p.shape}")
        self._bind(params, m, v)

    def _bind(self, params, m, v):
        """Bind ``params`` and lay out the flat buffers, one span per name in
        sorted-name order, holding the moments ``m`` and ``v`` (by name)."""
        self._names = sorted(params)
        self._params = [params[name] for name in self._names]
        self._decayed = [params[name] for name in self._names if name not in self.no_decay]
        self._m, self._v = (np.concatenate([d[name] for name in self._names] or [np.empty(0)],
                                           axis=None) for d in (m, v))
        size = self._m.size
        self._g, self._upd, self._den = np.empty(size), np.empty(size), np.empty(size)
        self.state, self._upd_views, end = {}, [], 0
        for name, p in zip(self._names, self._params):
            a, end = end, end + p.size
            self.state[name] = {"m": self._m[a:end].reshape(p.shape),
                                "v": self._v[a:end].reshape(p.shape)}
            self._upd_views.append(self._upd[a:end].reshape(p.shape))
