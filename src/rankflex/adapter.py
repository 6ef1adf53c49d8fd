"""SVD-form low-rank adapters with runtime rank surgery.

An adapter augments a frozen base weight W (d_out x d_in) with three trainable
factors: P (d_out x r), a singular-value vector lam (length r), and
Q (r x d_in). The effective weight is

    W + (alpha / r_init) * P @ diag(lam) @ Q

but neither ``forward`` nor ``backward`` (the factor and input gradients)
materializes it: inputs flow through Q, the scaled singular values, then P.
Ranks move one direction at a time — pruning removes the column with the
smallest |lam|, expansion appends a fresh direction under one of four init
schemes — so a run's capacity can be reshaped mid-training without touching
the base weight.

Directions whose lam entry is exactly zero are skipped by the forward pass.
Besides saving work, this makes zero-impact expansion literally zero impact:
the surviving operands are bit-identical before and after the append, so the
output bytes do not change.

Thread safety: adapters are plain mutable objects with no locking; share one
only behind external synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MaxRankError,
    MinRankError,
    ParameterError,
    ShapeError,
)
from .events import AllocationEvent
from .linalg import gaussian_matrix, gram_schmidt_extend

__all__ = ["INIT_VARIANTS", "InitStrategy", "SvdAdapter"]

INIT_VARIANTS = ("zero_impact", "small_init", "zero_init", "orthogonal_init")


@dataclass(frozen=True)
class InitStrategy:
    """How a freshly expanded direction is initialized.

    zero_impact     Gaussian P/Q vectors (std ``gauss_std``), lam = 0; the
                    output is untouched until training moves lam.
    small_init      unit vectors orthogonal to the existing factors,
                    lam = ``small_value``; a bounded nudge.
    zero_init       everything zero; every gradient into the direction is
                    gated to zero by the zero factors, so it stays inert.
    orthogonal_init orthogonal unit vectors with lam = 0.
    """

    variant: str = "zero_impact"
    small_value: float = 1e-4
    gauss_std: float = 0.02

    def __post_init__(self):
        if self.variant not in INIT_VARIANTS:
            raise ParameterError(f"unknown init variant {self.variant!r}")
        if not self.small_value > 0.0:
            raise ParameterError("small_value must be positive")
        if not self.gauss_std > 0.0:
            raise ParameterError("gauss_std must be positive")


def _check_id(adapter_id):
    if not isinstance(adapter_id, str) or not adapter_id:
        raise ParameterError("adapter id must be a non-empty string")
    if any(ch.isspace() or ch == "," for ch in adapter_id):
        raise ParameterError(f"adapter id {adapter_id!r} may not contain spaces or commas")
    return adapter_id


class SvdAdapter:
    """Frozen base weight plus trainable factors P, lam, Q.

    The factor arrays are ordinary ndarrays and are updated in place by the
    optimizer; prune/expand replace them wholesale. ``base_w`` is read-only.
    """

    def __init__(self, adapter_id, base_w, p, lam, q, *, r_init, r_max, alpha):
        self.id = _check_id(adapter_id)
        base = np.array(base_w, dtype=np.float64)
        if base.ndim != 2:
            raise ShapeError("base_w must be 2-D")
        base.flags.writeable = False
        self.base_w = base
        self.p = np.array(p, dtype=np.float64, order="C")
        self.lam = np.array(lam, dtype=np.float64).reshape(-1)
        self.q = np.array(q, dtype=np.float64, order="C")
        self.r_init = int(r_init)
        self.r_max = int(r_max)
        self.alpha = float(alpha)
        self._validate()

    def _validate(self):
        d_out, d_in = self.base_w.shape
        r = self.lam.size
        if self.p.ndim != 2 or self.p.shape != (d_out, r):
            raise ShapeError(f"P must be {d_out}x{r}, got {self.p.shape}")
        if self.q.ndim != 2 or self.q.shape != (r, d_in):
            raise ShapeError(f"Q must be {r}x{d_in}, got {self.q.shape}")
        if self.r_init < 1:
            raise ParameterError("r_init must be >= 1")
        if self.r_max < 1:
            raise ParameterError("r_max must be >= 1")
        if not 1 <= r <= self.r_max:
            raise ParameterError(f"rank {r} outside [1, r_max={self.r_max}]")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError("alpha must be positive and finite")
        for name, arr in (("base_w", self.base_w), ("P", self.p), ("lam", self.lam), ("Q", self.q)):
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite entries")

    @classmethod
    def create(cls, adapter_id, base_w, *, r_init, r_max, alpha, rng, init_std=0.02):
        """Fresh adapter at rank ``r_init``.

        lam starts at zero so the effective weight is exactly the base; P and
        Q start Gaussian so lam sees a nonzero gradient from the first step
        (all-zero factors would gate every gradient to zero permanently).
        """
        base = np.asarray(base_w, dtype=np.float64)
        if base.ndim != 2:
            raise ShapeError("base_w must be 2-D")
        d_out, d_in = base.shape
        p = gaussian_matrix(d_out, r_init, init_std, rng)
        q = gaussian_matrix(r_init, d_in, init_std, rng)
        lam = np.zeros(r_init)
        return cls(adapter_id, base, p, lam, q, r_init=r_init, r_max=r_max, alpha=alpha)

    # -- introspection -----------------------------------------------------

    @property
    def d_out(self):
        return self.base_w.shape[0]

    @property
    def d_in(self):
        return self.base_w.shape[1]

    @property
    def rank(self):
        return int(self.lam.size)

    @property
    def scale(self):
        """Forward scaling alpha / r_init; fixed for the adapter's lifetime."""
        return self.alpha / self.r_init

    def factors(self):
        """(parameter name, array, direction axis) of P, lam and Q: the one
        place their names are formed, and the axis holding one slice per
        direction, which rank surgery deletes or appends."""
        return ((f"{self.id}.p", self.p, 1), (f"{self.id}.lam", self.lam, 0),
                (f"{self.id}.q", self.q, 0))

    # -- forward and backward ----------------------------------------------

    def forward(self, x):
        """Apply base plus update to a batch of column vectors (d_in x batch).

        Only directions with lam != 0 participate, so the result is
        bit-identical under zero-impact rank changes.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError("input batch must be 2-D (d_in x batch)")
        if x.shape[0] != self.d_in:
            raise ShapeError(f"input rows {x.shape[0]} != d_in {self.d_in}")
        base = self.base_w @ x
        nonzero = np.count_nonzero(self.lam)
        if nonzero == 0:
            return base
        if nonzero == self.rank:
            # The operands as the masked copies below would lay them out:
            # q[mask] is C-ordered like q (kept so by __init__), p[:, mask]
            # comes out Fortran-ordered. GEMM bits depend on that order.
            p, lam, q = np.asfortranarray(self.p), self.lam, self.q
        else:
            active = self.lam != 0.0
            p, lam, q = self.p[:, active], self.lam[active], self.q[active]
        u = q @ x
        u *= lam[:, None]
        return base + self.scale * (p @ u)

    def backward(self, x, g, gamma=0.0):
        """((dP, dlam, dQ), dx) for the batch ``x`` given dL/dy ``g``, plus
        ``gamma`` times the orthogonality gradient in dP and dQ. Zero-lam
        directions take part, so a fresh direction gets a lam gradient."""
        u = self.q @ x
        c = self.scale
        h = self.p.T @ g
        dlam = c * np.einsum("rb,rb->r", h, u)
        dp = c * (g @ (self.lam[:, None] * u).T)
        dq = c * ((self.lam[:, None] * h) @ x.T)
        if gamma > 0.0:
            rp, rq = self.ortho_regularizer_grad()
            dp += gamma * rp
            dq += gamma * rq
        dx = self.base_w.T @ g + c * (self.q.T @ (self.lam[:, None] * h))
        return (dp, dlam, dq), dx

    # -- orthogonality regularizer ----------------------------------------

    def _gram_residuals(self):
        """P^T P - I and Q Q^T - I. The identity is subtracted on the
        diagonal in place; off the diagonal ``x - 0.0`` is ``x`` bit for
        bit, so this equals subtracting ``np.eye(r)``."""
        step = self.rank + 1
        pg = self.p.T @ self.p
        qg = self.q @ self.q.T
        pg.flat[::step] -= 1.0
        qg.flat[::step] -= 1.0
        return pg, qg

    def ortho_regularizer(self):
        """Squared Frobenius distance of P^T P and Q Q^T from identity."""
        pg, qg = self._gram_residuals()
        return float(np.sum(pg * pg) + np.sum(qg * qg))

    def ortho_regularizer_grad(self):
        """Gradients of the regularizer with respect to P and Q."""
        pg, qg = self._gram_residuals()
        return 4.0 * (self.p @ pg), 4.0 * (qg @ self.q)

    # -- rank surgery ------------------------------------------------------

    def prune_rank(self, step=0, score=math.nan):
        """Drop the direction with the smallest |lam| (ties: lowest index)."""
        r = self.rank
        if r <= 1:
            raise MinRankError(f"adapter {self.id!r} already at rank 1")
        i = int(np.argmin(np.abs(self.lam)))
        removed = float(abs(self.lam[i]))
        self.p = np.delete(self.p, i, axis=1)
        self.lam = np.delete(self.lam, i)
        self.q = np.delete(self.q, i, axis=0)
        return AllocationEvent(
            step=step,
            adapter_id=self.id,
            action="prune",
            rank_before=r,
            rank_after=r - 1,
            score=score,
            detail=removed,
            index=i,
        )

    def expand_rank(self, strategy, rng, step=0, score=math.nan):
        """Append one direction initialized per ``strategy``.

        The orthogonal schemes consume the P-side candidate from ``rng``
        before the Q-side one; RankFullError propagates when the factors
        already span their space.
        """
        r = self.rank
        if r >= self.r_max:
            raise MaxRankError(f"adapter {self.id!r} already at r_max={self.r_max}")
        if strategy.variant == "zero_impact":
            p_new = strategy.gauss_std * rng.standard_normal(self.d_out)
            q_new = strategy.gauss_std * rng.standard_normal(self.d_in)
            lam_new = 0.0
        elif strategy.variant == "zero_init":
            p_new = np.zeros(self.d_out)
            q_new = np.zeros(self.d_in)
            lam_new = 0.0
        else:
            p_new = gram_schmidt_extend(self.p, rng.standard_normal(self.d_out), rng)
            q_new = gram_schmidt_extend(self.q.T, rng.standard_normal(self.d_in), rng)
            lam_new = strategy.small_value if strategy.variant == "small_init" else 0.0
        self.p = np.concatenate([self.p, p_new[:, None]], axis=1)
        self.lam = np.append(self.lam, lam_new)
        self.q = np.concatenate([self.q, q_new[None, :]], axis=0)
        return AllocationEvent(
            step=step,
            adapter_id=self.id,
            action="expand",
            rank_before=r,
            rank_after=r + 1,
            score=score,
            detail=strategy.variant,
            index=r,
        )
