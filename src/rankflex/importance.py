"""Importance metrics that rank adapters for pruning and expansion.

The primary signal is the normalized spectral entropy of an adapter's
singular-value energy distribution: flat spectra (every direction carrying
similar energy) score near 1 and are good candidates for more capacity,
spiky spectra score near 0. Comparator metrics cover scaled nuclear and
Frobenius norms, two energy-entropy hybrids that re-weight the entropy terms
by the raw singular values, and a gradient-based sensitivity score smoothed
by exponential moving averages.

All spectrum metrics accept any finite 1-D array of signed values, since
training-time spectra routinely go negative, and depend only on magnitudes:
the hybrids weight by |lambda|. The energy is rescaled by max|lambda| only
where squaring would overflow or round the spectrum away, and a magnitude
sum only where it would overflow, so across the whole float64 range
spectral_entropy is scale-invariant and the other four scale with lambda.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, ParameterError, ShapeError, check_choice

__all__ = [
    "EPSILON_DEFAULT",
    "METRIC_VARIANTS",
    "MetricKind",
    "SensitivityState",
    "energy_distribution",
    "spectral_entropy",
    "nuclear_mean",
    "frobenius_mean",
    "elem_energy_entropy",
    "mat_energy_entropy",
    "sensitivity_update",
    "spectrum_flag",
    "SPECTRUM_METRICS",
    "score_all",
]

EPSILON_DEFAULT = 1e-12

METRIC_VARIANTS = (
    "spectral_entropy",
    "nuclear",
    "frobenius",
    "sensitivity",
    "elem_energy_entropy",
    "mat_energy_entropy",
)


@dataclass(frozen=True)
class MetricKind:
    """Metric selector plus its numeric knobs.

    ``epsilon`` guards the logarithms in the entropy variants; ``beta1`` and
    ``beta2`` are the EMA factors for the sensitivity metric and are ignored
    by the others.
    """

    variant: str = "spectral_entropy"
    epsilon: float = EPSILON_DEFAULT
    beta1: float = 0.85
    beta2: float = 0.85

    def __post_init__(self):
        check_choice("variant", self.variant, METRIC_VARIANTS)
        _check_epsilon(self.epsilon)
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1), got {b}")


@dataclass(frozen=True)
class SensitivityState:
    """EMA pair for the sensitivity metric: smoothed signal and uncertainty."""

    smoothed: float = 0.0
    uncertainty: float = 0.0

    def __post_init__(self):
        if self.smoothed < 0.0 or self.uncertainty < 0.0:
            raise ParameterError("sensitivity state components must be >= 0")

    @property
    def score(self):
        return self.smoothed * self.uncertainty


def _check_epsilon(epsilon):
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")


def _values(lam):
    v = np.asarray(lam, dtype=np.float64).reshape(-1)
    if v.size < 1:
        raise ParameterError("spectrum must contain at least one value")
    if not np.all(np.isfinite(v)):
        raise ParameterError("spectrum entries must be finite")
    return v


@np.errstate(over="ignore")
def _squares(v):
    """``(e, total, m)``: the squares of ``v / m`` and their sum; m is max|v| if
    the direct sum overflows or, with v nonzero, is not normal, else 1.0."""
    e = v * v
    total = float(np.sum(e))
    if math.isfinite(total) and (total >= sys.float_info.min or not np.any(v)):
        return e, total, 1.0
    m = float(np.max(np.abs(v)))
    e = (v / m) * (v / m)
    return e, float(np.sum(e)), m


@np.errstate(over="ignore")
def _rescaled(fn, a):
    """``fn(a)`` for a map ``fn`` linear in the magnitudes ``a``; only where
    that is not finite, ``max(a) * fn(a / max(a))``, the scale applied last."""
    x = fn(a)
    if math.isfinite(x):
        return x
    m = float(np.max(a))
    return m * fn(a / m)


def energy_distribution(lam):
    """Normalized squared magnitudes: s_i = lam_i^2 / sum_j lam_j^2."""
    e, total, _ = _squares(_values(lam))
    if total == 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    return e / total


def _entropy(lam, epsilon, zero_energy, weigh):
    """The steps the entropy metrics share. A rank-1 spectrum scores 0.0 and
    an all-zero one ``zero_energy``; any other scores ``weigh(v, pos, s,
    log_s)``: the values, the mask of the positive energy shares, those
    shares, and the log of each plus ``epsilon``."""
    _check_epsilon(epsilon)
    v = _values(lam)
    if v.size == 1:
        return 0.0
    e, total, _ = _squares(v)
    if total == 0.0:
        return zero_energy
    s = e / total
    pos = s > 0.0
    s = s[pos]
    return weigh(v, pos, s, np.log(s + epsilon))


def spectral_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy of the energy distribution, normalized to [0, 1].

    Returns 0.0 for rank-1 spectra (no distribution to spread) and 1.0 for
    the all-zero spectrum, whose energy split is taken as uniform. The result
    is clamped below at 0: a fully concentrated spectrum would otherwise land
    an epsilon-sized hair under zero.
    """
    return _entropy(lam, epsilon, 1.0, lambda v, pos, s, log_s:
                    max(0.0, -float(np.sum(s * log_s)) / math.log(v.size)))


def nuclear_mean(lam):
    """Mean absolute singular value."""
    return _rescaled(lambda a: float(np.mean(a)), np.abs(_values(lam)))


def frobenius_mean(lam):
    """Root of summed squared singular values, divided by the count."""
    v = _values(lam)
    _, total, m = _squares(v)
    return m * (math.sqrt(total) / v.size)


def elem_energy_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy variant weighting each term by its singular value's
    magnitude: -sum(|lam_i| s_i log s_i) / (r log r). Rank-1 and all-zero
    spectra score 0.0."""
    return _entropy(lam, epsilon, 0.0, lambda v, pos, s, log_s: _rescaled(
        lambda a: -float(np.sum(a * s * log_s)) / (v.size * math.log(v.size)), np.abs(v[pos])))


def mat_energy_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy variant scaling the whole sum by the singular values' summed
    magnitudes: -sum(|lam|) sum(s_i log s_i) / (r log r). Rank-1 and
    all-zero spectra score 0.0."""
    return _entropy(lam, epsilon, 0.0, lambda v, pos, s, log_s: _rescaled(
        lambda a: -float(np.sum(a)) * float(np.sum(s * log_s)) / (v.size * math.log(v.size)),
        np.abs(v)))


def sensitivity_update(state, params, grads, beta1=0.85, beta2=0.85):
    """Advance the sensitivity EMAs with one step's parameters and gradients.

    The raw signal is the mean of |w * g| over every element of every array
    in ``params``; ``grads`` must match shapes one for one.
    """
    total = 0.0
    count = 0
    for w, g in zip(params, grads, strict=True):
        w = np.asarray(w, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if w.shape != g.shape:
            raise ShapeError(f"param shape {w.shape} != grad shape {g.shape}")
        total += float(np.sum(np.abs(w * g)))
        count += w.size
    if count == 0:
        raise ParameterError("sensitivity update needs at least one parameter")
    raw = total / count
    smoothed = beta1 * state.smoothed + (1.0 - beta1) * raw
    uncertainty = beta2 * state.uncertainty + (1.0 - beta2) * abs(raw - smoothed)
    return SensitivityState(smoothed=smoothed, uncertainty=uncertainty)


def spectrum_flag(lam):
    """Degeneracy flag for a spectrum: 'rank1', 'degenerate', or None."""
    v = _values(lam)
    if v.size == 1:
        return "rank1"
    if not np.any(v != 0.0):
        return "degenerate"
    return None


# The metrics computed from the spectrum alone, by variant name, each called
# as fn(lam, epsilon); the magnitude means have no logarithm to guard.
SPECTRUM_METRICS = {
    "spectral_entropy": spectral_entropy,
    "nuclear": lambda lam, epsilon=EPSILON_DEFAULT: nuclear_mean(lam),
    "frobenius": lambda lam, epsilon=EPSILON_DEFAULT: frobenius_mean(lam),
    "elem_energy_entropy": elem_energy_entropy,
    "mat_energy_entropy": mat_energy_entropy,
}


def score_all(adapters, metric, states=None):
    """Score every adapter: ``{adapter id: score}``, one entry per adapter.

    ``adapters`` is any iterable of objects with ``id`` and ``lam``
    attributes. For the sensitivity metric, ``states`` must map adapter id to
    its SensitivityState.
    """
    adapters = list(adapters)
    if not adapters:
        raise ConfigError("adapters: no adapters registered")
    states = states or {}
    scores = {}
    for a in sorted(adapters, key=lambda a: a.id):
        if metric.variant == "sensitivity":
            state = states.get(a.id)
            if state is None:
                raise ParameterError(f"missing sensitivity state for adapter {a.id!r}")
            scores[a.id] = float(state.score)
        else:
            scores[a.id] = float(SPECTRUM_METRICS[metric.variant](a.lam, metric.epsilon))
    return scores
