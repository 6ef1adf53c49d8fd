"""Importance metrics that rank adapters for pruning and expansion.

The primary signal is the normalized spectral entropy of an adapter's
singular-value energy distribution: flat spectra (every direction carrying
similar energy) score near 1 and are good candidates for more capacity,
spiky spectra score near 0. Comparator metrics cover scaled nuclear and
Frobenius norms, two energy-entropy hybrids that re-weight the entropy terms
by the raw singular values, and a gradient-based sensitivity score smoothed
by exponential moving averages.

All spectrum metrics accept any finite 1-D array of signed values: only
magnitudes enter the formulas, and training-time spectra routinely go
negative. Scale invariance holds for spectral_entropy exactly (the energy
distribution is unchanged under lambda -> c*lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, ParameterError, ShapeError

__all__ = [
    "EPSILON_DEFAULT",
    "METRIC_VARIANTS",
    "MetricKind",
    "SensitivityState",
    "ImportanceReport",
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
        if self.variant not in METRIC_VARIANTS:
            raise ParameterError(f"unknown metric variant {self.variant!r}")
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


@dataclass(frozen=True)
class ImportanceReport:
    """One score per adapter at a given step, plus degeneracy flags."""

    step: int
    metric: MetricKind
    scores: dict[str, float]
    flags: dict[str, str] = field(default_factory=dict)


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


def energy_distribution(lam):
    """Normalized squared magnitudes: s_i = lam_i^2 / sum_j lam_j^2."""
    v = _values(lam)
    e = v * v
    total = float(np.sum(e))
    if total == 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    return e / total


def spectral_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy of the energy distribution, normalized to [0, 1].

    Returns 0.0 for rank-1 spectra (no distribution to spread) and 1.0 for
    the all-zero spectrum, whose energy split is taken as uniform. The result
    is clamped below at 0: a fully concentrated spectrum would otherwise land
    an epsilon-sized hair under zero.
    """
    _check_epsilon(epsilon)
    v = _values(lam)
    r = v.size
    if r == 1:
        return 0.0
    try:
        s = energy_distribution(v)
    except DegenerateSpectrumError:
        return 1.0
    pos = s > 0.0
    h = -float(np.sum(s[pos] * np.log(s[pos] + epsilon)))
    return max(0.0, h / math.log(r))


def nuclear_mean(lam):
    """Mean absolute singular value."""
    v = _values(lam)
    return float(np.mean(np.abs(v)))


def frobenius_mean(lam):
    """Root of summed squared singular values, divided by the count."""
    v = _values(lam)
    return float(np.sqrt(np.sum(v * v))) / v.size


def elem_energy_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy variant weighting each term by its own singular value."""
    _check_epsilon(epsilon)
    v = _values(lam)
    r = v.size
    if r == 1:
        return 0.0
    try:
        s = energy_distribution(v)
    except DegenerateSpectrumError:
        return 0.0
    pos = s > 0.0
    total = float(np.sum(v[pos] * s[pos] * np.log(s[pos] + epsilon)))
    return -total / (r * math.log(r))


def mat_energy_entropy(lam, epsilon=EPSILON_DEFAULT):
    """Entropy variant scaling the whole sum by the summed singular values."""
    _check_epsilon(epsilon)
    v = _values(lam)
    r = v.size
    if r == 1:
        return 0.0
    try:
        s = energy_distribution(v)
    except DegenerateSpectrumError:
        return 0.0
    pos = s > 0.0
    ent = float(np.sum(s[pos] * np.log(s[pos] + epsilon)))
    return -float(np.sum(v)) * ent / (r * math.log(r))


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


def score_all(adapters, metric, states=None, step=0):
    """Score every adapter; exactly one entry per registered adapter.

    ``adapters`` is any iterable of objects with ``id`` and ``lam``
    attributes. For the sensitivity metric, ``states`` must map adapter id to
    its SensitivityState.
    """
    adapters = list(adapters)
    if not adapters:
        raise ConfigError("adapters: no adapters registered")
    states = states or {}
    scores = {}
    flags = {}
    for a in sorted(adapters, key=lambda a: a.id):
        if a.id in scores:
            raise ConfigError(f"adapters: duplicate id {a.id!r}")
        if metric.variant == "sensitivity":
            state = states.get(a.id)
            if state is None:
                raise ParameterError(f"missing sensitivity state for adapter {a.id!r}")
            scores[a.id] = float(state.score)
        else:
            scores[a.id] = float(SPECTRUM_METRICS[metric.variant](a.lam, metric.epsilon))
        flag = spectrum_flag(a.lam)
        if flag is not None:
            flags[a.id] = flag
    return ImportanceReport(step=step, metric=metric, scores=scores, flags=flags)
