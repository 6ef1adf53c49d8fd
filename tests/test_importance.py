import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflex.errors import (
    ConfigError,
    DegenerateSpectrumError,
    ParameterError,
    ShapeError,
)
from rankflex.importance import (
    SPECTRUM_METRICS,
    MetricKind,
    SensitivityState,
    _check_epsilon,
    _values,
    elem_energy_entropy,
    energy_distribution,
    frobenius_mean,
    mat_energy_entropy,
    nuclear_mean,
    score_all,
    sensitivity_update,
    spectral_entropy,
    spectrum_flag,
)

import oracles

# Frozen reference values, computed once from the extended-precision oracles
# (dps=50) and pinned here so regressions cannot drift silently.
ENTROPY_2_1 = 0.721928094884477
ELEM_1_1 = 0.4999999999985573
MAT_1_1 = 0.9999999999971146
MAT_2_1 = 1.0828921423267155


def adapters_from(spectra):
    return [SimpleNamespace(id=f"a{i}", lam=np.asarray(v, dtype=float))
            for i, v in enumerate(spectra)]


class TestEnergyDistribution:
    def test_normalizes(self):
        s = energy_distribution([2.0, 1.0])
        assert np.allclose(s, [0.8, 0.2])
        assert abs(s.sum() - 1.0) < 1e-15

    def test_sign_invariant(self):
        assert np.array_equal(energy_distribution([-2.0, 1.0]),
                              energy_distribution([2.0, 1.0]))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            energy_distribution([0.0, 0.0])

    def test_ordering_matches_magnitudes(self, rng):
        for _ in range(50):
            # Enforced relative gaps so float division cannot create ties.
            mags = np.sort(rng.uniform(0.1, 10.0, size=6)) * (1.3 ** np.arange(6))
            signs = rng.choice([-1.0, 1.0], size=6)
            perm = rng.permutation(6)
            lam = (mags * signs)[perm]
            s = energy_distribution(lam)
            assert np.array_equal(np.argsort(s), np.argsort(np.abs(lam)))


class TestSpectralEntropy:
    def test_frozen_value(self):
        assert spectral_entropy([2.0, 1.0]) == pytest.approx(ENTROPY_2_1, abs=1e-12)
        assert float(oracles.mp_spectral_entropy([2.0, 1.0])) == pytest.approx(
            ENTROPY_2_1, abs=1e-15)

    @pytest.mark.parametrize("r", [2, 4, 8, 16, 64])
    def test_uniform_is_max(self, r):
        assert spectral_entropy([1.7] * r) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("r", [2, 8, 64])
    def test_single_spike_near_zero(self, r):
        lam = [0.0] * r
        lam[r // 2] = 3.5
        v = spectral_entropy(lam)
        assert 0.0 <= v <= 1e-6

    def test_rank1_is_zero(self):
        assert spectral_entropy([5.0]) == 0.0

    def test_degenerate_is_one(self):
        assert spectral_entropy([0.0, 0.0, 0.0]) == 1.0

    def test_scale_invariance_exact_for_power_of_two(self, rng):
        lam = rng.standard_normal(7)
        for c in (2.0, 0.5, -4.0):
            assert spectral_entropy(c * lam) == spectral_entropy(lam)

    def test_scale_invariance_approx_general(self, rng):
        lam = rng.standard_normal(9)
        assert spectral_entropy(3.0 * lam) == pytest.approx(
            spectral_entropy(lam), abs=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ParameterError):
            spectral_entropy([1.0, 2.0], epsilon=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            spectral_entropy([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            spectral_entropy([1.0, float("inf")])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=16))
    def test_range_property(self, values):
        v = spectral_entropy(values)
        assert 0.0 <= v <= 1.0 + 1e-9

    def test_matches_oracle_on_random_spectra(self, rng):
        for _ in range(100):
            r = int(rng.integers(2, 12))
            lam = rng.standard_normal(r) * 10.0 ** rng.integers(-3, 3)
            mine = spectral_entropy(lam)
            ref = float(oracles.mp_spectral_entropy(lam))
            assert abs(mine - max(0.0, ref)) < 1e-12


class TestComparators:
    def test_nuclear(self):
        assert nuclear_mean([2.0, 1.0]) == 1.5
        assert nuclear_mean([-2.0, 1.0]) == 1.5

    def test_frobenius(self):
        assert frobenius_mean([2.0, 1.0]) == pytest.approx(math.sqrt(5) / 2, abs=1e-15)

    def test_elem_frozen(self):
        assert elem_energy_entropy([1.0, 1.0]) == pytest.approx(ELEM_1_1, abs=1e-12)

    def test_mat_frozen(self):
        assert mat_energy_entropy([1.0, 1.0]) == pytest.approx(MAT_1_1, abs=1e-12)
        assert mat_energy_entropy([2.0, 1.0]) == pytest.approx(MAT_2_1, abs=1e-12)

    def test_mat_is_scaled_entropy_for_uniform_sum(self):
        # For lam = (2,1): sum(lam) = 3, so I_mat = 3 * H/ (r log r) = 1.5 * entropy.
        assert mat_energy_entropy([2.0, 1.0]) == pytest.approx(
            1.5 * ENTROPY_2_1, abs=1e-12)

    def test_rank1_conventions(self):
        assert elem_energy_entropy([4.0]) == 0.0
        assert mat_energy_entropy([4.0]) == 0.0

    def test_degenerate_conventions(self):
        assert elem_energy_entropy([0.0, 0.0]) == 0.0
        assert mat_energy_entropy([0.0, 0.0]) == 0.0
        assert nuclear_mean([0.0, 0.0]) == 0.0
        assert frobenius_mean([0.0, 0.0]) == 0.0

    def test_oracle_agreement(self, rng):
        for _ in range(100):
            r = int(rng.integers(2, 10))
            lam = rng.standard_normal(r) * 3.0
            assert abs(nuclear_mean(lam) - float(oracles.mp_nuclear(lam))) < 1e-12
            assert abs(frobenius_mean(lam) - float(oracles.mp_frobenius(lam))) < 1e-12
            assert abs(elem_energy_entropy(lam)
                       - float(oracles.mp_elem_energy_entropy(lam))) < 1e-10
            assert abs(mat_energy_entropy(lam)
                       - float(oracles.mp_mat_energy_entropy(lam))) < 1e-10


# The three entropy metrics as each stated its own opening steps, the hybrids
# weighting by |lam|, kept as the reference their shared core must match bit
# for bit wherever these direct formulas stay finite.
def parent_spectral_entropy(lam, epsilon):
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


def parent_elem_energy_entropy(lam, epsilon):
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
    total = float(np.sum(np.abs(v[pos]) * s[pos] * np.log(s[pos] + epsilon)))
    return -total / (r * math.log(r))


def parent_mat_energy_entropy(lam, epsilon):
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
    return -float(np.sum(np.abs(v))) * ent / (r * math.log(r))


# Values spanning every float64 magnitude, the signed zeros and the
# subnormals, whose squares underflow to zero energy shares.
_SPECTRUM_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -1e-155]),
)


class TestEntropyCoreIdentity:
    @settings(max_examples=500, deadline=None)
    @given(lam=st.lists(_SPECTRUM_VALUES, min_size=1, max_size=13),
           epsilon=st.sampled_from([1e-12, 5e-324, 1e-300, 0.5, 1e10]))
    def test_shared_core_equals_parent_bodies(self, lam, epsilon):
        pairs = [(spectral_entropy, parent_spectral_entropy),
                 (elem_energy_entropy, parent_elem_energy_entropy),
                 (mat_energy_entropy, parent_mat_energy_entropy)]
        for fn, parent in pairs:
            with np.errstate(over="ignore", invalid="ignore"):  # squares past 1e308
                got, want = np.float64(fn(lam, epsilon)), np.float64(parent(lam, epsilon))
            # Where a direct magnitude sum overflows, the hybrids rescale;
            # TestSpectrumRange checks those values.
            if math.isfinite(want):
                assert got.view(np.uint64) == want.view(np.uint64), fn.__name__

    def test_signed_hybrids(self):
        # The hybrids weight by |lam|, so signs do not move them.
        assert elem_energy_entropy([1.0, -1.0]) == ELEM_1_1
        assert elem_energy_entropy([1.0, 1.0]) == ELEM_1_1
        assert mat_energy_entropy([-2.0, -1.0]) == MAT_2_1
        assert mat_energy_entropy([2.0, 1.0]) == MAT_2_1


def _direct_squares(lam):
    """The parent's squares and their sum, with its overflow warning off."""
    v = np.asarray(lam, dtype=np.float64)
    with np.errstate(over="ignore"):
        e = v * v
    return v, e, float(np.sum(e))


# Spectra whose every scaled copy by 1e-200..1e200 stays finite and nonzero.
_SCALABLE = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=13)


class TestSpectrumRange:
    """The energy is rescaled by max|lam| only where the direct sum of squares
    overflows or, for a nonzero spectrum, is not normal."""

    @settings(max_examples=500, deadline=None)
    @given(lam=st.lists(_SPECTRUM_VALUES, min_size=1, max_size=13))
    def test_direct_where_normal_else_exact_shape(self, lam):
        v, e, total = _direct_squares(lam)
        frob = frobenius_mean(lam)
        if math.isfinite(total) and (total >= sys.float_info.min or not np.any(v)):
            # The parent's formulas, bit for bit.
            want = np.float64(float(np.sqrt(total)) / v.size)
            assert np.float64(frob).view(np.uint64) == want.view(np.uint64)
            if total > 0.0:
                assert np.array_equal(energy_distribution(lam).view(np.uint64),
                                      (e / total).view(np.uint64))
            return
        # The rescaled energy against 50-digit arithmetic on the exact values
        # (the oracles read a value's repr, which rounds a subnormal).
        exact = [mpmath.mpf(x) for x in lam]
        sq = mpmath.fsum(x * x for x in exact)
        assert np.allclose(energy_distribution(lam), [float(x * x / sq) for x in exact],
                           rtol=1e-14, atol=1e-300)
        assert math.isclose(frob, float(mpmath.sqrt(sq) / len(lam)), rel_tol=1e-14,
                            abs_tol=1e-323)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lam=_SCALABLE, exponent=st.floats(-200, 200))
    def test_sign_flips_permutations_and_scale(self, data, lam, exponent):
        signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                   min_size=len(lam), max_size=len(lam)))
        moved = np.array(data.draw(st.permutations([s * x for s, x in zip(signs, lam)])))
        c = 10.0 ** exponent
        for name, fn in SPECTRUM_METRICS.items():
            # The entropy lies in [0, 1]; the others scale with max|lam|.
            floor = 1e-14 * (1.0 if name == "spectral_entropy" else max(lam))
            assert math.isclose(fn(moved), fn(lam), rel_tol=1e-12, abs_tol=floor), name
        assert math.isclose(spectral_entropy(c * moved), spectral_entropy(lam),
                            rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(frobenius_mean(c * moved), c * frobenius_mean(lam), rel_tol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(lam=st.lists(_SPECTRUM_VALUES, min_size=1, max_size=13))
    def test_magnitude_sums_direct_where_finite(self, lam):
        # nuclear and the hybrids rescale by max|lam| only where the direct
        # formula overflows; there, they match 50-digit arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            direct = (float(np.mean(np.abs(lam))), parent_elem_energy_entropy(lam, 1e-12),
                      parent_mat_energy_entropy(lam, 1e-12))
        exact = oracles.mp_all_metrics(lam) if len(lam) > 1 and np.any(lam) else None
        for i, (fn, want) in enumerate(zip(
                (nuclear_mean, elem_energy_entropy, mat_energy_entropy), direct)):
            got = fn(lam)
            if math.isfinite(want):
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
            else:
                ref = float(exact[(1, 3, 4)[i]])
                assert math.isclose(got, ref, rel_tol=1e-12,
                                    abs_tol=1e-12 * max(abs(x) for x in lam)), fn.__name__


class TestSensitivity:
    def test_two_step_hand_computation(self):
        st0 = SensitivityState()
        w = [np.array([1.0, -2.0])]
        g = [np.array([0.5, 0.25])]
        # raw = mean(|w*g|) = (0.5 + 0.5)/2 = 0.5
        st1 = sensitivity_update(st0, w, g, beta1=0.85, beta2=0.85)
        assert st1.smoothed == pytest.approx(0.15 * 0.5, abs=1e-15)
        assert st1.uncertainty == pytest.approx(0.15 * abs(0.5 - 0.075), abs=1e-15)
        st2 = sensitivity_update(st1, w, g, beta1=0.85, beta2=0.85)
        expect_smoothed = 0.85 * st1.smoothed + 0.15 * 0.5
        expect_unc = 0.85 * st1.uncertainty + 0.15 * abs(0.5 - expect_smoothed)
        assert st2.smoothed == pytest.approx(expect_smoothed, abs=1e-15)
        assert st2.uncertainty == pytest.approx(expect_unc, abs=1e-15)
        assert st2.score == st2.smoothed * st2.uncertainty

    def test_multiple_arrays_pool_elements(self):
        st1 = sensitivity_update(
            SensitivityState(),
            [np.ones((2, 2)), np.array([2.0])],
            [np.full((2, 2), 0.1), np.array([0.3])],
        )
        raw = (4 * 0.1 + 0.6) / 5
        assert st1.smoothed == pytest.approx(0.15 * raw, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sensitivity_update(SensitivityState(), [np.ones(3)], [np.ones(4)])

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            sensitivity_update(SensitivityState(), [np.ones(3)], [])

    def test_no_arrays(self):
        with pytest.raises(ParameterError, match="needs at least one parameter"):
            sensitivity_update(SensitivityState(), [], [])

    def test_negative_state_rejected(self):
        with pytest.raises(ParameterError):
            SensitivityState(smoothed=-1.0)


class TestMetricKind:
    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            MetricKind("made_up")

    def test_beta_range(self):
        with pytest.raises(ParameterError):
            MetricKind("sensitivity", beta1=1.0)

    def test_epsilon_positive(self):
        with pytest.raises(ParameterError):
            MetricKind("spectral_entropy", epsilon=-1e-9)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0])
    def test_epsilon_finite_and_positive(self, epsilon):
        with pytest.raises(ParameterError, match="epsilon"):
            MetricKind("nuclear", epsilon=epsilon)


@pytest.mark.parametrize("fn", [spectral_entropy, elem_energy_entropy, mat_energy_entropy])
@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan, 0.0, -0.5])
def test_entropy_epsilon_must_be_finite_and_positive(fn, epsilon):
    # Checked before the rank-1 and all-zero shortcuts, for every spectrum.
    for lam in ([1.0, 2.0], [1.0], [0.0, 0.0]):
        with pytest.raises(ParameterError, match="epsilon"):
            fn(lam, epsilon=epsilon)


class TestScoreAll:
    def test_one_score_per_adapter(self):
        ads = adapters_from([[2.0, 1.0], [1.0, 1.0], [5.0]])
        scores = score_all(ads, MetricKind("spectral_entropy"))
        assert set(scores) == {"a0", "a1", "a2"}
        assert scores["a0"] == pytest.approx(ENTROPY_2_1, abs=1e-12)
        assert [spectrum_flag(a.lam) for a in ads] == [None, None, "rank1"]

    def test_degenerate_flagged(self):
        ads = adapters_from([[0.0, 0.0], [1.0, 2.0]])
        assert spectrum_flag(ads[0].lam) == "degenerate"
        assert score_all(ads, MetricKind("spectral_entropy"))["a0"] == 1.0

    def test_empty_is_config_error(self):
        with pytest.raises(ConfigError):
            score_all([], MetricKind("nuclear"))

    def test_sensitivity_needs_state(self):
        ads = adapters_from([[1.0, 2.0]])
        with pytest.raises(ParameterError):
            score_all(ads, MetricKind("sensitivity"))
        states = {"a0": SensitivityState(smoothed=0.2, uncertainty=0.5)}
        assert score_all(ads, MetricKind("sensitivity"), states)["a0"] == \
            pytest.approx(0.1, abs=1e-15)

    def test_dispatch_by_variant(self):
        lam = [3.0, 1.0, -2.0]
        ads = adapters_from([lam])
        for variant, fn in (("spectral_entropy", spectral_entropy),
                            ("nuclear", nuclear_mean), ("frobenius", frobenius_mean),
                            ("elem_energy_entropy", elem_energy_entropy),
                            ("mat_energy_entropy", mat_energy_entropy)):
            assert score_all(ads, MetricKind(variant)) == {"a0": fn(lam)}

    def test_flag_helper(self):
        assert spectrum_flag([1.0]) == "rank1"
        assert spectrum_flag([0.0, 0.0]) == "degenerate"
        assert spectrum_flag([1.0, 0.0]) is None

    def test_report_is_plain_data(self):
        assert type(score_all(adapters_from([[1.0, 2.0]]), MetricKind("nuclear"))) is dict
