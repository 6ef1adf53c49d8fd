import math
from types import SimpleNamespace

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
    ImportanceReport,
    MetricKind,
    SensitivityState,
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
        report = score_all(ads, MetricKind("spectral_entropy"), step=7)
        assert set(report.scores) == {"a0", "a1", "a2"}
        assert report.step == 7
        assert report.scores["a0"] == pytest.approx(ENTROPY_2_1, abs=1e-12)
        assert report.flags == {"a2": "rank1"}

    def test_degenerate_flagged(self):
        ads = adapters_from([[0.0, 0.0], [1.0, 2.0]])
        report = score_all(ads, MetricKind("spectral_entropy"))
        assert report.flags["a0"] == "degenerate"
        assert report.scores["a0"] == 1.0

    def test_empty_is_config_error(self):
        with pytest.raises(ConfigError):
            score_all([], MetricKind("nuclear"))

    def test_duplicate_ids_rejected(self):
        ads = adapters_from([[1.0], [1.0]])
        ads[1].id = "a0"
        with pytest.raises(ConfigError):
            score_all(ads, MetricKind("nuclear"))

    def test_sensitivity_needs_state(self):
        ads = adapters_from([[1.0, 2.0]])
        with pytest.raises(ParameterError):
            score_all(ads, MetricKind("sensitivity"))
        states = {"a0": SensitivityState(smoothed=0.2, uncertainty=0.5)}
        report = score_all(ads, MetricKind("sensitivity"), states)
        assert report.scores["a0"] == pytest.approx(0.1, abs=1e-15)

    def test_dispatch_by_variant(self):
        lam = [3.0, 1.0, -2.0]
        ads = adapters_from([lam])
        for variant, fn in (("spectral_entropy", spectral_entropy),
                            ("nuclear", nuclear_mean), ("frobenius", frobenius_mean),
                            ("elem_energy_entropy", elem_energy_entropy),
                            ("mat_energy_entropy", mat_energy_entropy)):
            assert score_all(ads, MetricKind(variant)).scores == {"a0": fn(lam)}

    def test_flag_helper(self):
        assert spectrum_flag([1.0]) == "rank1"
        assert spectrum_flag([0.0, 0.0]) == "degenerate"
        assert spectrum_flag([1.0, 0.0]) is None

    def test_report_is_plain_data(self):
        report = ImportanceReport(step=0, metric=MetricKind("nuclear"),
                                  scores={"x": 1.0})
        assert report.flags == {}
