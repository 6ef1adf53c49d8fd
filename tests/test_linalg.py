import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflex.errors import (
    DegenerateInputError,
    ParameterError,
    ParseError,
    RankFullError,
    ShapeError,
)
from rankflex.linalg import (
    gaussian_matrix,
    gram_schmidt_extend,
    matrix_from_csv_lines,
    matrix_to_csv_lines,
    orthonormal_columns,
    split_rng,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = split_rng(42, 3)[2].standard_normal(16)
        b = split_rng(42, 3)[2].standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = split_rng(1, 1)[0].standard_normal(16)
        b = split_rng(2, 1)[0].standard_normal(16)
        assert not np.array_equal(a, b)

    def test_split_streams_are_stable(self):
        # Consuming extra draws from one stream must not shift its sibling.
        r1, r2 = split_rng(9, 2)
        r1.standard_normal(100)
        got = r2.standard_normal(8)
        _, fresh = split_rng(9, 2)
        assert np.array_equal(got, fresh.standard_normal(8))

    def test_split_validates_count(self):
        with pytest.raises(ParameterError):
            split_rng(0, 0)


class TestGaussianMatrix:
    def test_moments(self):
        m = gaussian_matrix(100, 100, 1.0, np.random.default_rng(11))
        assert -0.05 <= m.mean() <= 0.05
        assert 0.95 <= m.std() <= 1.05

    def test_scales_with_std(self):
        a = gaussian_matrix(4, 4, 1.0, np.random.default_rng(5))
        b = gaussian_matrix(4, 4, 2.0, np.random.default_rng(5))
        assert np.allclose(b, 2.0 * a)

    @pytest.mark.parametrize("std", [0.0, -1.0, float("nan")])
    def test_bad_std(self, std):
        with pytest.raises(ParameterError):
            gaussian_matrix(2, 2, std, np.random.default_rng(0))

    def test_bad_dims(self):
        with pytest.raises(ParameterError):
            gaussian_matrix(0, 3, 1.0, np.random.default_rng(0))


class TestGramSchmidtExtend:
    def test_extends_orthonormal_basis(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        v = gram_schmidt_extend(q, rng.standard_normal(8), rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.max(np.abs(q.T @ v)) <= 1e-10

    def test_handles_nonorthogonal_basis(self, rng):
        basis = rng.standard_normal((10, 4)) @ np.diag([1.0, 10.0, 0.1, 5.0])
        v = gram_schmidt_extend(basis, rng.standard_normal(10), rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for j in range(4):
            col = basis[:, j]
            assert abs(col @ v) <= 1e-10 * max(1.0, np.linalg.norm(col))

    def test_dependent_candidate_resampled(self, rng):
        basis = np.eye(6)[:, :2]
        # Candidate inside span(basis): must fall back to rng draws.
        v = gram_schmidt_extend(basis, basis[:, 0] + basis[:, 1], rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.max(np.abs(basis.T @ v)) <= 1e-10

    def test_zero_columns_ignored(self, rng):
        basis = np.zeros((5, 2))
        basis[:, 0] = np.array([1.0, 0, 0, 0, 0])
        v = gram_schmidt_extend(basis, rng.standard_normal(5), rng)
        assert abs(v[0]) <= 1e-10

    def test_full_basis_raises(self, rng):
        with pytest.raises(RankFullError):
            gram_schmidt_extend(np.eye(4), rng.standard_normal(4), rng)

    def test_candidate_length_checked(self, rng):
        with pytest.raises(ShapeError):
            gram_schmidt_extend(np.eye(4)[:, :2], np.zeros(3), rng)

    def test_deterministic_given_rng(self):
        basis = np.eye(7)[:, :3]
        a = gram_schmidt_extend(basis, np.zeros(7), np.random.default_rng(3))
        b = gram_schmidt_extend(basis, np.zeros(7), np.random.default_rng(3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["basis", "candidate"])
    def test_nonfinite_input_rejected(self, rng, where, bad):
        basis, candidate = rng.standard_normal((6, 3)), rng.standard_normal(6)
        if where == "basis":
            basis[2, 1] = bad
        else:
            candidate[4] = bad
        with pytest.raises(ParameterError, match="finite"):
            gram_schmidt_extend(basis, candidate, rng)

    @pytest.mark.parametrize("middle", ["zero", "duplicate"])
    def test_dependent_column_before_an_independent_one(self, rng, middle):
        # Householder QR gives a dropped column a Q direction outside the
        # basis's span, and the third column has a component along it.
        a, c = rng.standard_normal(6), rng.standard_normal(6)
        basis = np.stack([a, np.zeros(6) if middle == "zero" else a, c], axis=1)
        v = gram_schmidt_extend(basis, rng.standard_normal(6), rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.max(np.abs(basis.T @ v)) <= 1e-12 * np.linalg.norm(c)

    def test_degenerate_gives_up(self):
        class ZeroRng:
            def standard_normal(self, n):
                return np.zeros(n)

        with pytest.raises(DegenerateInputError):
            gram_schmidt_extend(np.eye(5)[:, :2], np.zeros(5), ZeroRng())


class ScriptedRng:
    """Hands out the scripted candidates or blocks in order, then a seeded
    stream; logs the length or shape of every draw."""

    # Outside the seeds (0 to 2**63) the property tests build bases from: a
    # fallback stream seeded like a basis hands out that basis's own columns
    # as candidates (default_rng(0)'s first draw is both), which lie in its
    # span and are rightly redrawn, so the draw counts would not hold.
    FALLBACK_SEED = 2**64

    def __init__(self, script):
        self.script = [np.array(v, dtype=np.float64) for v in script]
        self.rest = np.random.default_rng(self.FALLBACK_SEED)
        self.draws = []

    def standard_normal(self, size):
        self.draws.append(size)
        if not self.script:
            return self.rest.standard_normal(size)
        block = self.script.pop(0)
        assert block.shape == np.empty(size).shape
        return block


class TestGramSchmidtExtendProperties:
    """Tolerance oracles over random bases with zero, duplicated (scaled
    copies of earlier columns) and rescaled columns injected."""

    KINDS = ("gaussian", "zero", "copy", "rescaled")
    FACTORS = (1e-8, 1e-3, -1.0, 2.0, 1e3, 1e8)

    @classmethod
    def draw_case(cls, data, rows, seed):
        cols = data.draw(st.integers(0, rows - 1), label="cols")
        gen = np.random.default_rng(seed)
        basis = gen.standard_normal((rows, cols))
        for j in range(cols):
            kind = data.draw(st.sampled_from(cls.KINDS))
            factor = data.draw(st.sampled_from(cls.FACTORS))
            if kind == "zero":
                basis[:, j] = 0.0
            elif kind == "copy" and j:
                basis[:, j] = factor * basis[:, data.draw(st.integers(0, j - 1))]
            elif kind == "rescaled":
                basis[:, j] *= factor
        return basis, gen

    @staticmethod
    def in_span(basis, gen):
        """A combination of the columns small enough that its residual off
        their span is rounding, far below the redraw floor."""
        weights = gen.standard_normal(basis.shape[1])
        return basis @ (weights / np.maximum(1.0, np.linalg.norm(basis, axis=0)))

    @staticmethod
    def assert_unit_and_orthogonal(basis, v):
        assert v.shape == (basis.shape[0],)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        bound = 1e-12 * np.maximum(1.0, np.linalg.norm(basis, axis=0))
        assert np.all(np.abs(basis.T @ v) <= bound)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(2, 48), data=st.data(), seed=st.integers(0, 2**63))
    def test_unit_orthogonal_and_reproducible(self, rows, data, seed):
        basis, gen = self.draw_case(data, rows, seed)
        candidate = gen.standard_normal(rows)
        got_rng, again_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        v = gram_schmidt_extend(basis, candidate, got_rng)
        self.assert_unit_and_orthogonal(basis, v)
        assert np.array_equal(v, gram_schmidt_extend(basis, candidate, again_rng))
        assert got_rng.bit_generator.state == again_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(2, 48), data=st.data(), seed=st.integers(0, 2**63))
    def test_degenerate_candidates_redrawn_then_given_up(self, rows, data, seed):
        self.check_redrawn_then_given_up(*self.draw_case(data, rows, seed))

    def test_redraw_at_seed_0_with_one_gaussian_column(self):
        # Seed 0's basis column is default_rng(0)'s first draw.
        gen = np.random.default_rng(0)
        self.check_redrawn_then_given_up(gen.standard_normal((2, 1)), gen)

    def check_redrawn_then_given_up(self, basis, gen):
        rows = basis.shape[0]
        scripted = ScriptedRng([self.in_span(basis, gen)])
        v = gram_schmidt_extend(basis, self.in_span(basis, gen), scripted)
        self.assert_unit_and_orthogonal(basis, v)
        assert scripted.draws == [rows, rows]
        scripted = ScriptedRng([self.in_span(basis, gen) for _ in range(8)])
        with pytest.raises(DegenerateInputError):
            gram_schmidt_extend(basis, self.in_span(basis, gen), scripted)
        assert scripted.draws == [rows] * 8


def assert_matches_k_call_build(dim, k, seed):
    """The QR build against the modified Gram-Schmidt reference, which
    orthonormalizes column by column: equal to rounding, orthonormal, and
    leaving the generator where the reference leaves it."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = orthonormal_columns(dim, k, got_rng)
    want = oracles.orthonormal_columns_k_calls(dim, k, want_rng)
    assert got.shape == want.shape == (dim, k)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(got.T @ got - np.eye(k))) <= 1e-12
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestOrthonormalColumns:
    """The QR build against the k-call Gram-Schmidt build, which
    re-orthonormalizes every earlier column for each new one."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2**63))
    def test_bitwise_equal_to_k_call_build(self, dim, data, seed):
        assert_matches_k_call_build(dim, data.draw(st.integers(1, dim), label="k"), seed)

    def test_bitwise_equal_at_wide_teacher_size(self):
        assert_matches_k_call_build(512, 64, 401)

    def test_degenerate_generator_gives_up(self):
        scripted = ScriptedRng([np.zeros((2, 5))])
        with pytest.raises(DegenerateInputError):
            orthonormal_columns(5, 2, scripted)
        assert scripted.draws == [(2, 5)]

    def test_too_many_columns_rejected(self, rng):
        with pytest.raises(RankFullError):
            orthonormal_columns(4, 5, rng)


class TestMatrixCsv:
    def test_round_trip_exact(self, rng):
        m = rng.standard_normal((5, 3)) * np.array([1e-200, 1.0, 1e200])
        again = matrix_from_csv_lines(matrix_to_csv_lines(m))
        assert np.array_equal(m, again)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv_lines(["1.0,2.0", "3.0"])

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv_lines(["1.0,apple"])

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv_lines([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv_lines(["inf,1.0"])
