import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankflex.adapter import INIT_VARIANTS, InitStrategy, SvdAdapter
from rankflex.errors import (
    MaxRankError,
    MinRankError,
    ParameterError,
    RankFullError,
    ShapeError,
)
from rankflex.model import LinearLayer

import oracles


def make_layer(rng, d_out=6, d_in=5, r=3, r_max=5, alpha=16.0, lam=None):
    """A linear layer over a random base, adapted by "ad" at rank ``r``."""
    base = rng.standard_normal((d_out, d_in))
    p = rng.standard_normal((d_out, r))
    q = rng.standard_normal((r, d_in))
    if lam is None:
        lam = rng.standard_normal(r)
    return LinearLayer(base, adapter=SvdAdapter("ad", p, lam, q, r_init=r, r_max=r_max,
                                                alpha=alpha))


def make_adapter(rng, **kwargs):
    return make_layer(rng, **kwargs).adapter


def dense_update(a):
    """The update (alpha / r_init) * P diag(lam) Q, materialized."""
    return a.scale * (a.p @ (a.lam[:, None] * a.q))


class TestConstruction:
    def test_bad_ids(self, rng):
        for bad in ("", "has space", "has,comma", 7, None):
            with pytest.raises(ParameterError):
                SvdAdapter(bad, np.zeros((2, 1)), [0.0], np.zeros((1, 2)),
                           r_init=1, r_max=2, alpha=1.0)

    def test_factor_shape_mismatch(self):
        with pytest.raises(ShapeError):
            SvdAdapter("a", np.zeros((3, 2)), [0.0], np.zeros((1, 4)),
                       r_init=1, r_max=2, alpha=1.0)
        with pytest.raises(ShapeError):
            SvdAdapter("a", np.zeros((3, 1)), [0.0], np.zeros((2, 4)),
                       r_init=1, r_max=2, alpha=1.0)
        with pytest.raises(ShapeError):
            SvdAdapter("a", np.zeros(3), [0.0], np.zeros((1, 4)),
                       r_init=1, r_max=2, alpha=1.0)

    def test_rank_bounds(self):
        with pytest.raises(ParameterError):
            SvdAdapter("a", np.zeros((3, 3)), [0.0] * 3, np.zeros((3, 3)),
                       r_init=1, r_max=2, alpha=1.0)

    def test_r_init_at_least_one(self):
        with pytest.raises(ParameterError, match="^r_init must be >= 1$"):
            SvdAdapter("a", np.zeros((3, 1)), [0.0], np.zeros((1, 3)),
                       r_init=0, r_max=2, alpha=1.0)

    def test_gauss_std_positive(self):
        with pytest.raises(ParameterError, match="^gauss_std must be positive$"):
            InitStrategy(gauss_std=0)

    def test_alpha_positive_finite(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                SvdAdapter("a", np.zeros((2, 1)), [0.0], np.zeros((1, 2)),
                           r_init=1, r_max=2, alpha=alpha)

    def test_nonfinite_factors(self):
        with pytest.raises(ParameterError):
            SvdAdapter("a", np.full((2, 1), np.nan), [0.0],
                       np.zeros((1, 2)), r_init=1, r_max=2, alpha=1.0)

    def test_create_rejects_bad_rank_pair(self, rng):
        with pytest.raises(ParameterError):
            SvdAdapter.create("a", 3, 3, r_init=4, r_max=2, alpha=1.0, rng=rng)


class TestForward:
    def test_fresh_adapter_equals_base_bitwise(self, rng):
        base = rng.standard_normal((7, 4))
        a = SvdAdapter.create("a", 7, 4, r_init=3, r_max=6, alpha=16.0, rng=rng)
        assert (a.d_out, a.d_in, a.rank) == (7, 4, 3)
        assert np.count_nonzero(a.lam) == 0
        x = rng.standard_normal((4, 9))
        assert np.array_equal(LinearLayer(base, adapter=a).forward(x), base @ x)
        # No live direction: the base product itself, so even -0.0 survives.
        product = base @ x
        assert a.forward(x, product) is product

    def test_create_deterministic(self, rng):
        a = SvdAdapter.create("a", 5, 5, r_init=2, r_max=4, alpha=8.0,
                              rng=np.random.default_rng(11))
        b = SvdAdapter.create("a", 5, 5, r_init=2, r_max=4, alpha=8.0,
                              rng=np.random.default_rng(11))
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.q, b.q)

    def test_matches_materialized_weight(self, rng):
        for _ in range(20):
            layer = make_layer(rng)
            x = rng.standard_normal((layer.d_in, 4))
            full = (layer.base_w + dense_update(layer.adapter)) @ x
            assert np.max(np.abs(layer.forward(x) - full)) < 1e-12

    def test_matches_bruteforce_matmul(self, rng):
        layer = make_layer(rng, d_out=3, d_in=4, r=2, r_max=3)
        x = rng.standard_normal((4, 2))
        w = layer.base_w + dense_update(layer.adapter)
        ref = oracles.matmul_bruteforce(w, x)
        assert np.max(np.abs(layer.forward(x) - ref)) < 1e-12

    def test_identity_composition(self, rng):
        d = 5
        a = SvdAdapter("a", np.eye(d), np.ones(d), np.eye(d),
                       r_init=d, r_max=d, alpha=float(d))
        assert a.scale == 1.0
        x = rng.standard_normal((d, 3))
        assert np.array_equal(LinearLayer(np.zeros((d, d)), adapter=a).forward(x), x)

    def test_zero_lam_directions_masked(self, rng):
        # Corrupt the factors of an inactive direction; the output may not move.
        layer = make_layer(rng, lam=np.array([1.0, 0.0, -2.0]))
        a = layer.adapter
        x = rng.standard_normal((a.d_in, 3))
        before = layer.forward(x)
        a.p[:, 1] = 1e12
        a.q[1, :] = -1e12
        assert np.array_equal(layer.forward(x), before)

    def test_all_active_forward_rounds_as_masked_copies(self, rng):
        # With every lam nonzero the forward skips the masked copies; its
        # GEMMs must round exactly as those on the copies, in either order
        # the factors are handed over.
        for _ in range(100):
            d_out, d_in, r, b = (int(v) for v in rng.integers(1, [200, 200, 40, 64]))
            base = rng.standard_normal((d_out, d_in))
            p, q = rng.standard_normal((d_out, r)), rng.standard_normal((r, d_in))
            lam = rng.standard_normal(r)
            if rng.random() < 0.5:
                p, q = np.asfortranarray(p), np.asfortranarray(q)
            a = SvdAdapter("a", p, lam, q, r_init=r, r_max=r, alpha=4.0)
            x = rng.standard_normal((d_in, b))
            mask = np.ones(r, dtype=bool)
            u = q[mask] @ x
            u *= lam[mask, None]
            masked = base @ x + a.scale * (p[:, mask] @ u)
            got = LinearLayer(base, adapter=a).forward(x)
            assert np.array_equal(got.view(np.uint64), masked.view(np.uint64))

    def test_input_shape_checked(self, rng):
        layer = make_layer(rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(layer.d_in))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((layer.d_in + 1, 2)))

    def test_param_count(self, rng):
        a = SvdAdapter.create("a", 6, 5, r_init=3, r_max=5, alpha=16.0, rng=rng)
        assert (a.p.shape, a.lam.shape, a.q.shape) == ((6, 3), (3,), (3, 5))


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


class TestBackward:
    def random_case(self, rng):
        """A layer at a random shape with every, some or no lam live, a
        batch in either memory order, an upstream gradient and a gamma."""
        d_out, d_in, r, b = (int(v) for v in rng.integers(1, [64, 64, 16, 48]))
        lam = rng.standard_normal(r)
        live = rng.integers(3)
        if live == 1 and r > 1:
            lam[rng.permutation(r)[:rng.integers(1, r)]] = 0.0
        elif live == 2:
            lam[:] = 0.0
        layer = make_layer(rng, d_out=d_out, d_in=d_in, r=r, r_max=r,
                           alpha=float(rng.uniform(1, 16)), lam=lam)
        x = rng.standard_normal((d_in, b))
        if rng.random() < 0.5:
            x = np.asfortranarray(x)
        g = rng.standard_normal((d_out, b))
        return layer, x, g, float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))

    def test_factor_grads_do_not_depend_on_input_gradient(self, rng):
        for _ in range(200):
            layer, x, g, gamma = self.random_case(rng)
            grads, dx = layer.adapter.backward(x, g, gamma)
            bare, none = layer.adapter.backward(x, g, gamma, need_dx=False)
            assert none is None and dx.shape == x.shape
            for got, want in zip(bare, grads):
                assert np.array_equal(bits(got), bits(want))

    def test_reused_forward_product_equals_fresh_backward(self, rng):
        for _ in range(300):
            layer, x, g, gamma = self.random_case(rng)
            a = layer.adapter
            cache = {}
            layer.forward(x, cache)
            assert ("qx" in cache) == (np.count_nonzero(a.lam) == a.rank)
            fresh, fresh_dx = a.backward(x, g, gamma)
            reused, reused_dx = a.backward(x, g, gamma, cache.get("qx"))
            for got, want in zip((*reused, reused_dx), (*fresh, fresh_dx)):
                assert np.array_equal(bits(got), bits(want))


class TestRegularizer:
    def test_hand_computed_scalar_case(self):
        a = SvdAdapter("a", [[2.0]], [1.0], [[1.0]],
                       r_init=1, r_max=2, alpha=1.0)
        # P^T P - I = [[3]], Q Q^T - I = [[0]]  ->  R = 9.
        assert a.ortho_regularizer() == 9.0
        gp, gq = a.ortho_regularizer_grad()
        assert gp == pytest.approx(np.array([[24.0]]))
        assert gq == pytest.approx(np.array([[0.0]]))

    def test_orthonormal_factors_vanish(self, rng):
        m = rng.standard_normal((8, 3))
        p, _ = np.linalg.qr(m)
        q = np.linalg.qr(rng.standard_normal((7, 3)))[0].T
        a = SvdAdapter("a", p, np.ones(3), q,
                       r_init=3, r_max=4, alpha=1.0)
        assert a.ortho_regularizer() < 1e-25
        gp, gq = a.ortho_regularizer_grad()
        assert np.max(np.abs(gp)) < 1e-12
        assert np.max(np.abs(gq)) < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(100):
            d_out = int(rng.integers(2, 7))
            d_in = int(rng.integers(2, 7))
            r = int(rng.integers(1, min(d_out, d_in) + 1))
            a = make_adapter(rng, d_out=d_out, d_in=d_in, r=r, r_max=r + 1)
            gp, gq = a.ortho_regularizer_grad()
            num_p, num_q = oracles.central_diff(
                lambda: a.ortho_regularizer(), [a.p, a.q], h=1e-6)
            for analytic, numeric in ((gp, num_p), (gq, num_q)):
                ok, excess = oracles.grad_close(analytic, numeric, rel=1e-6)
                assert ok, f"regularizer FD mismatch by {excess}"


def eye_form(a):
    """The Gram residuals, the regularizer and its gradients with
    ``np.eye(r)`` subtracted."""
    r = a.rank
    pg = a.p.T @ a.p - np.eye(r)
    qg = a.q @ a.q.T - np.eye(r)
    return ((pg, qg), float(np.sum(pg * pg) + np.sum(qg * qg)),
            (4.0 * (a.p @ pg), 4.0 * (qg @ a.q)))


# Entries from a few exact values, signed zeros among them, and finite floats.
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def factor(draw, rows, cols, transpose):
    """A rows x cols factor (transposed for Q). When rows >= cols it may be
    made of signed unit columns padded with 0.0 or -0.0, whose Gram matrix
    is exactly the identity."""
    if rows >= cols and draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=cols, max_size=cols))
        m = np.eye(rows, cols) * np.array(signs)
        m[m == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    else:
        m = draw(arrays(np.float64, (rows, cols), elements=ENTRY))
    return m.T.copy() if transpose else m


@st.composite
def regularizer_adapters(draw):
    r = draw(st.integers(1, 16))
    d_out = draw(st.integers(1, 20))
    d_in = draw(st.integers(1, 20))
    p = draw(factor(d_out, r, False))
    q = draw(factor(d_in, r, True))
    return SvdAdapter("a", p, np.ones(r), q,
                      r_init=r, r_max=r, alpha=1.0)


class TestRegularizerIdentity:
    @settings(max_examples=200, deadline=None)
    @given(regularizer_adapters())
    def test_in_place_diagonal_equals_eye_form(self, a):
        residuals, value, grads = eye_form(a)
        pairs = [*zip(a._gram_residuals(), residuals), *zip(a.ortho_regularizer_grad(), grads),
                 (np.float64(a.ortho_regularizer()), np.float64(value))]
        for got, want in pairs:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPrune:
    def test_removes_smallest_magnitude(self, rng):
        a = make_adapter(rng, lam=np.array([0.5, -0.1, 2.0]))
        p1, q1 = a.p[:, 1].copy(), a.q[1, :].copy()
        # The index and |lam| of the removed direction come back.
        assert a.prune_rank() == (1, 0.1)
        assert a.rank == 2
        assert not any(np.array_equal(a.p[:, j], p1) for j in range(2))
        assert not any(np.array_equal(a.q[j, :], q1) for j in range(2))

    def test_tie_breaks_to_lowest_index(self, rng):
        a = make_adapter(rng, lam=np.array([0.5, -0.5, 1.0]))
        assert a.prune_rank() == (0, 0.5)
        assert np.array_equal(a.lam, [-0.5, 1.0])

    def test_matches_npdelete(self, rng):
        a = make_adapter(rng, lam=np.array([3.0, 0.2, -1.0]))
        p0, l0, q0 = a.p.copy(), a.lam.copy(), a.q.copy()
        a.prune_rank()
        assert np.array_equal(a.p, np.delete(p0, 1, axis=1))
        assert np.array_equal(a.lam, np.delete(l0, 1))
        assert np.array_equal(a.q, np.delete(q0, 1, axis=0))

    def test_factors_name_the_live_arrays_and_their_direction_axes(self, rng):
        a = make_adapter(rng, lam=np.array([3.0, 0.2, -1.0]))
        before = a.factors()
        assert [name for name, _, _ in before] == ["ad.p", "ad.lam", "ad.q"]
        assert all(arr is live for (_, arr, _), live in zip(before, (a.p, a.lam, a.q)))
        index, _ = a.prune_rank()
        for (_, old, axis), (_, new, _) in zip(before, a.factors()):
            assert np.array_equal(new, np.delete(old, index, axis=axis))

    def test_min_rank_guard(self, rng):
        a = make_adapter(rng, r=1, lam=np.array([1.0]))
        with pytest.raises(MinRankError):
            a.prune_rank()

    def test_pruning_inactive_direction_is_bitwise_noop(self, rng):
        layer = make_layer(rng, lam=np.array([1.0, 0.0, -2.0]))
        x = rng.standard_normal((layer.d_in, 6))
        before = layer.forward(x)
        assert layer.adapter.prune_rank() == (1, 0.0)
        assert np.array_equal(layer.forward(x), before)

    def test_output_shift_bounded(self, rng):
        for _ in range(20):
            layer = make_layer(rng)
            a = layer.adapter
            x = rng.standard_normal((a.d_in, 5))
            before = layer.forward(x)
            i = int(np.argmin(np.abs(a.lam)))
            bound = (a.scale * abs(a.lam[i])
                     * float(np.linalg.norm(a.p[:, i]))
                     * float(np.linalg.norm(a.q[i, :]))
                     * np.linalg.norm(x))
            a.prune_rank()
            shift = np.linalg.norm(layer.forward(x) - before)
            assert shift <= bound * (1 + 1e-12) + 1e-15


def assert_orthogonal_to_columns(old, new):
    """|old_jᵀ new| <= 1e-12 relative to each old column's norm (at least 1)."""
    bound = 1e-12 * np.maximum(1.0, np.linalg.norm(old, axis=0))
    assert np.all(np.abs(old.T @ new) <= bound)


class TestExpand:
    def test_zero_impact_is_bitwise_invariant(self, rng):
        layer = make_layer(rng)
        a = layer.adapter
        x = rng.standard_normal((a.d_in, 8))
        before = layer.forward(x)
        old_p, old_q = a.p.copy(), a.q.copy()
        assert a.expand_rank(InitStrategy("zero_impact"), rng) is None
        assert a.rank == 4 and a.lam[-1] == 0.0
        # The new direction sits at index 3, after the old ones.
        assert np.array_equal(a.p[:, :3], old_p) and np.array_equal(a.q[:3], old_q)
        assert np.array_equal(layer.forward(x), before)
        # New factor vectors are live Gaussians, not zeros.
        assert np.linalg.norm(a.p[:, -1]) > 0.0
        assert np.linalg.norm(a.q[-1, :]) > 0.0

    def test_zero_init_appends_dead_direction(self, rng):
        layer = make_layer(rng)
        a = layer.adapter
        x = rng.standard_normal((a.d_in, 4))
        before = layer.forward(x)
        a.expand_rank(InitStrategy("zero_init"), rng)
        assert not a.p[:, -1].any()
        assert not a.q[-1, :].any()
        assert a.lam[-1] == 0.0
        assert np.array_equal(layer.forward(x), before)
        # Even the regularizer gradient is gated to zero by the zero factors,
        # so nothing can ever move this direction.
        gp, gq = a.ortho_regularizer_grad()
        assert np.max(np.abs(gp[:, -1])) == 0.0
        assert np.max(np.abs(gq[-1, :])) == 0.0

    def test_small_init_orthogonal_and_bounded(self, rng):
        layer = make_layer(rng)
        a = layer.adapter
        x = rng.standard_normal((a.d_in, 4))
        before = layer.forward(x)
        old_p, old_q = a.p.copy(), a.q.copy()
        a.expand_rank(InitStrategy("small_init", small_value=1e-4), rng)
        p_new, q_new = a.p[:, -1], a.q[-1, :]
        assert a.lam[-1] == 1e-4
        assert abs(np.linalg.norm(p_new) - 1.0) < 1e-12
        assert abs(np.linalg.norm(q_new) - 1.0) < 1e-12
        assert_orthogonal_to_columns(old_p, p_new)
        assert_orthogonal_to_columns(old_q.T, q_new)
        shift = np.linalg.norm(layer.forward(x) - before)
        assert shift <= a.scale * 1e-4 * np.linalg.norm(x) * (1 + 1e-12)

    def test_orthogonal_init_unit_vectors_zero_lam(self, rng):
        layer = make_layer(rng)
        a = layer.adapter
        x = rng.standard_normal((a.d_in, 4))
        before = layer.forward(x)
        old_p, old_q = a.p.copy(), a.q.copy()
        a.expand_rank(InitStrategy("orthogonal_init"), rng)
        p_new, q_new = a.p[:, -1], a.q[-1, :]
        assert a.lam[-1] == 0.0
        assert abs(np.linalg.norm(p_new) - 1.0) < 1e-12
        assert abs(np.linalg.norm(q_new) - 1.0) < 1e-12
        assert_orthogonal_to_columns(old_p, p_new)
        assert_orthogonal_to_columns(old_q.T, q_new)
        assert np.array_equal(layer.forward(x), before)

    def test_max_rank_guard(self, rng):
        a = make_adapter(rng, r=5, r_max=5)
        with pytest.raises(MaxRankError):
            a.expand_rank(InitStrategy("zero_impact"), rng)

    def test_rank_full_propagates(self, rng):
        # P already spans R^2, so the orthogonal schemes have nowhere to go.
        a = make_adapter(rng, d_out=2, d_in=8, r=2, r_max=4)
        with pytest.raises(RankFullError):
            a.expand_rank(InitStrategy("small_init"), rng)

    def test_expand_deterministic(self, rng):
        results = []
        for _ in range(2):
            a = SvdAdapter.create("a", 6, 6, r_init=2, r_max=5, alpha=4.0,
                                  rng=np.random.default_rng(3))
            a.expand_rank(InitStrategy("zero_impact"), np.random.default_rng(9))
            results.append((a.p.copy(), a.q.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestStructuralFuzz:
    def test_thousand_random_actions(self, rng):
        a = SvdAdapter.create("fz", 12, 10, r_init=4, r_max=8, alpha=16.0, rng=rng)
        # Give lam nonzero magnitudes so prunes exercise real selection.
        a.lam[:] = rng.standard_normal(a.rank)
        strategies = [InitStrategy(v) for v in INIT_VARIANTS]
        for _ in range(1000):
            want_expand = bool(rng.integers(0, 2))
            if a.rank == 1:
                want_expand = True
            elif a.rank == a.r_max:
                want_expand = False
            before = a.rank
            if want_expand:
                strat = strategies[int(rng.integers(0, len(strategies)))]
                assert a.expand_rank(strat, rng) is None
                assert a.rank == before + 1
            else:
                weakest = int(np.argmin(np.abs(a.lam)))
                removed = float(abs(a.lam[weakest]))
                assert a.prune_rank() == (weakest, removed)
                assert a.rank == before - 1
            assert 1 <= a.rank <= a.r_max
            # SvdAdapter.forward's all-live path relies on C-ordered factors.
            assert a.p.flags.c_contiguous and a.q.flags.c_contiguous
            assert a.p.shape == (12, a.rank)
            assert a.q.shape == (a.rank, 10)
            assert a.lam.shape == (a.rank,)
            assert np.all(np.isfinite(a.lam))
            assert a.r_init == 4 and a.scale == 4.0
