import math

import numpy as np
import pytest

from rankflex.adapter import InitStrategy, SvdAdapter
from rankflex.errors import (
    ConfigError,
    ParameterError,
    ShapeError,
    StalenessError,
)
from rankflex.model import (
    ActivationLayer,
    AdapterSpec,
    LayerSpec,
    LinearLayer,
    ToyModel,
    build_model,
    mse_loss,
    softmax_ce_loss,
)

import oracles


def two_layer_specs(adapted=True, act="tanh", d=5, hidden=4, out=3):
    mid = [LayerSpec(act)]
    spec1 = LayerSpec("linear", d_in=d, d_out=hidden,
                      adapter=AdapterSpec("enc", 2, 4) if adapted else None)
    spec2 = LayerSpec("linear", d_in=hidden, d_out=out,
                      adapter=AdapterSpec("dec", 2, 4) if adapted else None)
    return [spec1] + mid + [spec2]


class TestSpecsAndConstruction:
    def test_layer_spec_validation(self):
        with pytest.raises(ParameterError):
            LayerSpec("linear", d_in=0, d_out=3)
        with pytest.raises(ParameterError):
            LayerSpec("sigmoid")
        LayerSpec("tanh")
        LayerSpec("relu")

    def test_adapter_spec_validation(self):
        for args, kwargs in (
            (("bad id", 1, 2), {}),
            (("a,b", 1, 2), {}),
            (("", 1, 2), {}),
            (("a", 0, 2), {}),
            (("a", 3, 2), {}),
            (("a", 1, 2), {"alpha": 0.0}),
            (("a", 1, 2), {"alpha": math.inf}),
        ):
            with pytest.raises(ParameterError):
                AdapterSpec(*args, **kwargs)
        AdapterSpec("a", 2, 2)

    def test_unknown_loss(self):
        layer = LinearLayer(np.eye(2))
        with pytest.raises(ParameterError):
            ToyModel([layer], "hinge")

    def test_needs_linear_layer(self):
        with pytest.raises(ParameterError):
            ToyModel([ActivationLayer("tanh")], "mse")
        with pytest.raises(ParameterError):
            ToyModel([], "mse")

    def test_dim_chain_checked(self):
        l1 = LinearLayer(np.zeros((3, 4)))
        l2 = LinearLayer(np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            ToyModel([l1, l2], "mse")

    def test_duplicate_adapter_ids(self, rng):
        def adapted(d_out, d_in):
            base = rng.standard_normal((d_out, d_in))
            a = SvdAdapter.create("same", base, r_init=1, r_max=2, alpha=1.0,
                                  rng=rng)
            return LinearLayer(base, adapter=a)

        with pytest.raises(ConfigError):
            ToyModel([adapted(3, 3), adapted(3, 3)], "mse")

    def test_bias_length_checked(self):
        with pytest.raises(ShapeError):
            LinearLayer(np.zeros((3, 2)), bias=np.zeros(2))

    def test_adapter_shape_checked(self, rng):
        base = rng.standard_normal((3, 2))
        a = SvdAdapter.create("a", rng.standard_normal((3, 3)),
                              r_init=1, r_max=2, alpha=1.0, rng=rng)
        with pytest.raises(ShapeError):
            LinearLayer(base, adapter=a)

    def test_adapted_layer_shares_adapter_base(self, rng):
        base = rng.standard_normal((3, 2))
        a = SvdAdapter.create("a", base, r_init=1, r_max=2, alpha=1.0, rng=rng)
        assert LinearLayer(base.copy(), adapter=a).base_w is a.base_w
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(8))
        for layer in (model.layers[0], model.layers[2]):
            assert layer.base_w is layer.adapter.base_w

    def test_adapter_base_values_checked(self, rng):
        base = rng.standard_normal((3, 2))
        a = SvdAdapter.create("a", base, r_init=1, r_max=2, alpha=1.0, rng=rng)
        other = base.copy()
        other[1, 1] = np.nextafter(other[1, 1], np.inf)
        with pytest.raises(ParameterError, match="differs from adapter 'a'"):
            LinearLayer(other, adapter=a)


class TestLosses:
    def test_mse_hand_case(self):
        loss, grad = mse_loss(np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        assert loss == 2.5
        assert np.array_equal(grad, [[1.0], [2.0]])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 1)), np.zeros((1, 2)))

    def test_softmax_hand_case(self):
        loss, grad = softmax_ce_loss(np.zeros((2, 1)), np.array([0]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        assert grad == pytest.approx(np.array([[-0.5], [0.5]]), abs=1e-15)

    def test_softmax_shift_stable(self, rng):
        y = rng.standard_normal((4, 6))
        labels = rng.integers(0, 4, size=6)
        l0, g0 = softmax_ce_loss(y, labels)
        l1, g1 = softmax_ce_loss(y + 1000.0, labels)
        assert l1 == pytest.approx(l0, abs=1e-12)
        assert np.max(np.abs(g1 - g0)) < 1e-12

    def test_softmax_label_range(self):
        with pytest.raises(ParameterError):
            softmax_ce_loss(np.zeros((2, 1)), np.array([2]))
        with pytest.raises(ParameterError):
            softmax_ce_loss(np.zeros((2, 1)), np.array([-1]))

    def test_softmax_shapes(self):
        with pytest.raises(ShapeError):
            softmax_ce_loss(np.zeros((2, 3)), np.zeros(2, dtype=int))

    def test_softmax_grad_matches_fd(self, rng):
        y = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, size=4)
        _, grad = softmax_ce_loss(y, labels)
        num = oracles.central_diff(lambda: softmax_ce_loss(y, labels)[0],
                                   [y], h=1e-6)[0]
        ok, excess = oracles.grad_close(grad, num, rel=1e-6)
        assert ok, excess


class TestForward:
    def test_single_layer_is_plain_matmul(self, rng):
        w = rng.standard_normal((3, 4))
        model = ToyModel([LinearLayer(w)], "mse")
        x = rng.standard_normal((4, 5))
        y, caches = model.forward(x)
        assert np.array_equal(y, w @ x)
        assert len(caches) == 1 and caches[0]["rank"] == 0

    def test_caches_hold_only_inputs_and_ranks(self, rng):
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(4))
        _, caches = model.forward(rng.standard_normal((5, 3)))
        assert [sorted(c) for c in caches[::2]] == [["input", "rank"]] * 2

    def test_fresh_adapters_match_plain_stack_bitwise(self, rng):
        model = build_model(two_layer_specs(adapted=True), "mse", np.random.default_rng(5))
        plain = ToyModel(
            [LinearLayer(model.layers[0].base_w, bias=model.layers[0].bias),
             ActivationLayer("tanh"),
             LinearLayer(model.layers[2].base_w, bias=model.layers[2].bias)],
            "mse")
        x = rng.standard_normal((5, 7))
        assert np.array_equal(model.forward(x)[0], plain.forward(x)[0])

    def test_batch_columns_independent(self, rng):
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(6))
        for a in model.adapters():
            a.lam[:] = rng.standard_normal(a.rank)
        x = rng.standard_normal((5, 6))
        y, _ = model.forward(x)
        for j in range(6):
            yj, _ = model.forward(x[:, j:j + 1])
            assert np.max(np.abs(y[:, j:j + 1] - yj)) < 1e-12

    def test_input_validation(self, rng):
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(7))
        with pytest.raises(ShapeError):
            model.forward(np.zeros(5))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((4, 2)))

    def test_dims_and_introspection(self):
        model = ToyModel([LinearLayer(np.zeros((3, 4)), bias=np.zeros(3))],
                         "mse")
        assert list(model.trainable_params()) == ["layer0.bias"]
        assert model.param_count() == 3

    def test_param_names_and_depths(self, rng):
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(8))
        names = set(model.trainable_params())
        assert names == {"enc.p", "enc.lam", "enc.q", "dec.p", "dec.lam",
                         "dec.q", "layer0.bias", "layer2.bias"}
        assert model.adapter_depths() == {"enc": 0, "dec": 2}
        assert [a.id for a in model.adapters()] == ["enc", "dec"]


class TestBackward:
    def check_model_fd(self, model, x, targets, gamma, rel=1e-5):
        y, caches = model.forward(x)
        _, grad_out = model.loss_and_grad(y, targets)
        grads = model.backward(caches, grad_out, gamma=gamma)
        params = model.trainable_params()
        assert set(grads) == set(params)
        arrays = [params[name] for name in sorted(params)]

        def objective():
            loss, _ = model.loss_and_grad(model.forward(x)[0], targets)
            return loss + gamma * sum(a.ortho_regularizer() for a in model.adapters())

        numeric = oracles.central_diff(objective, arrays, h=1e-6)
        for name, num in zip(sorted(params), numeric):
            ok, excess = oracles.grad_close(grads[name], num, rel=rel)
            assert ok, f"{name} FD mismatch by {excess}"

    def prepared_model(self, seed, act="tanh", loss="mse"):
        model = build_model(two_layer_specs(act=act), loss, np.random.default_rng(seed))
        lam_rng = np.random.default_rng(seed + 100)
        for a in model.adapters():
            a.lam[:] = 0.3 * lam_rng.standard_normal(a.rank)
        return model

    def test_grads_match_fd_tanh(self, rng):
        model = self.prepared_model(21)
        x = rng.standard_normal((5, 4))
        t = rng.standard_normal((3, 4))
        self.check_model_fd(model, x, t, gamma=0.0)

    def test_grads_match_fd_relu(self, rng):
        model = self.prepared_model(22, act="relu")
        x = rng.standard_normal((5, 4))
        t = rng.standard_normal((3, 4))
        self.check_model_fd(model, x, t, gamma=0.0)

    def test_grads_match_fd_with_regularizer(self, rng):
        model = self.prepared_model(23)
        x = rng.standard_normal((5, 4))
        t = rng.standard_normal((3, 4))
        self.check_model_fd(model, x, t, gamma=0.25)

    def test_grads_match_fd_softmax(self, rng):
        model = self.prepared_model(24, loss="softmax_ce")
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=4)
        self.check_model_fd(model, x, labels, gamma=0.1)

    def test_regularizer_term_is_additive(self, rng):
        model = self.prepared_model(25)
        x = rng.standard_normal((5, 4))
        t = rng.standard_normal((3, 4))
        y, caches = model.forward(x)
        _, grad_out = model.loss_and_grad(y, t)
        g0 = model.backward(caches, grad_out, gamma=0.0)
        g3 = model.backward(caches, grad_out, gamma=0.3)
        for a in model.adapters():
            rp, rq = a.ortho_regularizer_grad()
            assert np.array_equal(g3[f"{a.id}.p"], g0[f"{a.id}.p"] + 0.3 * rp)
            assert np.array_equal(g3[f"{a.id}.q"], g0[f"{a.id}.q"] + 0.3 * rq)
            assert np.array_equal(g3[f"{a.id}.lam"], g0[f"{a.id}.lam"])

    def test_zero_residual_orthonormal_grads_vanish(self, rng):
        base = np.zeros((4, 4))
        p = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        q = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        a = SvdAdapter("a", base, p, rng.standard_normal(2), q,
                       r_init=2, r_max=3, alpha=2.0)
        model = ToyModel([LinearLayer(base, adapter=a)], "mse")
        x = rng.standard_normal((4, 3))
        y, caches = model.forward(x)
        _, grad_out = model.loss_and_grad(y, y.copy())
        grads = model.backward(caches, grad_out, gamma=0.1)
        for g in grads.values():
            assert np.max(np.abs(g)) < 1e-12

    def test_bias_grad_sums_batch(self, rng):
        model = ToyModel([LinearLayer(rng.standard_normal((3, 4)),
                                      bias=np.zeros(3))], "mse")
        x = rng.standard_normal((4, 5))
        t = rng.standard_normal((3, 5))
        y, caches = model.forward(x)
        _, grad_out = model.loss_and_grad(y, t)
        grads = model.backward(caches, grad_out)
        assert np.allclose(grads["layer0.bias"], grad_out.sum(axis=1))

    def test_stale_cache_layer_count(self, rng):
        model = self.prepared_model(26)
        x = rng.standard_normal((5, 4))
        y, caches = model.forward(x)
        with pytest.raises(StalenessError):
            model.backward(caches[:-1], np.zeros_like(y))

    def test_stale_cache_after_rank_change(self, rng):
        model = self.prepared_model(27)
        x = rng.standard_normal((5, 4))
        y, caches = model.forward(x)
        model.adapters()[1].expand_rank(InitStrategy("zero_impact"), rng)
        with pytest.raises(StalenessError):
            model.backward(caches, np.zeros_like(y))

    def test_gamma_validated(self, rng):
        model = self.prepared_model(28)
        x = rng.standard_normal((5, 4))
        y, caches = model.forward(x)
        with pytest.raises(ParameterError):
            model.backward(caches, np.zeros_like(y), gamma=-0.1)


class TestBuildModel:
    def test_deterministic(self):
        a = build_model(two_layer_specs(), "mse", np.random.default_rng(31))
        b = build_model(two_layer_specs(), "mse", np.random.default_rng(31))
        for (na, pa), (nb, pb) in zip(sorted(a.trainable_params().items()),
                                      sorted(b.trainable_params().items())):
            assert na == nb
            assert np.array_equal(pa, pb)
        assert np.array_equal(a.layers[0].base_w, b.layers[0].base_w)

    def test_biases_start_zero_lam_zero(self):
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(32))
        for i in (0, 2):
            assert not model.layers[i].bias.any()
        for a in model.adapters():
            assert not a.lam.any()

    def test_bias_disabled(self):
        spec = [LayerSpec("linear", d_in=3, d_out=2, bias=False)]
        model = build_model(spec, "mse", np.random.default_rng(33))
        assert model.layers[0].bias is None
        assert model.trainable_params() == {}

    def test_base_scale_tracks_fan_in(self):
        spec = [LayerSpec("linear", d_in=400, d_out=200)]
        model = build_model(spec, "mse", np.random.default_rng(34))
        std = float(model.layers[0].base_w.std())
        assert abs(std - 1.0 / 20.0) < 0.005
