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

    def test_unsupported_layer_object(self):
        with pytest.raises(ParameterError, match="unsupported layer object"):
            ToyModel([LinearLayer(np.eye(2)), object()], "mse")

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
            a = SvdAdapter.create("same", d_out, d_in, r_init=1, r_max=2, alpha=1.0,
                                  rng=rng)
            return LinearLayer(base, adapter=a)

        with pytest.raises(ConfigError):
            ToyModel([adapted(3, 3), adapted(3, 3)], "mse")

    def test_bias_length_checked(self):
        with pytest.raises(ShapeError):
            LinearLayer(np.zeros((3, 2)), bias=np.zeros(2))

    def test_adapter_shape_checked(self, rng):
        base = rng.standard_normal((3, 2))
        for d_out, d_in in ((3, 3), (2, 2)):
            a = SvdAdapter.create("a", d_out, d_in, r_init=1, r_max=2, alpha=1.0, rng=rng)
            with pytest.raises(ShapeError, match="adapter 'a' shape"):
                LinearLayer(base, adapter=a)

    def test_base_must_be_2d(self):
        with pytest.raises(ShapeError):
            LinearLayer(np.zeros(4))

    def test_base_is_read_only(self, rng):
        base = rng.standard_normal((3, 2))
        a = SvdAdapter.create("a", 3, 2, r_init=1, r_max=2, alpha=1.0, rng=rng)
        for layer in (LinearLayer(base), LinearLayer(base, adapter=a)):
            with pytest.raises(ValueError):
                layer.base_w[0, 0] = 1.0
        # The layer holds its own copy: the caller's array stays writable,
        # and writing to it does not reach the layer.
        layer = LinearLayer(base, adapter=a)
        kept = base.copy()
        base[1, 1] = 7.0
        assert np.array_equal(layer.base_w, kept)


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
        # Never a linear layer's output; an adapter whose every lam is live
        # also leaves the unscaled Q @ x its backward reuses. An activation
        # holds only its output, which is the next layer's input.
        model = build_model(two_layer_specs(), "mse", np.random.default_rng(4))
        x = rng.standard_normal((5, 3))
        _, caches = model.forward(x)
        assert [sorted(c) for c in caches[::2]] == [["input", "rank"]] * 2
        assert list(caches[1]) == ["output"]
        assert caches[1]["output"] is caches[2]["input"]
        enc, dec = model.adapters()
        enc.lam[:] = [0.5, -0.25]
        dec.lam[:] = [0.5, 0.0]
        _, caches = model.forward(x)
        assert [sorted(c) for c in caches[::2]] == [["input", "qx", "rank"], ["input", "rank"]]
        assert_bits(caches[0]["qx"], enc.q @ x)

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
        a = SvdAdapter("a", p, rng.standard_normal(2), q,
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

    def test_grad_out_shape_checked(self, rng):
        model = self.prepared_model(26)
        y, caches = model.forward(rng.standard_normal((5, 4)))
        with pytest.raises(ShapeError, match=r"upstream grad shape \(2, 2\) unexpected"):
            model.backward(caches, np.zeros((2, 2)))

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

    @pytest.mark.parametrize("first_adapted", [True, False], ids=["adapted", "bare"])
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_first_layer_input_gradient_is_not_formed(self, rng, first_adapted, gamma):
        # Every GEMM on the first layer's W and Q is logged with its operand
        # shapes; W^T g and the adapter's Q^T term would show a transposed
        # first operand.
        log = []
        specs = [LayerSpec("linear", d_in=5, d_out=7,
                           adapter=AdapterSpec("enc", 2, 3) if first_adapted else None),
                 LayerSpec("tanh"),
                 LayerSpec("linear", d_in=7, d_out=3, adapter=AdapterSpec("dec", 2, 3))]
        model = build_model(specs, "mse", np.random.default_rng(29))
        first = model.layers[0]
        first.base_w = MatmulLog.of(first.base_w, log)
        for a in model.adapters():
            a.lam[:] = rng.standard_normal(a.rank)
        if first_adapted:
            first.adapter.q = MatmulLog.of(first.adapter.q, log)
        x = rng.standard_normal((5, 4))
        y, caches = model.forward(x)
        forward_calls = [((7, 5), (5, 4))] + [((2, 5), (5, 4))] * first_adapted
        assert log == forward_calls
        model.backward(caches, rng.standard_normal(y.shape), gamma)
        assert all(shapes[0] not in ((5, 7), (5, 2)) for shapes in log)
        if gamma == 0.0:
            # All lam live: backward reuses forward's Q @ x.
            assert log == forward_calls


# Pre-activation values where an output-based derivative could part from
# the input-based one: signed zeros, infinities, NaNs of either sign,
# subnormals, values on either side of them, and ordinary values.
SPECIAL_INPUTS = np.concatenate([[
    -0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
    2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300, 0.5, -0.5,
    20.0, -20.0, 1e300, -1e300], np.linspace(-3.0, 3.0, 41)])


class TestActivationBackwardFromOutput:
    """tanh's and relu's backward read only the cached output, and give the
    input-based derivative's bits for every input."""

    @pytest.mark.parametrize("kind", ["tanh", "relu"])
    def test_matches_input_based_formula_bitwise(self, rng, kind):
        d = SPECIAL_INPUTS.size
        model = ToyModel([LinearLayer(rng.standard_normal((d, 3)), bias=np.zeros(d)),
                          ActivationLayer(kind),
                          LinearLayer(rng.standard_normal((4, d)), bias=np.zeros(4))], "mse")
        for cols in ([0], [0, 3, 7]):
            pre = SPECIAL_INPUTS[np.add.outer(np.arange(d), cols) % d]
            _, caches = model.forward(rng.standard_normal((3, len(cols))))
            assert list(caches[1]) == ["output"]
            # The output array is shared with the next layer's input cache.
            caches[1]["output"][...] = model.layers[1].forward(pre)
            g = rng.standard_normal((4, len(cols)))
            upstream = model.layers[2].base_w.T @ g
            if kind == "tanh":
                want = (1.0 - np.tanh(pre) ** 2) * upstream
            else:
                want = (pre > 0.0) * upstream
            grads = model.backward(caches, g)
            assert_bits(grads["layer0.bias"], want.sum(axis=1))

    def test_relu_mask_from_output_equals_mask_from_input(self):
        x = np.concatenate([SPECIAL_INPUTS, -SPECIAL_INPUTS])
        assert np.array_equal(np.maximum(x, 0.0) > 0.0, x > 0.0)


class MatmulLog(np.ndarray):
    """An array view that appends the operand shapes of each matmul it
    takes part in to ``log``; its transpose logs to the same list."""

    @classmethod
    def of(cls, arr, log):
        view = arr.view(cls)
        view.log = log
        return view

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(tuple(np.shape(v) for v in inputs))
        plain = [v.view(np.ndarray) if isinstance(v, MatmulLog) else v for v in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


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


def single_object_forward(layer, x):
    """LinearLayer.forward as one adapter object computed it while it held
    its own copy of the base: the base GEMM and the update in one place."""
    a = layer.adapter
    base = layer.base_w @ x
    nonzero = np.count_nonzero(a.lam)
    if nonzero == 0:
        y = base
    else:
        if nonzero == a.rank:
            p, lam, q = np.asfortranarray(a.p), a.lam, a.q
        else:
            active = a.lam != 0.0
            p, lam, q = a.p[:, active], a.lam[active], a.q[active]
        u = q @ x
        u *= lam[:, None]
        y = base + a.scale * (p @ u)
    return y if layer.bias is None else y + layer.bias[:, None]


def single_object_backward(layer, x, g, gamma):
    """Factor gradients by name and dL/dx of one adapted layer, as one
    adapter object computed them, base term included."""
    a = layer.adapter
    u = a.q @ x
    c = a.scale
    h = a.p.T @ g
    dlam = c * np.einsum("rb,rb->r", h, u)
    dp = c * (g @ (a.lam[:, None] * u).T)
    dq = c * ((a.lam[:, None] * h) @ x.T)
    if gamma > 0.0:
        rp, rq = a.ortho_regularizer_grad()
        dp += gamma * rp
        dq += gamma * rq
    dx = layer.base_w.T @ g + c * (a.q.T @ (a.lam[:, None] * h))
    return {f"{a.id}.p": dp, f"{a.id}.lam": dlam, f"{a.id}.q": dq}, dx


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


class TestSplitOwnershipBitwise:
    """The layer's base GEMM and the adapter's update, computed by their
    separate owners, round exactly as the single-object formulas did."""

    def random_layer(self, rng, adapter_id, d_out, d_in):
        r = int(rng.integers(1, 9))
        p, q = rng.standard_normal((d_out, r)), rng.standard_normal((r, d_in))
        if rng.random() < 0.5:
            p, q = np.asfortranarray(p), np.asfortranarray(q)
        lam = rng.standard_normal(r)
        live = rng.integers(3)  # every direction, some of them, or none
        if live == 1 and r > 1:
            lam[rng.permutation(r)[:rng.integers(1, r)]] = 0.0
        elif live == 2:
            lam[:] = 0.0
        a = SvdAdapter(adapter_id, p, lam, q, r_init=r, r_max=r, alpha=float(rng.uniform(1, 16)))
        bias = rng.standard_normal(d_out) if rng.random() < 0.5 else None
        return LinearLayer(rng.standard_normal((d_out, d_in)), bias=bias, adapter=a)

    def test_two_adapted_layers_over_random_shapes(self, rng):
        for _ in range(200):
            d0, d1, d2, batch = (int(v) for v in rng.integers(1, [48, 48, 48, 32]))
            first = self.random_layer(rng, "first", d1, d0)
            second = self.random_layer(rng, "second", d2, d1)
            model = ToyModel([first, second], "mse")
            x = rng.standard_normal((d0, batch))
            h = single_object_forward(first, x)
            y, caches = model.forward(x)
            assert_bits(caches[1]["input"], h)
            assert_bits(y, single_object_forward(second, h))

            g = rng.standard_normal((d2, batch))
            gamma = float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))
            want, dx = single_object_backward(second, h, g, gamma)
            want.update(single_object_backward(first, x, dx, gamma)[0])
            # The second layer's input gradient, as it reaches the first.
            seen = []
            backward = first.adapter.backward
            first.adapter.backward = lambda x, g, gamma, *rest, **kwargs: (
                seen.append(g), backward(x, g, gamma, *rest, **kwargs))[1]
            grads = model.backward(caches, g, gamma)
            assert_bits(seen[0], dx)
            for name, w in want.items():
                assert_bits(grads[name], w)

    @pytest.mark.parametrize("first_adapted", [True, False], ids=["adapted", "bare"])
    @pytest.mark.parametrize("act", [None, "tanh", "relu"])
    def test_activation_between_and_bare_first_layer(self, rng, act, first_adapted):
        for _ in range(100):
            d0, d1, d2, batch = (int(v) for v in rng.integers(1, [48, 48, 48, 32]))
            if first_adapted:
                first = self.random_layer(rng, "first", d1, d0)
            else:
                bias = rng.standard_normal(d1) if rng.random() < 0.5 else None
                first = LinearLayer(rng.standard_normal((d1, d0)), bias=bias)
            second = self.random_layer(rng, "second", d2, d1)
            mid = [ActivationLayer(act)] if act else []
            model = ToyModel([first, *mid, second], "mse")
            x = rng.standard_normal((d0, batch))
            if first_adapted:
                pre = single_object_forward(first, x)
            else:
                pre = first.base_w @ x
                pre = pre if first.bias is None else pre + first.bias[:, None]
            h = {None: pre, "tanh": np.tanh(pre), "relu": np.maximum(pre, 0.0)}[act]
            y, caches = model.forward(x)
            assert_bits(caches[-1]["input"], h)
            assert_bits(y, single_object_forward(second, h))

            g = rng.standard_normal((d2, batch))
            gamma = float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))
            want, dx = single_object_backward(second, h, g, gamma)
            if act == "tanh":
                dx = (1.0 - h ** 2) * dx
            elif act == "relu":
                dx = (pre > 0.0) * dx
            if first_adapted:
                want.update(single_object_backward(first, x, dx, gamma)[0])
            for i, layer in ((0, first), (len(mid) + 1, second)):
                if layer.bias is not None:
                    want[f"layer{i}.bias"] = (g if layer is second else dx).sum(axis=1)
            grads = model.backward(caches, g, gamma)
            assert sorted(grads) == sorted(want)
            for name, w in want.items():
                assert_bits(grads[name], w)
