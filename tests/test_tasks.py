import numpy as np
import pytest

from rankflex import linalg
from rankflex.adapter import SvdAdapter
from rankflex.errors import ParameterError, ShapeError
from rankflex.model import (
    AdapterSpec,
    LayerSpec,
    LinearLayer,
    ToyModel,
    build_model,
)
from rankflex.tasks import (
    SyntheticTask,
    build_teacher,
    sample_blobs,
    sample_regression,
)


def adapted_model(seed=40, d=10, hidden=8, out=6, ranks=(3, 5), caps=(6, 6)):
    specs = [
        LayerSpec("linear", d_in=d, d_out=hidden,
                  adapter=AdapterSpec("enc", ranks[0], caps[0])),
        LayerSpec("tanh"),
        LayerSpec("linear", d_in=hidden, d_out=out,
                  adapter=AdapterSpec("dec", ranks[1], caps[1])),
    ]
    return build_model(specs, "mse", np.random.default_rng(seed))


def delta(teacher, model, depth):
    """The teacher's additive update at ``depth`` over the student's base."""
    return teacher.layers[depth][1] - model.layers[depth].base_w


def teacher_task(ranks=(2, 3), n=64, noise=0.0, scale=1.0, d=10):
    return SyntheticTask(kind="low_rank_teacher", input_dim=d, sample_count=n,
                         noise_std=noise, teacher_ranks=ranks,
                         teacher_scale=scale)


class TestTaskValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            SyntheticTask(kind="mystery", input_dim=4, sample_count=8)

    def test_positive_dims(self):
        with pytest.raises(ParameterError):
            SyntheticTask(kind="two_blobs", input_dim=0, sample_count=8)
        with pytest.raises(ParameterError):
            SyntheticTask(kind="two_blobs", input_dim=4, sample_count=0)

    def test_teacher_needs_ranks(self):
        with pytest.raises(ParameterError):
            SyntheticTask(kind="low_rank_teacher", input_dim=4, sample_count=8)
        with pytest.raises(ParameterError):
            SyntheticTask(kind="low_rank_teacher", input_dim=4, sample_count=8,
                          teacher_ranks=(0,))

    def test_nonnegative_noise(self):
        with pytest.raises(ParameterError):
            SyntheticTask(kind="two_blobs", input_dim=4, sample_count=8,
                          noise_std=-0.1)

    def test_blob_separation_positive(self):
        with pytest.raises(ParameterError):
            SyntheticTask(kind="two_blobs", input_dim=4, sample_count=8,
                          blob_separation=0.0)

    def test_shared_fields_checked_for_every_kind(self):
        for extra in ({"teacher_ranks": (0,)}, {"teacher_scale": 0.0},
                      {"blob_separation": -1.0}):
            for kind, ranks in (("two_blobs", ()), ("low_rank_teacher", (2,))):
                with pytest.raises(ParameterError):
                    SyntheticTask(kind=kind, input_dim=4, sample_count=8,
                                  **{"teacher_ranks": ranks, **extra})


class TestBuildTeacher:
    def test_deltas_have_exact_rank(self):
        model = adapted_model()
        teacher = build_teacher(model, teacher_task(ranks=(2, 3)),
                                np.random.default_rng(41))
        for depth, k in ((0, 2), (2, 3)):
            sv = np.linalg.svd(delta(teacher, model, depth), compute_uv=False)
            assert np.sum(sv > 1e-10) == k

    def test_teacher_weights_are_base_plus_delta(self):
        model = adapted_model()
        teacher = build_teacher(model, teacher_task(), np.random.default_rng(42))
        # Replay the factor draws: per adapted layer in depth order, the
        # d_out-side factor, then the d_in side.
        rng = np.random.default_rng(42)
        for depth, k in ((0, 2), (2, 3)):
            base = model.layers[depth].base_w
            u = linalg.orthonormal_columns(base.shape[0], k, rng)
            v = linalg.orthonormal_columns(base.shape[1], k, rng)
            expect = base + (1.0 / np.sqrt(k)) * (u @ v.T)
            assert np.array_equal(teacher.layers[depth][1], expect)
        assert teacher.layers[1] == ("tanh", None)

    def test_delta_scale_tracks_teacher_scale(self):
        model = adapted_model()
        t1 = build_teacher(model, teacher_task(scale=1.0), np.random.default_rng(43))
        t2 = build_teacher(model, teacher_task(scale=2.5), np.random.default_rng(43))
        for depth in (0, 2):
            assert np.allclose(delta(t2, model, depth), 2.5 * delta(t1, model, depth))

    def test_rank_exceeding_dims_rejected(self):
        model = adapted_model()
        with pytest.raises(ParameterError, match=r"task.teacher_ranks\[1\] 7 exceeds"):
            build_teacher(model, teacher_task(ranks=(2, 7)), np.random.default_rng(44))

    def test_rank_count_must_match_adapted_layers(self):
        model = adapted_model()
        with pytest.raises(ParameterError, match="task.teacher_ranks has 1 ranks for 2"):
            build_teacher(model, teacher_task(ranks=(2,)), np.random.default_rng(45))

    def test_wrong_kind_rejected(self):
        model = adapted_model()
        task = SyntheticTask(kind="two_blobs", input_dim=10, sample_count=8)
        with pytest.raises(ParameterError):
            build_teacher(model, task, np.random.default_rng(46))

    def test_deterministic(self):
        model = adapted_model()
        a = build_teacher(model, teacher_task(), np.random.default_rng(47))
        b = build_teacher(model, teacher_task(), np.random.default_rng(47))
        for depth in (0, 2):
            assert np.array_equal(a.layers[depth][1], b.layers[depth][1])


    def test_teacher_input_must_be_2d(self):
        teacher = build_teacher(adapted_model(), teacher_task(), np.random.default_rng(48))
        with pytest.raises(ShapeError, match="^input batch must be 2-D$"):
            teacher.forward(np.ones(10))


class TestSampling:
    def test_regression_shapes_and_determinism(self):
        model = adapted_model()
        task = teacher_task(n=32)
        teacher = build_teacher(model, task, np.random.default_rng(50))
        x1, y1 = sample_regression(teacher, task, np.random.default_rng(51))
        x2, y2 = sample_regression(teacher, task, np.random.default_rng(51))
        assert x1.shape == (10, 32)
        assert y1.shape == (6, 32)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)

    def test_noiseless_targets_equal_teacher_forward(self):
        model = adapted_model()
        task = teacher_task(noise=0.0)
        teacher = build_teacher(model, task, np.random.default_rng(52))
        x, y = sample_regression(teacher, task, np.random.default_rng(53))
        assert np.array_equal(y, teacher.forward(x))

    def test_noise_perturbs_targets(self):
        model = adapted_model()
        task = teacher_task(noise=0.1)
        teacher = build_teacher(model, task, np.random.default_rng(54))
        x, y = sample_regression(teacher, task, np.random.default_rng(55))
        resid = y - teacher.forward(x)
        assert 0.05 < float(resid.std()) < 0.2

    def test_eval_overrides(self):
        model = adapted_model()
        task = teacher_task(n=32, noise=0.5)
        teacher = build_teacher(model, task, np.random.default_rng(56))
        x, y = sample_regression(teacher, task, np.random.default_rng(57),
                                 sample_count=200, noise_std=0.0)
        assert x.shape == (10, 200)
        assert np.array_equal(y, teacher.forward(x))
        with pytest.raises(ParameterError):
            sample_regression(teacher, task, np.random.default_rng(58), sample_count=0)
        with pytest.raises(ParameterError):
            sample_regression(teacher, task, np.random.default_rng(58), noise_std=-1.0)

    def test_blobs_shapes_and_separability(self):
        task = SyntheticTask(kind="two_blobs", input_dim=6, sample_count=400,
                             blob_separation=6.0)
        x, labels = sample_blobs(task, np.random.default_rng(59))
        assert x.shape == (6, 400)
        assert labels.shape == (400,)
        assert labels.dtype == np.int64
        assert set(np.unique(labels)) <= {0, 1}
        # Means along the separating direction differ by about the separation.
        mean0 = x[:, labels == 0].mean(axis=1)
        mean1 = x[:, labels == 1].mean(axis=1)
        gap = float(np.linalg.norm(mean1 - mean0))
        assert 4.5 < gap < 7.5

class TestClosableGap:
    def test_matched_student_attains_zero_loss(self):
        """A student whose adapters encode the teacher SVD exactly closes the
        gap, confirming ranks pair with layers in depth order."""
        model = adapted_model(ranks=(2, 3), caps=(6, 6))
        task = teacher_task(ranks=(2, 3), n=50, noise=0.0)
        teacher = build_teacher(model, task, np.random.default_rng(63))
        layers = []
        for depth, layer in enumerate(model.layers):
            if not isinstance(layer, LinearLayer):
                layers.append(layer)
                continue
            d = delta(teacher, model, depth)
            k = np.linalg.matrix_rank(d, tol=1e-10)
            u, s, vt = np.linalg.svd(d)
            a = SvdAdapter(f"m{depth}", u[:, :k],
                           s[:k] * (k / 16.0), vt[:k, :],
                           r_init=k, r_max=k + 1, alpha=16.0)
            layers.append(LinearLayer(layer.base_w, bias=layer.bias, adapter=a))
        student = ToyModel(layers, "mse")
        x, targets = sample_regression(teacher, task, np.random.default_rng(64))
        y, _ = student.forward(x)
        assert float(np.max(np.abs(y - targets))) < 1e-10

    def test_underranked_student_cannot_close_gap(self):
        model = adapted_model(ranks=(2, 3), caps=(6, 6))
        task = teacher_task(ranks=(5, 5), n=50, noise=0.0)
        teacher = build_teacher(model, task, np.random.default_rng(65))
        layers = []
        for depth, layer in enumerate(model.layers):
            if not isinstance(layer, LinearLayer):
                layers.append(layer)
                continue
            u, s, vt = np.linalg.svd(delta(teacher, model, depth))
            k = 2  # best rank-2 approximation of a rank-5 delta
            a = SvdAdapter(f"m{depth}", u[:, :k],
                           s[:k] * (k / 16.0), vt[:k, :],
                           r_init=k, r_max=k + 1, alpha=16.0)
            layers.append(LinearLayer(layer.base_w, bias=layer.bias, adapter=a))
        student = ToyModel(layers, "mse")
        x, targets = sample_regression(teacher, task, np.random.default_rng(66))
        y, _ = student.forward(x)
        assert float(np.mean((y - targets) ** 2)) > 1e-4
