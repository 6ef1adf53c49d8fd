import math

import numpy as np
import pytest

from rankflex import training
from rankflex.adapter import InitStrategy
from rankflex.allocator import BudgetSchedule
from rankflex.checkpoint import checkpoint_lines
from rankflex.errors import ParameterError
from rankflex.importance import MetricKind
from rankflex.model import AdapterSpec, LayerSpec, ToyModel
from rankflex.tasks import SyntheticTask
from rankflex.trace import trace_lines, verify_trace
from rankflex.training import (
    OptimizerConfig,
    TrainConfig,
    metrics_csv_lines,
    run_training,
)


def make_config(**overrides):
    base = dict(
        name="unit",
        seed=7,
        layers=(
            LayerSpec("linear", d_in=10, d_out=8,
                      adapter=AdapterSpec("enc", 3, 6)),
            LayerSpec("tanh"),
            LayerSpec("linear", d_in=8, d_out=6,
                      adapter=AdapterSpec("dec", 3, 6)),
        ),
        loss="mse",
        task=SyntheticTask(kind="low_rank_teacher", input_dim=10,
                           sample_count=96, noise_std=0.05,
                           teacher_ranks=(5, 1)),
        optimizer=OptimizerConfig(lr=5e-3),
        schedule=BudgetSchedule(b0=1, t_warmup=50, t_final=50,
                                total_steps=400, delta_t=50),
        metric=MetricKind("spectral_entropy"),
        mode="bidirectional",
        batch_size=16,
        log_every=50,
    )
    base.update(overrides)
    return TrainConfig(**base)


def teacher_weights_equal(t1, t2):
    return all(np.array_equal(w1, w2) for (_, w1), (_, w2) in zip(t1.layers, t2.layers))


def wrap(monkeypatch, name, before=None, after=None):
    """Replace the ``training`` global ``name`` by a wrapper that calls
    ``before(*args)`` and ``after(result, *args)`` around the original."""
    original = getattr(training, name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        result = original(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result

    monkeypatch.setattr(training, name, wrapper)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            make_config(name="")
        with pytest.raises(ParameterError):
            make_config(mode="upward")
        with pytest.raises(ParameterError):
            make_config(regularizer_weight=-0.1)
        with pytest.raises(ParameterError):
            make_config(batch_size=0)
        with pytest.raises(ParameterError):
            make_config(log_every=0)

    def test_rejects_negative_seed_and_unknown_loss(self):
        with pytest.raises(ParameterError):
            make_config(seed=-1)
        with pytest.raises(ParameterError):
            make_config(loss="hinge")

    def test_orthogonal_expansion_needs_r_max_within_dims(self):
        # An expansion orthogonal to r_max - 1 directions needs r_max of them
        # in the 3-dimensional side of this adapter.
        def config(variant):
            return make_config(
                layers=(LayerSpec("linear", 4, 3, adapter=AdapterSpec("a", 2, 4)),
                        LayerSpec("tanh"), LayerSpec("linear", 3, 4)),
                task=SyntheticTask(kind="low_rank_teacher", input_dim=4,
                                   sample_count=16, teacher_ranks=(2,)),
                schedule=BudgetSchedule(1, 0, 0, 20, 1), mode="expand_only",
                init_strategy=InitStrategy(variant))

        for variant in ("orthogonal_init", "small_init"):
            with pytest.raises(ParameterError, match="r_max"):
                config(variant)
        result = run_training(config("zero_impact"))
        assert result.model.adapters()[0].rank == 4
        with pytest.raises(ParameterError):
            make_config(layers=())

    def test_task_input_dim_must_match_first_layer(self):
        task = SyntheticTask(kind="low_rank_teacher", input_dim=8,
                             sample_count=96, teacher_ranks=(5, 1))
        with pytest.raises(ParameterError, match="task.input_dim 8 .* d_in 10"):
            make_config(task=task)

    def test_optimizer_config_validates_on_construction(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(lr=-1.0)

    def test_fingerprint_is_stable_and_sensitive(self):
        assert make_config().fingerprint() == make_config().fingerprint()
        assert make_config(seed=8).fingerprint() != make_config().fingerprint()
        assert len(make_config().fingerprint()) == 64


class TestDeterminism:
    def test_two_runs_produce_identical_artifacts(self):
        r1 = run_training(make_config())
        r2 = run_training(make_config())
        assert trace_lines(r1.header, r1.events) == \
            trace_lines(r2.header, r2.events)
        assert metrics_csv_lines(r1.header, r1.metrics) == \
            metrics_csv_lines(r2.header, r2.metrics)
        assert checkpoint_lines(r1.model) == checkpoint_lines(r2.model)
        assert r1.final_loss == r2.final_loss
        assert teacher_weights_equal(r1.teacher, r2.teacher)

    def test_seed_changes_everything(self):
        r1 = run_training(make_config())
        r2 = run_training(make_config(seed=8))
        assert not teacher_weights_equal(r1.teacher, r2.teacher)
        assert checkpoint_lines(r1.model) != checkpoint_lines(r2.model)


class TestTraceIntegrity:
    def test_header_reflects_config_and_model(self):
        config = make_config()
        result = run_training(config)
        h = result.header
        assert h["type"] == "header"
        assert h["config_hash"] == config.fingerprint()
        assert h["mode"] == "bidirectional"
        assert h["metric"] == "spectral_entropy"
        assert h["schedule"]["total_steps"] == 400
        assert h["adapters"] == [
            {"id": "enc", "r_init": 3, "r_max": 6, "depth": 0},
            {"id": "dec", "r_init": 3, "r_max": 6, "depth": 2},
        ]

    def test_trace_replays_clean(self):
        result = run_training(make_config())
        assert verify_trace(result.header, result.events) == []

    def test_events_only_at_budgeted_allocation_steps(self):
        config = make_config()
        result = run_training(config)
        sched = config.schedule
        for e in result.events:
            assert sched.is_allocation_step(e.step)
            assert sched.budget(e.step) > 0


class TestModes:
    def test_bidirectional_conserves_total_rank(self):
        result = run_training(make_config())
        assert result.events, "expected at least one allocation"
        for row in result.metrics:
            assert row["total_rank"] == 6
            assert row["rank_enc"] + row["rank_dec"] == 6

    def test_prune_only_monotone_non_increasing(self):
        result = run_training(make_config(mode="prune_only"))
        totals = [row["total_rank"] for row in result.metrics]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]
        assert all(e.action == "prune" for e in result.events)

    def test_expand_only_monotone_non_decreasing(self):
        result = run_training(make_config(mode="expand_only"))
        totals = [row["total_rank"] for row in result.metrics]
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        assert totals[-1] > totals[0]
        assert all(e.action == "expand" for e in result.events)

    def test_degenerate_schedule_never_allocates(self):
        sched = BudgetSchedule(b0=4, t_warmup=200, t_final=200,
                               total_steps=300, delta_t=10)
        result = run_training(make_config(schedule=sched))
        assert result.events == []
        assert result.metrics[-1]["total_rank"] == 6


class TestTrainingProgress:
    def test_loss_decreases_on_learnable_task(self):
        task = SyntheticTask(kind="low_rank_teacher", input_dim=10,
                             sample_count=96, noise_std=0.0,
                             teacher_ranks=(3, 2))
        sched = BudgetSchedule(b0=1, t_warmup=50, t_final=50,
                               total_steps=1500, delta_t=50)
        result = run_training(make_config(task=task, schedule=sched))
        assert result.metrics[-1]["loss"] < 0.1 * result.metrics[0]["loss"]

    def test_blob_classifier_trains(self):
        task = SyntheticTask(kind="two_blobs", input_dim=10, sample_count=96,
                             blob_separation=5.0)
        layers = (
            LayerSpec("linear", d_in=10, d_out=8,
                      adapter=AdapterSpec("enc", 3, 6)),
            LayerSpec("tanh"),
            LayerSpec("linear", d_in=8, d_out=2,
                      adapter=AdapterSpec("dec", 3, 6)),
        )
        result = run_training(make_config(task=task, layers=layers,
                                          loss="softmax_ce"))
        assert result.teacher is None
        assert result.metrics[-1]["loss"] < result.metrics[0]["loss"]

    def test_sensitivity_metric_runs(self, monkeypatch):
        reports = []
        wrap(monkeypatch, "score_all", after=lambda report, *_: reports.append(report))
        result = run_training(make_config(metric=MetricKind("sensitivity")))
        assert not result.diverged
        assert reports, "expected scored allocation passes"
        for rep in reports:
            assert set(rep.scores) == {"enc", "dec"}
            assert all(s >= 0.0 for s in rep.scores.values())


class TestAllocationInVivo:
    def test_zero_impact_expansion_is_bitwise_invariant_in_vivo(self, monkeypatch):
        probe = np.random.default_rng(123).standard_normal((10, 5))
        models, before, same = [], [], []

        def compare(events, *_):
            if events:
                same.append(np.array_equal(before.pop(), models[0].forward(probe)[0]))

        wrap(monkeypatch, "build_model", after=lambda model, *_: models.append(model))
        wrap(monkeypatch, "apply_allocation",
             before=lambda *_: before.append(models[0].forward(probe)[0]), after=compare)
        run_training(make_config(mode="expand_only",
                                 init_strategy=InitStrategy("zero_impact")))
        assert same and all(same)


class TestParameterCache:
    def test_params_collected_per_firing_not_per_step(self, monkeypatch):
        calls = []
        original = ToyModel.trainable_params

        def counting(model):
            calls.append(1)
            return original(model)

        monkeypatch.setattr(ToyModel, "trainable_params", counting)
        config = make_config()
        result = run_training(config)
        sched = config.schedule
        firings = sum(1 for t in sched.allocation_steps() if sched.budget(t) > 0)
        assert firings > 0
        # One collection before the loop, one per firing, one per metrics
        # row (its param_count); none per step.
        assert len(calls) <= firings + len(result.metrics) + 1 < sched.total_steps

    def test_expanded_adapter_keeps_training(self, monkeypatch):
        # The factor arrays an expansion puts in place must be the ones the
        # optimizer updates until the next scored allocation step.
        pending, moved = [], []

        def check_pending(*_):
            moved.extend(not np.array_equal(live, before) for live, before in pending)
            pending.clear()

        def record_expanded(events, adapters, *_):
            by_id = {a.id: a for a in adapters}
            for event in events:
                if event.action == "expand":
                    a = by_id[event.adapter_id]
                    pending.extend((arr, arr.copy()) for arr in (a.p, a.lam, a.q))

        wrap(monkeypatch, "score_all", before=check_pending)
        wrap(monkeypatch, "apply_allocation", after=record_expanded)
        run_training(make_config(mode="expand_only"))
        assert moved and all(moved)


class TestDivergence:
    def test_divergence_returns_partial_result(self):
        config = make_config(optimizer=OptimizerConfig(lr=1000.0),
                             task=SyntheticTask(kind="low_rank_teacher",
                                                input_dim=10, sample_count=96,
                                                teacher_ranks=(5, 1),
                                                teacher_scale=3.0))
        result = run_training(config)
        assert result.diverged
        abort = result.abort
        assert abort["type"] == "abort"
        assert abort["reason"] == "divergence"
        assert abort["step"] >= 1
        # The run stops at the diverging step: no later row or event.
        assert result.final_loss == abort["loss"]
        assert result.metrics and all(row["step"] < abort["step"] for row in result.metrics)
        assert all(e.step < abort["step"] for e in result.events)
        assert verify_trace(result.header, result.events, abort) == []


class TestMetricsCsv:
    def test_rows_and_columns(self):
        config = make_config()
        result = run_training(config)
        lines = metrics_csv_lines(result.header, result.metrics)
        assert lines[0] == "step,loss,total_rank,param_count,rank_enc,rank_dec"
        assert len(lines) == len(result.metrics) + 1
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        expect = [t for t in range(400) if t % 50 == 0] + [399]
        assert steps == expect
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[1]) == float(cells[1])  # parses, not NaN
            total, enc, dec = int(cells[2]), int(cells[4]), int(cells[5])
            assert total == enc + dec

    def test_param_count_tracks_rank_changes(self):
        result = run_training(make_config(mode="expand_only"))
        first, last = result.metrics[0], result.metrics[-1]
        # d_out + 1 + d_in parameters per direction.
        def expected(row):
            return (row["rank_enc"] * (8 + 1 + 10)
                    + row["rank_dec"] * (6 + 1 + 8)
                    + 8 + 6)
        assert first["param_count"] == expected(first)
        assert last["param_count"] == expected(last)
        assert last["param_count"] > first["param_count"]
