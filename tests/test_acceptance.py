"""Behavioral acceptance gate: ten guarantees, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; without
-s the same assertions still enforce the gate. Tests run in file order and
criterion 10 re-checks the traces produced by criteria 8 and 9.

A criterion's runtime limit covers everything inside its timed block,
reference oracles included. The 50-digit oracle of criterion 2 dominates its
time: mpmath runs on its pure-Python backend unless gmpy2 is installed.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import oracles
from rankflex.adapter import InitStrategy, SvdAdapter
from rankflex.allocator import BudgetSchedule, apply_allocation, select_candidates
from rankflex.checkpoint import checkpoint_lines
from rankflex.importance import (
    MetricKind,
    elem_energy_entropy,
    energy_distribution,
    frobenius_mean,
    mat_energy_entropy,
    nuclear_mean,
    spectral_entropy,
)
from rankflex.model import AdapterSpec, LayerSpec, LinearLayer, build_model, mse_loss
from rankflex.optim import OptimizerConfig
from rankflex.tasks import SyntheticTask, sample_regression
from rankflex.trace import heatmap_csv_lines, read_trace, trace_lines, verify_trace
from rankflex.training import TrainConfig, run_training


@contextmanager
def verdict(num, label, limit):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        word = "PASS" if ok and dt <= limit else "FAIL"
        print(f"[{word}] criterion {num}: {label} ({dt:.2f}s, limit {limit:g}s)")
    assert dt <= limit, f"criterion {num} runtime {dt:.2f}s exceeds {limit}s"


# Traces collected by criteria 8 and 9 for criterion 10 to re-verify:
# entries are (name, header, events, final ranks by adapter id).
COLLECTED_RUNS = []


def test_criterion_1_entropy_normalization():
    with verdict(1, "entropy normalization", 1.0):
        rng = np.random.default_rng(11)
        for r in (2, 4, 8, 16, 64):
            uniform = np.full(r, 3.7)
            assert abs(spectral_entropy(uniform) - 1.0) <= 1e-9
            spike = np.zeros(r)
            spike[0] = 2.5
            assert spectral_entropy(spike, epsilon=1e-12) <= 1e-6
            for _ in range(1000):
                lam = rng.standard_normal(r) * 10.0 ** rng.integers(-3, 4)
                h = spectral_entropy(lam)
                assert 0.0 <= h <= 1.0 + 1e-9


def test_criterion_2_oracle_equivalence():
    with verdict(2, "five metrics vs extended-precision oracle", 1.0):
        rng = np.random.default_rng(23)
        impls = (spectral_entropy, nuclear_mean, frobenius_mean,
                 elem_energy_entropy, mat_energy_entropy)
        for _ in range(1000):
            lam = rng.standard_normal(int(rng.integers(2, 13)))
            lam *= 10.0 ** int(rng.integers(-2, 3))
            for impl, ref in zip(impls, oracles.mp_all_metrics(lam)):
                assert abs(impl(lam) - float(ref)) <= 1e-10


def test_criterion_3_share_order_matches_magnitude_order():
    with verdict(3, "energy-share order equals |lam| order", 1.0):
        rng = np.random.default_rng(31)
        done = 0
        while done < 1000:
            r = int(rng.integers(2, 17))
            lam = rng.uniform(0.05, 10.0, r) * rng.choice((-1.0, 1.0), r)
            energies = np.sort(lam * lam)
            if np.min(np.diff(energies)) <= 1e-9 * energies[-1]:
                continue  # resample near-ties; ordering is undefined there
            s = energy_distribution(lam)
            assert int(np.argmin(s)) == int(np.argmin(np.abs(lam)))
            assert np.array_equal(np.argsort(s), np.argsort(lam * lam))
            done += 1


def test_criterion_4_zero_impact_expansion_is_bitwise_invisible():
    with verdict(4, "zero-impact expansion leaves outputs bitwise equal", 5.0):
        rng = np.random.default_rng(47)
        for _ in range(100):
            d_out = int(rng.integers(2, 10))
            d_in = int(rng.integers(2, 10))
            r_max = int(min(d_out, d_in))
            r_init = int(rng.integers(1, r_max + 1))
            base = rng.standard_normal((d_out, d_in))
            adapter = SvdAdapter.create(
                "probe", d_out, d_in,
                r_init=r_init, r_max=r_max + 1, alpha=8.0, rng=rng)
            layer = LinearLayer(base, adapter=adapter)
            # Mixed live and dead directions exercise the masked path.
            adapter.lam[:] = rng.standard_normal(r_init)
            if r_init > 1 and rng.random() < 0.5:
                adapter.lam[int(rng.integers(r_init))] = 0.0
            x = rng.standard_normal((d_in, 100))
            before = layer.forward(x).tobytes()
            adapter.expand_rank(InitStrategy("zero_impact"), rng)
            after = layer.forward(x).tobytes()
            assert before == after


def _random_model_spec(rng):
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    specs = []
    adapters = 0
    for i in range(depth):
        adapter = None
        if rng.random() < 0.8:
            r_max = int(min(dims[i], dims[i + 1]))
            r_init = int(rng.integers(1, r_max + 1))
            adapter = AdapterSpec(f"a{adapters}", r_init, r_max,
                                  float(rng.uniform(2.0, 16.0)))
            adapters += 1
        specs.append(LayerSpec("linear", dims[i], dims[i + 1],
                               bias=bool(rng.random() < 0.8), adapter=adapter))
        if i < depth - 1:
            specs.append(LayerSpec("tanh"))
    return specs


def test_criterion_5_gradients_match_finite_differences():
    with verdict(5, "model gradients incl. gamma=0.1 regularizer vs FD", 30.0):
        rng = np.random.default_rng(59)
        gamma = 0.1
        for _ in range(50):
            model = build_model(_random_model_spec(rng), "mse", rng)
            d_in = model.layers[0].d_in
            d_out = model.layers[-1].d_out if isinstance(
                model.layers[-1], LinearLayer) else model.layers[-2].d_out
            x = rng.standard_normal((d_in, 3))
            targets = rng.standard_normal((d_out, 3))
            # Live lambdas so the P/Q gradients are not trivially zero.
            for layer in model.layers:
                if isinstance(layer, LinearLayer) and layer.adapter is not None:
                    layer.adapter.lam[:] = rng.standard_normal(
                        layer.adapter.rank) * 0.5

            y, caches = model.forward(x)
            _, dy = model.loss_and_grad(y, targets)
            analytic = model.backward(caches, dy, gamma=gamma)

            def objective():
                out, _ = model.forward(x)
                base = model.loss_and_grad(out, targets)[0]
                reg = sum(l.adapter.ortho_regularizer()
                          for l in model.layers
                          if isinstance(l, LinearLayer) and l.adapter is not None)
                return base + gamma * reg

            params = model.trainable_params()
            for name, grad in analytic.items():
                numeric = oracles.central_diff(objective, [params[name]])[0]
                close, worst = oracles.grad_close(grad, numeric,
                                                  rel=1e-5, abs_floor=1e-10)
                assert close, f"{name}: worst excess {worst:.3e}"


def _budget_restated(b0, t_warmup, t_final, total_steps, t):
    window_end = total_steps - t_final
    if t < t_warmup or t >= window_end:
        return 0
    frac = (t - t_warmup) / window_end
    raw = b0 * (1.0 - frac) ** 3
    return max(0, min(math.floor(raw + 0.5), b0))


def test_criterion_6_schedule_conformance():
    with verdict(6, "cubic budget schedule conformance, exhaustive", 1.0):
        schedules = (
            (4, 1000, 1000, 5000, 200),
            (2, 10, 10, 100, 5),
            (3, 0, 7, 60, 4),
        )
        for b0, warmup, final, total, delta in schedules:
            sched = BudgetSchedule(b0=b0, t_warmup=warmup, t_final=final,
                                   total_steps=total, delta_t=delta)
            assert sched.budget(warmup) == b0
            prev = None
            for t in range(total + 10):
                b = sched.budget(t)
                assert b == _budget_restated(b0, warmup, final, total, t)
                if t < warmup or t >= total - final:
                    assert b == 0
                else:
                    if prev is not None:
                        assert b <= prev
                    prev = b
        # The half case: raw budget is exactly 0.5 and must round away
        # from zero, not to even.
        paper = BudgetSchedule(b0=4, t_warmup=1000, t_final=1000,
                               total_steps=5000, delta_t=200)
        assert 4 * (1.0 - (3000 - 1000) / 4000) ** 3 == 0.5
        assert paper.budget(3000) == 1


def _fuzz_adapters(rng, count=6):
    adapters = []
    for i in range(count):
        d_out = int(rng.integers(5, 9))
        d_in = int(rng.integers(5, 9))
        r_max = int(rng.integers(2, min(d_out, d_in) + 1))
        r_init = int(rng.integers(1, r_max + 1))
        rng.standard_normal((d_out, d_in))  # a base draw, kept so the stream is unchanged
        a = SvdAdapter.create(f"f{i}", d_out, d_in,
                              r_init=r_init, r_max=r_max, alpha=4.0, rng=rng)
        a.lam[:] = rng.standard_normal(a.rank)
        adapters.append(a)
    return adapters


def test_criterion_7_budget_conservation_fuzz():
    with verdict(7, "10^4 fuzzed allocation steps conserve the budget", 10.0):
        rng = np.random.default_rng(71)
        strategy = InitStrategy("zero_impact")

        adapters = _fuzz_adapters(rng)
        total = sum(a.rank for a in adapters)
        for step in range(10_000):
            report = {a.id: float(rng.random()) for a in adapters}
            b = int(rng.integers(0, 5))
            prune, expand = select_candidates(report, adapters, b, "bidirectional")
            apply_allocation(adapters, prune, expand, strategy, rng, step=step)
            assert sum(a.rank for a in adapters) == total
            assert all(1 <= a.rank <= a.r_max for a in adapters)

        for mode, sign in (("prune_only", -1), ("expand_only", 1)):
            adapters = _fuzz_adapters(rng)
            prev = sum(a.rank for a in adapters)
            for step in range(1000):
                report = {a.id: float(rng.random()) for a in adapters}
                b = int(rng.integers(0, 5))
                prune, expand = select_candidates(report, adapters, b, mode)
                apply_allocation(adapters, prune, expand, strategy, rng,
                                 step=step)
                now = sum(a.rank for a in adapters)
                assert sign * (now - prev) >= 0
                assert all(1 <= a.rank <= a.r_max for a in adapters)
                prev = now


def _determinism_config():
    layers = (
        LayerSpec("linear", 10, 8, adapter=AdapterSpec("enc", 3, 6)),
        LayerSpec("tanh"),
        LayerSpec("linear", 8, 6, adapter=AdapterSpec("dec", 3, 6)),
    )
    task = SyntheticTask(kind="low_rank_teacher", input_dim=10,
                         sample_count=64, noise_std=0.05,
                         teacher_ranks=(5, 1))
    return TrainConfig(
        name="determinism", seed=2024, layers=layers, loss="mse", task=task,
        optimizer=OptimizerConfig(lr=5e-3),
        schedule=BudgetSchedule(b0=1, t_warmup=50, t_final=50,
                                total_steps=400, delta_t=50),
        metric=MetricKind("spectral_entropy"), batch_size=16, log_every=50)


def _artifact_bytes(result):
    from rankflex.training import metrics_csv_lines
    trace = "\n".join(trace_lines(result.header, result.events)).encode()
    metrics = "\n".join(metrics_csv_lines(result.header,
                                          result.metrics)).encode()
    checkpoint = "\n".join(checkpoint_lines(result.model)).encode()
    return trace, metrics, checkpoint


def test_criterion_8_reruns_are_byte_identical():
    with verdict(8, "identical config+seed gives byte-identical artifacts", 60.0):
        config = _determinism_config()
        first = run_training(config)
        second = run_training(config)
        assert first.events, "expected at least one allocation event"
        for a, b in zip(_artifact_bytes(first), _artifact_bytes(second)):
            assert a == b
        COLLECTED_RUNS.append(
            ("determinism", first.header, first.events,
             {ad.id: ad.rank for ad in first.model.adapters()}))


def _allocation_config(seed, mode):
    layers = (
        LayerSpec("linear", 16, 16, adapter=AdapterSpec("hi", 7, 14, 16.0)),
        LayerSpec("tanh"),
        LayerSpec("linear", 16, 16, adapter=AdapterSpec("lo", 7, 14, 16.0)),
    )
    task = SyntheticTask(kind="low_rank_teacher", input_dim=16,
                         sample_count=48, noise_std=0.1,
                         teacher_ranks=(12, 2))
    return TrainConfig(
        name="crit9", seed=seed, layers=layers, loss="mse", task=task,
        optimizer=OptimizerConfig(lr=1e-2),
        schedule=BudgetSchedule(b0=1, t_warmup=400, t_final=100,
                                total_steps=3000, delta_t=25),
        metric=MetricKind("spectral_entropy"), mode=mode, batch_size=16)


def _holdout_loss(result, task):
    rng = np.random.default_rng(987654321)
    x, targets = sample_regression(result.teacher, task, rng, sample_count=4096,
                                   noise_std=0.0)
    y, _ = result.model.forward(x)
    return mse_loss(y, targets)[0]


def test_criterion_9_ranks_follow_intrinsic_rank():
    with verdict(9, "rank flows to the high-rank layer and helps the loss",
                 120.0):
        seeds = (1, 2, 3, 4, 5)
        losses = {"bidirectional": [], "prune_only": [], "expand_only": []}
        rank_wins = 0
        for seed in seeds:
            for mode in losses:
                config = _allocation_config(seed, mode)
                result = run_training(config)
                assert not result.diverged
                losses[mode].append(_holdout_loss(result, config.task))
                if mode == "bidirectional":
                    ranks = {a.id: a.rank for a in result.model.adapters()}
                    if ranks["hi"] > ranks["lo"]:
                        rank_wins += 1
                    COLLECTED_RUNS.append(
                        (f"alloc-seed{seed}", result.header, result.events,
                         ranks))
        assert rank_wins >= 4, f"only {rank_wins}/5 seeds ordered the ranks"
        medians = {m: float(np.median(v)) for m, v in losses.items()}
        assert medians["bidirectional"] <= medians["prune_only"], medians
        assert medians["bidirectional"] <= medians["expand_only"], medians


def test_criterion_10_heatmap_matches_independent_replay(tmp_path):
    with verdict(10, "heatmap export equals independent trace replay", 5.0):
        runs = COLLECTED_RUNS or [("fallback",
                                   *_collect_fallback_run())]
        for name, header, events, final_ranks in runs:
            path = tmp_path / f"{name}.jsonl"
            path.write_text("\n".join(trace_lines(header, events)) + "\n")
            parsed_header, parsed_events, abort = read_trace(path)
            assert abort is None
            assert verify_trace(parsed_header, parsed_events) == []
            exported = heatmap_csv_lines(parsed_header, parsed_events)
            replay_header, replay_lines, replay_ranks = (
                oracles.replay_trace_file(path))
            assert exported == replay_lines
            assert replay_ranks == final_ranks
            for line in exported[1:]:
                cells = line.split(",")
                assert int(cells[-1]) == final_ranks[cells[0]]


def _collect_fallback_run():
    result = run_training(_determinism_config())
    return (result.header, result.events,
            {a.id: a.rank for a in result.model.adapters()})
