import math

import numpy as np
import pytest

from rankflex.allocator import AllocationEvent
from rankflex.errors import ParameterError, ShapeError
from rankflex.optim import AdamW, OptimizerConfig


def manual_adamw(p0, grads_by_step, lr, b1, b2, eps, wd, decay=True):
    """Scalar transcript of the update rule, kept deliberately naive."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads_by_step, start=1):
        if decay and wd > 0.0:
            p -= lr * wd * p
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


class TestValidation:
    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(lr=0.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(beta2=-0.1)
        with pytest.raises(ParameterError):
            OptimizerConfig(eps=0.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(weight_decay=-1e-3)

    def test_missing_gradient(self):
        opt = AdamW(OptimizerConfig(), {"w": np.zeros(2)})
        with pytest.raises(ParameterError):
            opt.step({})

    def test_grad_shape_mismatch(self):
        opt = AdamW(OptimizerConfig(), {"w": np.zeros(2)})
        with pytest.raises(ShapeError):
            opt.step({"w": np.zeros(3)})

    def test_state_shape_desync_detected(self):
        # A surgery that was never synced leaves the bound array at its old
        # shape, so the new gradient's shape is refused.
        opt = AdamW(OptimizerConfig(), {"w": np.zeros(3)})
        opt.step({"w": np.ones(3)})
        with pytest.raises(ShapeError):
            opt.step({"w": np.ones(4)})

    def test_sync_refuses_arrays_contradicting_the_events(self):
        params = {"a.p": np.zeros((4, 3))}
        opt = AdamW(OptimizerConfig(), params)
        opt.step({"a.p": np.ones((4, 3))})
        with pytest.raises(ShapeError):
            opt.sync_rank_change([rank_event("prune", 1)], axes(), params)
        with pytest.raises(ShapeError):
            opt.sync_rank_change([rank_event("expand", 3)], axes(), {"a.p": np.zeros((4, 2))})

    def test_sync_refuses_a_changed_name_set(self):
        opt = AdamW(OptimizerConfig(), {"a.p": np.zeros((4, 3)), "b": np.zeros(2)})
        with pytest.raises(ParameterError):
            opt.sync_rank_change([], axes(), {"a.p": np.zeros((4, 3))})
        with pytest.raises(ParameterError):
            opt.sync_rank_change([], axes(), {"a.p": np.zeros((4, 3)), "c": np.zeros(2)})


class TestStep:
    def test_single_step_matches_manual(self):
        w = np.array([1.0, -2.0])
        g = np.array([0.5, 0.1])
        opt = AdamW(OptimizerConfig(lr=0.1), {"w": w})
        opt.step({"w": g})
        expect = [manual_adamw(p0, [gi], 0.1, 0.9, 0.999, 1e-8, 0.0)
                  for p0, gi in ((1.0, 0.5), (-2.0, 0.1))]
        assert w == pytest.approx(np.array(expect), abs=1e-15)

    def test_three_steps_match_manual(self):
        w = np.array([0.7])
        gs = [0.3, -0.2, 0.05]
        opt = AdamW(OptimizerConfig(lr=0.05, weight_decay=0.01), {"w": w})
        for g in gs:
            opt.step({"w": np.array([g])})
        assert w[0] == pytest.approx(
            manual_adamw(0.7, gs, 0.05, 0.9, 0.999, 1e-8, 0.01), abs=1e-14)

    def test_zero_grad_leaves_param_untouched(self):
        w = np.array([2.0, -3.0])
        before = w.copy()
        opt = AdamW(OptimizerConfig(lr=0.5), {"w": w})
        for _ in range(5):
            opt.step({"w": np.zeros(2)})
        assert np.array_equal(w, before)

    def test_decay_is_decoupled(self):
        # Zero gradient, nonzero decay: the update is exactly multiplicative.
        w = np.array([4.0])
        opt = AdamW(OptimizerConfig(lr=1.0, weight_decay=0.01), {"w": w})
        opt.step({"w": np.zeros(1)})
        assert w[0] == 4.0 * 0.99

    def test_decay_applied_before_moments(self):
        # Order matters: decay-first shrinks the parameter before the moment
        # update subtracts, so the result differs from decay-last.
        w = np.array([1.0])
        opt = AdamW(OptimizerConfig(lr=0.1, weight_decay=0.5), {"w": w})
        opt.step({"w": np.array([1.0])})
        decay_first = manual_adamw(1.0, [1.0], 0.1, 0.9, 0.999, 1e-8, 0.5)
        assert w[0] == pytest.approx(decay_first, abs=1e-15)
        step_from_moments = 0.1 * 1.0 / (1.0 + 1e-8)
        decay_last = (1.0 - step_from_moments) * (1.0 - 0.1 * 0.5)
        assert abs(w[0] - decay_last) > 1e-3

    def test_no_decay_names_skip_decay(self):
        w = np.array([4.0])
        b = np.array([4.0])
        opt = AdamW(OptimizerConfig(lr=1.0, weight_decay=0.01), {"w": w, "bias": b},
                    no_decay=("bias",))
        opt.step({"w": np.zeros(1), "bias": np.zeros(1)})
        assert w[0] == 4.0 * 0.99
        assert b[0] == 4.0

    def test_constant_gradient_closed_form(self):
        # With constant g and no decay, each bias-corrected step moves by
        # exactly lr * g / (|g| + eps).
        w = np.array([10.0])
        g = np.array([0.25])
        n, lr = 50, 0.01
        opt = AdamW(OptimizerConfig(lr=lr), {"w": w})
        for _ in range(n):
            opt.step({"w": g})
        expect = 10.0 - n * lr * 0.25 / (0.25 + 1e-8)
        assert w[0] == pytest.approx(expect, rel=1e-12)

    def test_sign_symmetry(self):
        wp = np.array([1.0])
        wn = np.array([-1.0])
        opt_p = AdamW(OptimizerConfig(lr=0.1), {"w": wp})
        opt_n = AdamW(OptimizerConfig(lr=0.1), {"w": wn})
        for _ in range(4):
            opt_p.step({"w": np.array([0.3])})
            opt_n.step({"w": np.array([-0.3])})
        assert wp[0] == -wn[0]

    def test_no_parameters(self):
        # A model whose layers have neither bias nor adapter binds nothing.
        opt = AdamW(OptimizerConfig(weight_decay=0.01), {})
        opt.step({})
        opt.sync_rank_change([], {}, {})
        assert opt.t == 1 and opt.state == {}

    def test_state_accumulates_across_steps(self):
        w = np.array([0.0])
        opt = AdamW(OptimizerConfig(lr=0.1), {"w": w})
        opt.step({"w": np.array([1.0])})
        first = w[0]
        opt.step({"w": np.array([0.0])})
        # Momentum keeps moving the parameter after the gradient vanishes.
        assert w[0] < first < 0.0


def axes(adapter_id="a", names=("p",)):
    """Adapter id -> {name: direction axis} of its bound factors, with the
    axes SvdAdapter.factors gives them."""
    axis = {"p": 1, "lam": 0, "q": 0}
    return {adapter_id: {f"{adapter_id}.{n}": axis[n] for n in names}}


FACTORS = ("p", "lam", "q")


def rank_event(action, index, adapter_id="a", rank=3):
    """An event of adapter ``adapter_id`` at rank ``rank``; only ``action``,
    ``index`` and the adapter id reach the optimizer."""
    prune = action == "prune"
    return AllocationEvent(step=1, adapter_id=adapter_id, action=action,
                           rank_before=rank, rank_after=rank - 1 if prune else rank + 1, score=0.5,
                           detail=0.0 if prune else "zero_impact", index=index)


def resized(params, events, axes, rng):
    """``params`` with each event applied as the adapter applies it: a
    prune deletes the direction's slice, an expansion appends a new one."""
    params = dict(params)
    for event in events:
        for name, axis in axes[event.adapter_id].items():
            a = params[name]
            if event.action == "prune":
                params[name] = np.delete(a, event.index, axis=axis)
            else:
                fresh = rng.standard_normal(a.shape[:axis] + (1,) + a.shape[axis + 1:])
                params[name] = np.concatenate([a, fresh], axis=axis)
    return params


class TestSurgery:
    # Only "a.p" is bound here, and the axes name only it, so these tests
    # also check that the other names' state is left as it was (none).
    def make_stateful(self, rng):
        params = {"a.p": rng.standard_normal((4, 3))}
        opt = AdamW(OptimizerConfig(lr=0.01), params)
        for _ in range(3):
            opt.step({"a.p": rng.standard_normal((4, 3))})
        return params, opt

    def test_prune_matches_npdelete(self, rng):
        params, opt = self.make_stateful(rng)
        m0 = opt.state["a.p"]["m"].copy()
        v0 = opt.state["a.p"]["v"].copy()
        events = [rank_event("prune", 1)]
        opt.sync_rank_change(events, axes(), resized(params, events, axes(), rng))
        assert set(opt.state) == {"a.p"}
        assert np.array_equal(opt.state["a.p"]["m"], np.delete(m0, 1, axis=1))
        assert np.array_equal(opt.state["a.p"]["v"], np.delete(v0, 1, axis=1))

    def test_expand_appends_zeros(self, rng):
        params, opt = self.make_stateful(rng)
        m0 = opt.state["a.p"]["m"].copy()
        events = [rank_event("expand", 3)]
        opt.sync_rank_change(events, axes(), resized(params, events, axes(), rng))
        m1 = opt.state["a.p"]["m"]
        assert m1.shape == (4, 4)
        assert np.array_equal(m1[:, :3], m0)
        assert not m1[:, 3].any()

    def test_sync_rank_change_prune(self, rng):
        arrays = {"a.p": rng.standard_normal((4, 3)),
                  "a.lam": rng.standard_normal(3),
                  "a.q": rng.standard_normal((3, 5))}
        opt = AdamW(OptimizerConfig(lr=0.01), arrays)
        grads = {k: rng.standard_normal(v.shape) for k, v in arrays.items()}
        opt.step(grads)
        saved = {k: opt.state[k]["m"].copy() for k in arrays}
        ev = AllocationEvent(step=1, adapter_id="a", action="prune",
                             rank_before=3, rank_after=2, score=0.5,
                             detail=0.0, index=1)
        ax = axes(names=FACTORS)
        opt.sync_rank_change([ev], ax, resized(arrays, [ev], ax, rng))
        assert np.array_equal(opt.state["a.p"]["m"],
                              np.delete(saved["a.p"], 1, axis=1))
        assert np.array_equal(opt.state["a.lam"]["m"],
                              np.delete(saved["a.lam"], 1))
        assert np.array_equal(opt.state["a.q"]["m"],
                              np.delete(saved["a.q"], 1, axis=0))

    def test_sync_rank_change_expand(self, rng):
        arrays = {"a.p": rng.standard_normal((4, 3)),
                  "a.lam": rng.standard_normal(3),
                  "a.q": rng.standard_normal((3, 5))}
        opt = AdamW(OptimizerConfig(lr=0.01), arrays)
        grads = {k: rng.standard_normal(v.shape) for k, v in arrays.items()}
        opt.step(grads)
        ev = AllocationEvent(step=1, adapter_id="a", action="expand",
                             rank_before=3, rank_after=4, score=0.5,
                             detail="zero_impact", index=3)
        ax = axes(names=FACTORS)
        opt.sync_rank_change([ev], ax, resized(arrays, [ev], ax, rng))
        assert opt.state["a.p"]["m"].shape == (4, 4)
        assert opt.state["a.lam"]["v"].shape == (4,)
        assert opt.state["a.q"]["m"].shape == (4, 5)

    def test_surviving_directions_keep_state_through_cycle(self, rng):
        # Prune then expand at the same width: untouched slices must carry
        # their accumulated moments across the surgery.
        params = {"a.p": rng.standard_normal((4, 3))}
        opt = AdamW(OptimizerConfig(lr=0.01), params)
        opt.step({"a.p": rng.standard_normal((4, 3))})
        kept = opt.state["a.p"]["m"][:, [0, 2]].copy()
        for events in ([rank_event("prune", 1)], [rank_event("expand", 2, rank=2)]):
            params = resized(params, events, axes(), rng)
            opt.sync_rank_change(events, axes(), params)
        m = opt.state["a.p"]["m"]
        assert m.shape == (4, 3)
        assert np.array_equal(m[:, :2], kept)
        assert not m[:, 2].any()


class PerArrayAdamW:
    """The update as a loop over parameter arrays, each with its own m and v:
    the reference the flat buffers must match bit for bit."""

    def __init__(self, config, params, no_decay=()):
        self.config, self.params, self.no_decay, self.t = config, params, no_decay, 0
        self.state = {name: {"m": np.zeros_like(p), "v": np.zeros_like(p)}
                      for name, p in params.items()}

    def step(self, grads):
        self.t += 1
        c = self.config
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = np.asarray(grads[name], dtype=np.float64)
            m, v = self.state[name]["m"], self.state[name]["v"]
            assert m.shape == p.shape
            if c.weight_decay > 0.0 and name not in self.no_decay:
                p -= c.lr * c.weight_decay * p
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            p -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)

    def sync_rank_change(self, events, axes, params):
        for event in events:
            for name, axis in axes[event.adapter_id].items():
                st = self.state[name]
                for key in ("m", "v"):
                    if event.action == "prune":
                        st[key] = np.delete(st[key], event.index, axis=axis)
                    else:
                        st[key] = np.insert(st[key], st[key].shape[axis], 0.0, axis=axis)
        self.params = params


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFlatBuffersMatchPerArray:
    def test_bitwise_through_surgery_on_two_adapters(self, rng):
        kw = dict(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        init = {"a.p": rng.standard_normal((4, 3)), "a.lam": rng.standard_normal(3),
                "a.q": rng.standard_normal((3, 5)), "b.p": rng.standard_normal((6, 2)),
                "b.lam": rng.standard_normal(2), "b.q": rng.standard_normal((2, 7)),
                "layer0.bias": rng.standard_normal(4)}
        runs = [{k: v.copy() for k, v in init.items()} for _ in range(2)]
        no_decay = frozenset({"layer0.bias"})
        opts = [cls(OptimizerConfig(**kw), params, no_decay)
                for cls, params in zip((AdamW, PerArrayAdamW), runs)]
        ax = {**axes("a", FACTORS), **axes("b", FACTORS)}
        # One allocation step's events, prunes first as apply_allocation
        # orders them; at steps 9 and 30 one adapter prunes as the other expands.
        surgery = {9: [("a", "prune", 1), ("b", "expand", None)],
                   17: [("a", "expand", None)],
                   30: [("b", "prune", 0), ("a", "expand", None)],
                   44: [("a", "prune", 0), ("b", "prune", 1)]}
        for t in range(60):
            grads = {k: rng.standard_normal(v.shape) for k, v in runs[0].items()}
            for opt in opts:
                opt.step(grads)
            if t in surgery:
                events = []
                for aid, action, index in surgery[t]:
                    r = runs[0][f"{aid}.lam"].size
                    events.append(AllocationEvent(
                        step=t, adapter_id=aid, action=action, rank_before=r,
                        rank_after=r - 1 if action == "prune" else r + 1,
                        score=0.0, detail=0.0, index=r if index is None else index))
                state = rng.bit_generator.state
                for i, opt in enumerate(opts):
                    rng.bit_generator.state = state
                    runs[i] = resized(runs[i], events, ax, rng)
                    opt.sync_rank_change(events, ax, runs[i])
            flat, ref = runs
            assert flat.keys() == ref.keys()
            for name in ref:
                assert np.array_equal(bits(flat[name]), bits(ref[name])), (t, name)
                for key in ("m", "v"):
                    assert np.array_equal(bits(opts[0].state[name][key]),
                                          bits(opts[1].state[name][key])), (t, name, key)
        assert runs[0]["a.lam"].size == 3
        assert runs[0]["b.lam"].size == 1
