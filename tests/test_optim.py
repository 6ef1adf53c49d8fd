import math

import numpy as np
import pytest

from rankflex.errors import ParameterError, ShapeError
from rankflex.events import AllocationEvent
from rankflex.optim import AdamW


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
            AdamW(lr=0.0)
        with pytest.raises(ParameterError):
            AdamW(beta1=1.0)
        with pytest.raises(ParameterError):
            AdamW(beta2=-0.1)
        with pytest.raises(ParameterError):
            AdamW(eps=0.0)
        with pytest.raises(ParameterError):
            AdamW(weight_decay=-1e-3)

    def test_missing_gradient(self):
        opt = AdamW()
        with pytest.raises(ParameterError):
            opt.step({"w": np.zeros(2)}, {})

    def test_grad_shape_mismatch(self):
        opt = AdamW()
        with pytest.raises(ShapeError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_state_shape_desync_detected(self):
        opt = AdamW()
        w = np.zeros(3)
        opt.step({"w": w}, {"w": np.ones(3)})
        grown = np.zeros(4)
        with pytest.raises(ShapeError):
            opt.step({"w": grown}, {"w": np.ones(4)})


class TestStep:
    def test_single_step_matches_manual(self):
        w = np.array([1.0, -2.0])
        g = np.array([0.5, 0.1])
        opt = AdamW(lr=0.1)
        opt.step({"w": w}, {"w": g})
        expect = [manual_adamw(p0, [gi], 0.1, 0.9, 0.999, 1e-8, 0.0)
                  for p0, gi in ((1.0, 0.5), (-2.0, 0.1))]
        assert w == pytest.approx(np.array(expect), abs=1e-15)

    def test_three_steps_match_manual(self):
        w = np.array([0.7])
        gs = [0.3, -0.2, 0.05]
        opt = AdamW(lr=0.05, weight_decay=0.01)
        for g in gs:
            opt.step({"w": w}, {"w": np.array([g])})
        assert w[0] == pytest.approx(
            manual_adamw(0.7, gs, 0.05, 0.9, 0.999, 1e-8, 0.01), abs=1e-14)

    def test_zero_grad_leaves_param_untouched(self):
        w = np.array([2.0, -3.0])
        before = w.copy()
        opt = AdamW(lr=0.5)
        for _ in range(5):
            opt.step({"w": w}, {"w": np.zeros(2)})
        assert np.array_equal(w, before)

    def test_decay_is_decoupled(self):
        # Zero gradient, nonzero decay: the update is exactly multiplicative.
        w = np.array([4.0])
        opt = AdamW(lr=1.0, weight_decay=0.01)
        opt.step({"w": w}, {"w": np.zeros(1)})
        assert w[0] == 4.0 * 0.99

    def test_decay_applied_before_moments(self):
        # Order matters: decay-first shrinks the parameter before the moment
        # update subtracts, so the result differs from decay-last.
        w = np.array([1.0])
        opt = AdamW(lr=0.1, weight_decay=0.5)
        opt.step({"w": w}, {"w": np.array([1.0])})
        decay_first = manual_adamw(1.0, [1.0], 0.1, 0.9, 0.999, 1e-8, 0.5)
        assert w[0] == pytest.approx(decay_first, abs=1e-15)
        step_from_moments = 0.1 * 1.0 / (1.0 + 1e-8)
        decay_last = (1.0 - step_from_moments) * (1.0 - 0.1 * 0.5)
        assert abs(w[0] - decay_last) > 1e-3

    def test_no_decay_names_skip_decay(self):
        w = np.array([4.0])
        b = np.array([4.0])
        opt = AdamW(lr=1.0, weight_decay=0.01)
        opt.step({"w": w, "bias": b}, {"w": np.zeros(1), "bias": np.zeros(1)},
                 no_decay=("bias",))
        assert w[0] == 4.0 * 0.99
        assert b[0] == 4.0

    def test_constant_gradient_closed_form(self):
        # With constant g and no decay, each bias-corrected step moves by
        # exactly lr * g / (|g| + eps).
        w = np.array([10.0])
        g = np.array([0.25])
        n, lr = 50, 0.01
        opt = AdamW(lr=lr)
        for _ in range(n):
            opt.step({"w": w}, {"w": g})
        expect = 10.0 - n * lr * 0.25 / (0.25 + 1e-8)
        assert w[0] == pytest.approx(expect, rel=1e-12)

    def test_sign_symmetry(self):
        wp = np.array([1.0])
        wn = np.array([-1.0])
        opt_p = AdamW(lr=0.1)
        opt_n = AdamW(lr=0.1)
        for _ in range(4):
            opt_p.step({"w": wp}, {"w": np.array([0.3])})
            opt_n.step({"w": wn}, {"w": np.array([-0.3])})
        assert wp[0] == -wn[0]

    def test_state_accumulates_across_steps(self):
        w = np.array([0.0])
        opt = AdamW(lr=0.1)
        opt.step({"w": w}, {"w": np.array([1.0])})
        first = w[0]
        opt.step({"w": w}, {"w": np.array([0.0])})
        # Momentum keeps moving the parameter after the gradient vanishes.
        assert w[0] < first < 0.0


def axes(adapter_id="a"):
    """The direction axis of each factor, as SvdAdapter.factors gives it."""
    return {f"{adapter_id}.p": 1, f"{adapter_id}.lam": 0, f"{adapter_id}.q": 0}


def rank_event(action, index, adapter_id="a"):
    """An event of adapter ``adapter_id`` at rank 3; only ``action`` and
    ``index`` reach the optimizer."""
    prune = action == "prune"
    return AllocationEvent(step=1, adapter_id=adapter_id, action=action,
                           rank_before=3, rank_after=2 if prune else 4, score=0.5,
                           detail=0.0 if prune else "zero_impact", index=index)


class TestSurgery:
    # make_stateful gives only "a.p" moments, so these tests also check that
    # a rank change leaves the factors without state ("a.lam", "a.q") alone.
    def make_stateful(self, rng):
        p = rng.standard_normal((4, 3))
        opt = AdamW(lr=0.01)
        for _ in range(3):
            opt.step({"a.p": p}, {"a.p": rng.standard_normal((4, 3))})
        return p, opt

    def test_prune_matches_npdelete(self, rng):
        _, opt = self.make_stateful(rng)
        m0 = opt.state["a.p"]["m"].copy()
        v0 = opt.state["a.p"]["v"].copy()
        opt.sync_rank_change(rank_event("prune", 1), axes())
        assert set(opt.state) == {"a.p"}
        assert np.array_equal(opt.state["a.p"]["m"], np.delete(m0, 1, axis=1))
        assert np.array_equal(opt.state["a.p"]["v"], np.delete(v0, 1, axis=1))

    def test_expand_appends_zeros(self, rng):
        _, opt = self.make_stateful(rng)
        m0 = opt.state["a.p"]["m"].copy()
        opt.sync_rank_change(rank_event("expand", 3), axes())
        m1 = opt.state["a.p"]["m"]
        assert m1.shape == (4, 4)
        assert np.array_equal(m1[:, :3], m0)
        assert not m1[:, 3].any()

    def test_surgery_on_unseen_name_is_noop(self):
        opt = AdamW()
        opt.sync_rank_change(rank_event("prune", 0, "ghost"), axes("ghost"))
        opt.sync_rank_change(rank_event("expand", 3, "ghost"), axes("ghost"))
        assert opt.state == {}

    def test_sync_rank_change_prune(self, rng):
        opt = AdamW(lr=0.01)
        arrays = {"a.p": rng.standard_normal((4, 3)),
                  "a.lam": rng.standard_normal(3),
                  "a.q": rng.standard_normal((3, 5))}
        grads = {k: rng.standard_normal(v.shape) for k, v in arrays.items()}
        opt.step(arrays, grads)
        saved = {k: opt.state[k]["m"].copy() for k in arrays}
        ev = AllocationEvent(step=1, adapter_id="a", action="prune",
                             rank_before=3, rank_after=2, score=0.5,
                             detail=0.0, index=1)
        opt.sync_rank_change(ev, axes())
        assert np.array_equal(opt.state["a.p"]["m"],
                              np.delete(saved["a.p"], 1, axis=1))
        assert np.array_equal(opt.state["a.lam"]["m"],
                              np.delete(saved["a.lam"], 1))
        assert np.array_equal(opt.state["a.q"]["m"],
                              np.delete(saved["a.q"], 1, axis=0))

    def test_sync_rank_change_expand(self, rng):
        opt = AdamW(lr=0.01)
        arrays = {"a.p": rng.standard_normal((4, 3)),
                  "a.lam": rng.standard_normal(3),
                  "a.q": rng.standard_normal((3, 5))}
        grads = {k: rng.standard_normal(v.shape) for k, v in arrays.items()}
        opt.step(arrays, grads)
        ev = AllocationEvent(step=1, adapter_id="a", action="expand",
                             rank_before=3, rank_after=4, score=0.5,
                             detail="zero_impact", index=3)
        opt.sync_rank_change(ev, axes())
        assert opt.state["a.p"]["m"].shape == (4, 4)
        assert opt.state["a.lam"]["v"].shape == (4,)
        assert opt.state["a.q"]["m"].shape == (4, 5)

    def test_surviving_directions_keep_state_through_cycle(self, rng):
        # Prune then expand at the same width: untouched slices must carry
        # their accumulated moments across the surgery.
        opt = AdamW(lr=0.01)
        p = rng.standard_normal((4, 3))
        opt.step({"a.p": p}, {"a.p": rng.standard_normal((4, 3))})
        kept = opt.state["a.p"]["m"][:, [0, 2]].copy()
        opt.sync_rank_change(rank_event("prune", 1), axes())
        opt.sync_rank_change(rank_event("expand", 2), axes())
        m = opt.state["a.p"]["m"]
        assert m.shape == (4, 3)
        assert np.array_equal(m[:, :2], kept)
        assert not m[:, 2].any()


class PerArrayAdamW(AdamW):
    """The update as a loop over parameter arrays, each with its own m and v:
    the reference the flat buffers must match bit for bit."""

    def step(self, params, grads, no_decay=()):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(params):
            p = params[name]
            g = np.asarray(grads[name], dtype=np.float64)
            st = self.state.setdefault(name, {"m": np.zeros_like(p), "v": np.zeros_like(p)})
            m, v = st["m"], st["v"]
            assert m.shape == p.shape
            if self.weight_decay > 0.0 and name not in no_decay:
                p -= self.lr * self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFlatBuffersMatchPerArray:
    def test_bitwise_through_surgery_and_a_late_name(self, rng):
        kw = dict(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        opts = (AdamW(**kw), PerArrayAdamW(**kw))
        init = {"a.p": rng.standard_normal((4, 3)), "a.lam": rng.standard_normal(3),
                "a.q": rng.standard_normal((3, 5)), "layer0.bias": rng.standard_normal(4)}
        runs = [{k: v.copy() for k, v in init.items()} for _ in opts]
        no_decay = frozenset({"layer0.bias"})
        surgery = {9: ("prune", 1), 17: ("expand", 2), 30: ("expand", 3), 44: ("prune", 0)}
        for t in range(60):
            if t == 23:
                late = rng.standard_normal((2, 2))
                for params in runs:
                    params["b.w"] = late.copy()
            grads = {k: rng.standard_normal(v.shape) for k, v in runs[0].items()}
            for opt, params in zip(opts, runs):
                opt.step(params, grads, no_decay=no_decay)
            if t in surgery:
                action, index = surgery[t]
                r = runs[0]["a.lam"].size
                ev = AllocationEvent(step=t, adapter_id="a", action=action, rank_before=r,
                                     rank_after=r - 1 if action == "prune" else r + 1,
                                     score=0.0, detail=0.0, index=index)
                p_new, q_new = rng.standard_normal(4), rng.standard_normal(5)
                for opt, params in zip(opts, runs):
                    if action == "prune":
                        params["a.p"] = np.delete(params["a.p"], index, axis=1)
                        params["a.lam"] = np.delete(params["a.lam"], index)
                        params["a.q"] = np.delete(params["a.q"], index, axis=0)
                    else:
                        params["a.p"] = np.concatenate([params["a.p"], p_new[:, None]], axis=1)
                        params["a.lam"] = np.append(params["a.lam"], 0.0)
                        params["a.q"] = np.concatenate([params["a.q"], q_new[None, :]], axis=0)
                    opt.sync_rank_change(ev, axes())
            flat, ref = runs
            assert flat.keys() == ref.keys()
            for name in ref:
                assert np.array_equal(bits(flat[name]), bits(ref[name])), (t, name)
                for key in ("m", "v"):
                    assert np.array_equal(bits(opts[0].state[name][key]),
                                          bits(opts[1].state[name][key])), (t, name, key)
        assert runs[0]["a.lam"].size == 3
