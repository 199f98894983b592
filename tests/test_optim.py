import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import autodiff as ad
from setnet.errors import ConfigError, FormatError, NumericError
from setnet.layers import Dense, Param, bind, restore_params
from setnet.optim import Optimizer

from helpers import add, mul, sum_all


def reference_step(opt, values, m, v, grads):
    """One update of each parameter on its own, by the formulas the arena
    must reproduce bit for bit; ``values``, ``m`` and ``v`` are lists of
    arrays, rebound in place of the list entries."""
    scale = 1.0
    if opt.clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads))
        if total > opt.clip_norm:
            scale = opt.clip_norm / total
    t = opt.t + 1
    b1, b2 = opt.beta1, opt.beta2
    for i, g in enumerate(grads):
        g = g * scale
        if opt.kind == "sgd":
            values[i] = values[i] - opt.lr * g
        elif opt.kind == "adam":
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            values[i] = values[i] - opt.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        else:
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = np.maximum(b2 * v[i], np.abs(g))
            u = np.maximum(v[i], 1e-12)
            values[i] = values[i] - (opt.lr / (1 - b1**t)) * m[i] / u


def same_bits(a, b):
    return a.shape == b.shape and np.asarray(a).tobytes() == np.asarray(b).tobytes()


SHAPES = st.lists(st.sampled_from([(), (0,), (1,), (5,), (2, 3), (0, 4), (3, 1)]), min_size=1, max_size=5)


class TestSgd:
    def test_single_step(self):
        p = Param("w", np.array(1.0))
        Optimizer("sgd", [p], lr=0.1).step({"w": np.array(2.0)})
        assert p.value == pytest.approx(0.8)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update ~lr regardless of gradient
        # scale (up to eps, which matters for tiny gradients)
        for scale in (1.0, 1e-3, 1e3):
            p = Param("w", np.zeros(4))
            opt = Optimizer("adam", [p], lr=0.01)
            opt.step({"w": np.full(4, scale)})
            assert np.allclose(np.abs(p.value), 0.01, rtol=1e-4)

    def test_steady_state_scale_invariance(self):
        # constant gradient streams: after bias correction decays, updates do
        # not depend on the gradient's positive scale
        def run(scale):
            p = Param("w", np.array(0.0))
            opt = Optimizer("adam", [p], lr=0.01)
            deltas = []
            for _ in range(400):
                before = p.value.copy()
                opt.step({"w": np.array(scale)})
                deltas.append(float(p.value - before))
            return deltas[-1]

        assert run(1.0) == pytest.approx(run(1000.0), rel=1e-6)


class TestAdamax:
    def test_matches_reference_recurrence(self):
        # straight-line recurrence as the oracle, checked step for step
        p = Param("theta", np.array(3.0))
        opt = Optimizer("adamax", [p], lr=0.01)
        theta, m, u = 3.0, 0.0, 0.0
        for t in range(1, 201):
            g = 2.0 * theta
            m = 0.9 * m + 0.1 * g
            u = max(0.999 * u, abs(g), 1e-12)
            theta = theta - (0.01 / (1 - 0.9**t)) * m / u
            opt.step({"theta": 2.0 * p.value})
            assert float(p.value) == pytest.approx(theta, abs=1e-15)

    def test_converges_on_quadratic(self):
        # the infinity-norm moment decays by beta2 per step, so contraction is
        # slow early on; the oracle recurrence reaches 6.7e-3 at step 1000
        p = Param("theta", np.array(3.0))
        opt = Optimizer("adamax", [p], lr=0.01)
        for _ in range(1000):
            opt.step({"theta": 2.0 * p.value})
        assert abs(float(p.value)) < 1e-2

    def test_steady_state_scale_invariance(self):
        def run(scale):
            p = Param("w", np.array(0.0))
            opt = Optimizer("adamax", [p], lr=0.01)
            last = 0.0
            for _ in range(400):
                before = p.value.copy()
                opt.step({"w": np.array(scale)})
                last = float(p.value - before)
            return last

        assert run(1.0) == pytest.approx(run(1000.0), rel=1e-6)

    def test_zero_gradient_stream_is_safe(self):
        p = Param("w", np.array(1.0))
        opt = Optimizer("adamax", [p], lr=0.01)
        for _ in range(3):
            opt.step({"w": np.array(0.0)})
        assert np.isfinite(p.value)


class TestContracts:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Optimizer("rmsprop", [Param("w", np.zeros(1))])

    def test_nonfinite_gradient_refused_without_mutation(self):
        p = Param("w", np.array(1.0))
        opt = Optimizer("adam", [p], lr=0.1)
        opt.step({"w": np.array(1.0)})
        state_before = (p.value.copy(), opt.m["w"].copy(), opt.v["w"].copy(), opt.t)
        with pytest.raises(NumericError):
            opt.step({"w": np.array(np.nan)})
        assert p.value == state_before[0]
        assert opt.m["w"] == state_before[1]
        assert opt.v["w"] == state_before[2]
        assert opt.t == state_before[3]

    def test_gradient_overflow_is_refused_by_step_without_a_warning(self):
        p = Param("x", np.array(0.5))
        opt = Optimizer("adam", [p], lr=0.1)
        opt.step({"x": np.array(1.0)})
        state_before = (p.value.copy(), opt.m["x"].copy(), opt.v["x"].copy(), opt.t)
        tape = ad.Tape()
        x = bind(tape, [p])["x"]
        # finite forward, the gradient overflows
        y = sum_all(tape, add(tape, mul(tape, x, 1.5e308), mul(tape, x, 1.5e308)))
        assert np.isfinite(y.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = ad.backward(tape, y)
        assert not np.isfinite(grads["x"])
        with pytest.raises(NumericError, match="'x'"):
            opt.step(grads)
        assert (p.value, opt.m["x"], opt.v["x"], opt.t) == state_before

    def test_missing_gradient(self):
        opt = Optimizer("sgd", [Param("w", np.zeros(1))])
        with pytest.raises(NumericError):
            opt.step({})

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(0)
            p = Param("w", np.zeros(5))
            opt = Optimizer("adam", [p], lr=0.01)
            for _ in range(50):
                opt.step({"w": rng.normal(size=5)})
            return p.value.tobytes()

        assert run() == run()

    def test_global_norm_clip(self):
        p = Param("w", np.zeros(2))
        opt = Optimizer("sgd", [p], lr=1.0, clip_norm=1.0)
        opt.step({"w": np.array([3.0, 4.0])})  # norm 5 -> scaled to 1
        assert np.allclose(p.value, [-0.6, -0.8])

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax"])
    @pytest.mark.parametrize("w, b", [([1.0, 0.0, 0.0], 0.0), ([3.0, 0.0, 0.0], 4.0)], ids=["unit", "clipped"])
    def test_a_huge_finite_gradient_is_clipped_not_zeroed(self, kind, w, b):
        # 1e200 squared is past the float64 range; the step is that of the gradient over 1e200
        def moved(scale):
            params = [Param("w", np.zeros(3)), Param("b", np.zeros(1))]
            opt = Optimizer(kind, params, lr=0.1, clip_norm=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                opt.step({"w": np.array(w) * scale, "b": np.array([b]) * scale})
            return np.concatenate([p.value for p in params])

        want = moved(1.0)
        assert np.any(want != 0.0)
        np.testing.assert_allclose(moved(1e200), want, rtol=1e-12, atol=0.0)


class TestArena:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["sgd", "adam", "adamax"]),
        shapes=SHAPES,
        clip_norm=st.one_of(st.none(), st.floats(0.01, 10.0)),
        lr=st.sampled_from([1e-3, 0.1, 1.0]),
        betas=st.sampled_from([(0.9, 0.999), (0.1, 0.9)]),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_parameter_reference_bit_for_bit(self, kind, shapes, clip_norm, lr, betas, steps, seed):
        rng = np.random.default_rng(seed)

        def draw(shape):  # magnitudes over many decades, with exact zeros
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
            return np.where(rng.random(size=shape) < 0.1, 0.0, x)

        params = [Param(f"p{i}", draw(shape)) for i, shape in enumerate(shapes)]
        values = [p.value.copy() for p in params]
        m = [np.zeros(shape) for shape in shapes]
        v = [np.zeros(shape) for shape in shapes]
        opt = Optimizer(kind, params, lr=lr, beta1=betas[0], beta2=betas[1], clip_norm=clip_norm)
        for _ in range(steps):
            grads = [draw(shape) for shape in shapes]
            reference_step(opt, values, m, v, grads)
            opt.step({p.name: g for p, g in zip(params, grads)})
            for i, p in enumerate(params):
                assert same_bits(p.value, values[i])
                if kind != "sgd":
                    assert same_bits(opt.m[p.name], m[i]) and same_bits(opt.v[p.name], v[i])

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax"])
    def test_nonfinite_gradient_in_last_parameter_refuses_the_step(self, kind):
        rng = np.random.default_rng(3)
        params = [Param("a", rng.normal(size=(2, 3))), Param("b", np.array(0.5)), Param("c", rng.normal(size=4))]
        opt = Optimizer(kind, params, lr=0.1, clip_norm=1.0)
        grads = {p.name: rng.normal(size=p.value.shape) for p in params}
        opt.step(grads)
        before = [p.value.copy() for p in params], {k: a.copy() for k, a in opt.state_arrays().items()}, opt.t
        grads["c"] = grads["c"].copy()
        grads["c"][-1] = np.inf
        with pytest.raises(NumericError, match="'c'"):
            opt.step(grads)
        assert all(same_bits(p.value, b) for p, b in zip(params, before[0]))
        assert all(same_bits(a, before[1][k]) for k, a in opt.state_arrays().items())
        assert opt.t == before[2]

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax"])
    def test_step_after_restore_trains_the_models_own_params(self, kind):
        layer = Dense(3, 2, rng=np.random.default_rng(5), name="fc")
        params = layer.params()
        opt = Optimizer(kind, params, lr=0.1)
        rng = np.random.default_rng(6)
        grads = [{p.name: rng.normal(size=p.value.shape) for p in params} for _ in range(2)]
        opt.step(grads[0])
        saved = {p.name: p.value.copy() for p in params}
        saved.update({k: a.copy() for k, a in opt.state_arrays().items()})
        t = opt.t
        opt.step(grads[1])
        want = [p.value.copy() for p in params]
        opt.step(grads[0])  # move away from the state the checkpoint holds

        restore_params(params, saved)
        opt.load_state_arrays(saved, t)
        assert all(same_bits(p.value, saved[p.name]) for p in params)
        opt.step(grads[1])
        want = dict(zip([p.name for p in params], want))
        assert same_bits(layer.w.value, want["fc.W"]) and same_bits(layer.b.value, want["fc.b"])

    def test_moment_shape_mismatch_is_a_format_error(self):
        p = Param("w", np.zeros(3))
        opt = Optimizer("adam", [p])
        arrays = {"opt.m.w": np.zeros(3), "opt.v.w": np.zeros(1)}
        with pytest.raises(FormatError):
            opt.load_state_arrays(arrays, 1)
