import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import autodiff as ad
from setnet import tensor as T
from setnet.errors import ContractError, DimensionError, EmptyReductionError, NumericError
from setnet.layers import Dense, EquivariantLayer, SetBatch, SetPool, bind, evaluate

from helpers import add, gradient_check, max_winners, pow_const, repeat, sub


class TestForward:
    def test_scale_by_two(self):
        tape = ad.Tape()
        x = tape.variable(np.array(3.0), "x")
        y = x * 2.0
        assert y.value == 6.0

    def test_max_of_vector(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 5.0, 2.0]), "x")
        assert np.array_equal(x.segment_max([3]).value, [5.0])

    def test_max_normalized_identity_layer(self):
        # one channel, weight 1, no bias: y = x - max(x), per set
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0], [2.0], [7.0]]), "x")
        y = sub(x, repeat(x.segment_max([2, 1]), [2, 1]))
        assert np.array_equal(y.value, [[-1.0], [0.0], [0.0]])

    def test_tape_records_only_the_gradient_graph(self):
        tape = ad.Tape()
        x = tape.constant(np.arange(6.0).reshape(3, 2))
        c = (sub(x * 2.0, 1.0).segment_max([2, 1]) * x.segment_sum([2, 1])).sum_all()
        assert c.value == 3.0 * 2.0 + 5.0 * 4.0 + 7.0 * 4.0 + 9.0 * 5.0
        assert tape.nodes == [] and c.parents == () and c.vjps is None and not c.requires_grad
        w = tape.variable(np.array([2.0, 3.0]), "w")
        y = (w * c).sum_all()
        assert tape.nodes == [w, y.parents[0], y] and y.parents[0].parents == (w, c)
        assert all(n.op == "variable" or any(p.requires_grad for p in n.parents) for n in tape.nodes)
        assert ad.backward(tape, y)["w"].tolist() == [c.value, c.value]

    def test_error_numbers_are_distinct_on_an_evaluation_tape(self):
        messages = []

        class Overflow:
            def params(self):
                return []

            def apply(self, tape, x, cards, bound, rng=None):
                for _ in range(2):
                    with pytest.raises(NumericError, match=r"node#\d+\[mul\]") as info:
                        x * 1e308 * 1e308
                    messages.append(str(info.value))
                return x

        evaluate(Overflow(), SetBatch(np.ones((2, 1)), [2]))
        assert messages[0] != messages[1]

    def test_nonfinite_names_node(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1e308]), "x")
        with pytest.raises(NumericError, match=r"node#\d+\[mul\]"):
            _ = x * x
        w = tape.variable(np.array([[1e200]]), "w")
        with pytest.raises(NumericError, match=r"node#\d+\[matmul\]: 1 non-finite"):
            _ = w @ w

    def test_products_check_the_inner_dimension(self):
        tape = ad.Tape()
        x, w, b = tape.variable(np.ones((4, 3)), "x"), tape.variable(np.ones((2, 5)), "w"), tape.variable(np.ones(5), "b")
        for product in (lambda: x @ w, lambda: ad.affine(x, w, b, "tanh"),
                        lambda: ad.max_centred_affine(x, w, b, [2, 2], "tanh")):
            with pytest.raises(DimensionError, match=r"matmul inner dimensions differ: \(4, 3\) x \(2, 5\)"):
                product()
        assert tape.nodes == [x, w, b]  # nothing recorded


# Each op _record does not check: (the op on a [4, 2] node, the array
# function behind it on that node's value).
FINITE_PRESERVING_OPS = {
    "segment_max": (lambda x: x.segment_max([3, 1]), lambda a: np.stack([a[:3].max(axis=0), a[3:].max(axis=0)])),
    "reshape": (lambda x: x.reshape((2, 4)), lambda a: a.reshape((2, 4))),
    "transpose": (lambda x: x.transpose((1, 0)), lambda a: a.transpose((1, 0))),
    "neg": (lambda x: -x, np.negative),
}
FINITE_EDGES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0]


class TestFiniteChecks:
    def test_exactly_these_ops_skip_the_check(self):
        assert ad._FINITE_PRESERVING == set(FINITE_PRESERVING_OPS)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(FINITE_PRESERVING_OPS)),
        st.lists(st.one_of(st.sampled_from(FINITE_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=8, max_size=8),
    )
    def test_unchecked_ops_map_finite_inputs_to_finite_outputs(self, op, entries):
        tape = ad.Tape()
        x = tape.variable(np.array(entries).reshape(4, 2), "x")
        build, array_fn = FINITE_PRESERVING_OPS[op]
        node = build(x)
        assert node.op == op and node.requires_grad
        # underflow is left to its default: a value rounded towards zero is finite
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value = array_fn(x.value)
        assert np.all(np.isfinite(value)) and value.shape == node.value.shape
        assert value.tobytes() == node.value.tobytes()  # to the bit, -0.0 included

    def test_fused_nodes_catch_an_overflow_inside_them(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[-1.7e308], [1.7e308]]), "x")  # x - max(x) overflows
        w, b = tape.variable(np.ones((1, 1)), "w"), tape.variable(np.zeros(1), "b")
        with pytest.raises(NumericError, match=r"node#\d+\[max_centred_affine\]"):
            ad.max_centred_affine(x, w, b, [2], "identity")
        with pytest.raises(NumericError, match=r"node#\d+\[affine\]: 1 non-finite"):
            ad.affine(tape.constant([[1e200]]), tape.constant([[1e200]]), b, "identity")


class TestBackward:
    def test_square(self):
        tape = ad.Tape()
        x = tape.variable(np.array(3.0), "x")
        grads = ad.backward(tape, x * x)
        assert grads["x"] == pytest.approx(6.0)

    def test_max_subgradient_routing(self):
        # gradient of sum(max over the set's members) hits one argmax row per channel
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0, 9.0], [5.0, 2.0], [5.0, 2.0]]), "x")
        loss = x.segment_max([3]).sum_all()
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["x"], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    def test_mean_distributes(self):
        tape = ad.Tape()
        x = tape.variable(np.arange(4.0), "x")
        grads = ad.backward(tape, x.mean(axis=0).sum_all())
        assert np.allclose(grads["x"], 0.25)

    def test_matmul_and_broadcast_bias(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        tape = ad.Tape()
        w = tape.variable(rng.normal(size=(4, 2)), "w")
        b = tape.variable(np.zeros(2), "b")
        y = add(tape.constant(a) @ w, b)
        grads = ad.backward(tape, y.sum_all())
        assert np.allclose(grads["w"], a.T @ np.ones((3, 2)))
        assert np.allclose(grads["b"], [3.0, 3.0])

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.variable(np.ones(3), "x")
        with pytest.raises(ContractError):
            ad.backward(tape, x * 2.0)

    def test_unused_variable_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.variable(np.array(1.0), "x")
        z = tape.variable(np.ones(4), "z")
        grads = ad.backward(tape, x * x)
        assert np.array_equal(grads["z"], np.zeros(4))

    def test_constant_subgraph_vjps_never_run(self):
        def spy(g, pv, out):
            raise AssertionError("vjp of a node with no variable behind it")

        tape = ad.Tape()
        x = tape.constant(np.array([[1.0, 4.0], [3.0, 2.0], [5.0, 0.0]]))
        scaled = x * 2.0
        top = scaled.segment_max([2, 1])
        spread = repeat(top, [2, 1])
        centred = sub(scaled, spread)
        for node in (scaled, top, spread, centred):
            node.vjps = tuple(spy for _ in node.parents)
        w = tape.variable(np.array([[1.0], [-1.0]]), "w")
        grads = ad.backward(tape, (centred @ w).sum_all())
        assert np.array_equal(grads["w"], centred.value.T @ np.ones((3, 1)))
        assert not any(node.requires_grad for node in (x, scaled, top, spread, centred))

    @pytest.mark.parametrize("variable_sides", [(1,), (0,), (0, 1)])
    def test_matmul_forms_only_the_gradients_of_variable_operands(self, variable_sides):
        rng = np.random.default_rng(3)
        values = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        tape = ad.Tape()
        a, b = (tape.variable(v, f"v{i}") if i in variable_sides else tape.constant(v) for i, v in enumerate(values))
        y = a @ b
        formed = []

        def counted(side, vjp):
            def wrapper(g, pv, out):
                formed.append(side)
                return vjp(g, pv, out)
            return wrapper

        y.vjps = tuple(counted(side, vjp) for side, vjp in enumerate(y.vjps))
        grads = ad.backward(tape, y.sum_all())
        assert tuple(formed) == variable_sides
        if 0 in variable_sides:
            assert np.array_equal(grads["v0"], np.ones((3, 2)) @ values[1].T)
        if 1 in variable_sides:
            assert np.array_equal(grads["v1"], values[0].T @ np.ones((3, 2)))

    def test_root_without_variable_gets_zero_gradients(self):
        def build(tape, variables):
            x = variables["x"]
            (x * x).sum_all()
            c = tape.constant(np.array(3.0))
            return c * c

        tape = ad.Tape()
        root = build(tape, {"x": tape.variable(np.array([1.0, 2.0]), "x")})
        assert np.array_equal(ad.backward(tape, root)["x"], [0.0, 0.0])
        report = gradient_check(build, {"x": np.array([1.0, 2.0])})
        assert report.passed and report.entries_checked == 2 and report.max_rel_error == 0.0

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x_val = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 1, 2])
        layers = [
            Dense(5, 6, "tanh", rng, "l1"),
            Dense(6, 6, "elu", rng, "l2"),
            Dense(6, 3, "identity", rng, "l3"),
        ]

        def build(tape, bound):
            h = tape.constant(x_val)
            for layer in layers:
                h = layer.apply(tape, h, None, bound)
            return ad.softmax_cross_entropy(h, labels)

        report = gradient_check(build, {p.name: p.value for l in layers for p in l.params()}, step=1e-5, tolerance=1e-4)
        assert report.passed, report.failures[:3]
        assert report.max_rel_error < 1e-4


class TestSegmentOps:
    CARDS = [3, 1, 4]

    def test_segment_sum_adds_members_in_row_order(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 5)) * 10.0 ** rng.integers(-8, 8, size=(8, 5))
        tape = ad.Tape()
        got = tape.constant(x).segment_sum(self.CARDS).value
        want = np.zeros((3, 5))
        for row, s in zip(x, np.repeat(np.arange(3), self.CARDS)):
            want[s] = want[s] + row  # one member after another
        assert np.array_equal(got, want)

    def test_repeat_and_segment_sum_are_each_others_vjp(self):
        rng = np.random.default_rng(13)
        per_set, per_member = rng.normal(size=(3, 2)), rng.normal(size=(8, 2))
        tape = ad.Tape()
        y = tape.variable(per_set, "y")
        x = tape.variable(per_member, "x")
        loss = add((repeat(y, self.CARDS) * per_member).sum_all(), (x.segment_sum(self.CARDS) * per_set).sum_all())
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["y"], tape.constant(per_member).segment_sum(self.CARDS).value)
        assert np.array_equal(grads["x"], repeat(tape.constant(per_set), self.CARDS).value)

    def test_segment_max_routes_to_first_hit_in_each_set(self):
        x_val = np.array([[2.0, 0.0], [2.0, 1.0], [1.0, 1.0],  # set 0: ties in channel 0
                          [-3.0, -3.0],  # set 1: one member
                          [0.0, 5.0], [4.0, 5.0], [4.0, 1.0], [0.0, 0.0]])  # set 2: ties in both channels
        tape = ad.Tape()
        x = tape.variable(x_val, "x")
        top = x.segment_max(self.CARDS)
        assert np.array_equal(top.value, [[2.0, 1.0], [-3.0, -3.0], [4.0, 5.0]])
        want = np.zeros((8, 2))
        want[[0, 3, 5], 0] = 1.0
        want[[1, 3, 4], 1] = 1.0
        assert np.array_equal(ad.backward(tape, top.sum_all())["x"], want)
        assert np.array_equal(max_winners(top), [[0, 1], [3, 3], [5, 4]])

    def test_segment_ops_pass_gradient_check(self):
        rng = np.random.default_rng(14)
        x_val, weights = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))

        def build(tape, variables):
            x = variables["x"]
            y = x.segment_max(self.CARDS) * x.segment_sum(self.CARDS)
            return (sub(x, repeat(y, self.CARDS)) * weights).sum_all()

        report = gradient_check(build, {"x": x_val})
        assert report.passed and report.entries_checked == 24

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_segment_max_winners_match_reference_loop(self, data):
        cards = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
        k = data.draw(st.integers(1, 3))
        m = sum(cards)
        levels = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])  # few levels, so ties are common
        x_val = np.array(data.draw(st.lists(levels, min_size=m * k, max_size=m * k))).reshape(m, k)
        want = np.zeros((len(cards), k), dtype=int)
        start = 0
        for s, n in enumerate(cards):
            for c in range(k):
                best = start
                for r in range(start, start + n):
                    if x_val[r, c] > x_val[best, c]:  # a later tie never takes over
                        best = r
                want[s, c] = best
            start += n
        tape = ad.Tape()
        x = tape.variable(x_val, "x")
        top = x.segment_max(cards)
        assert np.array_equal(max_winners(top), want)
        routed = np.zeros((m, k))
        routed[want, np.arange(k)] = 1.0
        assert np.array_equal(ad.backward(tape, top.sum_all())["x"], routed)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 200), sets=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_equal_size_sets_match_the_per_set_loop_bit_for_bit(self, n, sets, k, seed):
        # one cardinality takes the reshaped-block path; numpy's reduce over
        # each set alone is the reference, including one channel (k == 1)
        rng = np.random.default_rng(seed)
        m = n * sets
        x_val = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))  # rows over many decades
        x_val = np.where(rng.random(size=(m, k)) < 0.3, rng.integers(-1, 2, size=(m, k)), x_val)  # ties
        weights = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))
        starts = np.arange(0, m, n)

        def per_set(fn, a):
            return np.array([fn(a[s : s + n]) for s in starts])

        cards = [n] * sets
        tape = ad.Tape()
        x = tape.variable(x_val, "x")
        y = tape.variable(rng.normal(size=(sets, k)), "y")
        total = x.segment_sum(cards)
        top = x.segment_max(cards)
        spread = repeat(y, cards)
        grads = ad.backward(tape, add(add(total.sum_all(), top.sum_all()), (spread * weights).sum_all()))
        assert total.value.tobytes() == per_set(lambda b: np.add.reduce(b, axis=0), x_val).tobytes()
        assert top.value.tobytes() == per_set(lambda b: np.maximum.reduce(b, axis=0), x_val).tobytes()
        assert np.array_equal(max_winners(top), per_set(lambda b: np.argmax(b, axis=0), x_val) + starts[:, None])
        assert grads["y"].tobytes() == per_set(lambda b: np.add.reduce(b, axis=0), weights).tobytes()

    def test_rows_must_match_cardinalities(self):
        tape = ad.Tape()
        x = tape.constant(np.ones((5, 2)))
        with pytest.raises(DimensionError):
            x.segment_sum([2, 2])
        with pytest.raises(DimensionError):
            x.segment_max([4, 2])
        with pytest.raises(EmptyReductionError):
            x.segment_sum([5, 0])


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        tape = ad.Tape()
        node = ad.softmax_cross_entropy(tape.variable(logits, "z"), labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.mean(np.log(probs[np.arange(2), labels]))
        assert float(node.value) == pytest.approx(want, rel=1e-12)
        grads = ad.backward(tape, node)
        onehot = np.zeros_like(logits)
        onehot[np.arange(2), labels] = 1.0
        assert np.allclose(grads["z"], (probs - onehot) / 2.0)

    def test_large_logits_stable(self):
        tape = ad.Tape()
        node = ad.softmax_cross_entropy(
            tape.variable(np.array([[1000.0, 0.0]]), "z"), np.array([0])
        )
        assert float(node.value) == pytest.approx(0.0, abs=1e-12)


class TestRelease:
    def _step(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0, 4.0], [3.0, 2.0]]), "x")
        return tape, (x.segment_max([2]) * x.segment_sum([2])).sum_all()

    def test_backward_leaves_the_recorded_nodes(self):
        tape, loss = self._step()
        nodes = list(tape.nodes)
        ad.backward(tape, loss)
        assert tape.nodes == nodes and len(nodes) == 5 and not tape.released

    def test_release_drops_the_graph_and_keeps_values(self):
        tape, loss = self._step()
        ad.backward(tape, loss)
        value = loss.value
        tape.release()
        tape.release()  # a second call is harmless
        assert tape.released and tape.nodes == [] and tape.variables == []
        assert loss.value == value

    @pytest.mark.parametrize("call", [lambda tape, root: ad.backward(tape, root)], ids=["backward"])
    def test_a_released_tape_is_refused(self, call):
        tape, loss = self._step()
        tape.release()
        with pytest.raises(ContractError, match="released"):
            call(tape, loss)


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(2)
        w_val, a = rng.normal(size=(4, 1)), rng.normal(size=(3, 4))
        report = gradient_check(lambda tape, v: (tape.constant(a) @ v["w"]).sum_all(), {"w": w_val},
                                step=1e-5, tolerance=1e-4)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_layer_pool_loss_combination(self):
        rng = np.random.default_rng(4)
        layer = EquivariantLayer(3, 4, "tanh", rng=rng)
        cards = np.array([5, 3])
        values = {p.name: p.value for p in layer.params()}
        values["x"] = rng.normal(size=(8, 3))

        def build(tape, bound):
            h = layer.apply(tape, bound["x"], cards, bound)
            pooled = SetPool("max").apply(tape, h, cards, bound)
            return ad.softmax_cross_entropy(pooled, np.array([1, 0]))

        report = gradient_check(build, values, step=1e-5, tolerance=1e-4)
        assert report.passed, report.failures[:3]

    def test_transpose_and_reshape(self):
        rng = np.random.default_rng(6)
        x_val, weights = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 12))

        def build(tape, variables):
            flat = variables["x"].transpose((0, 2, 1)).reshape((2, 12))
            assert np.array_equal(flat.value, variables["x"].value.transpose(0, 2, 1).reshape(2, 12))
            return (flat * tape.constant(weights)).sum_all()

        report = gradient_check(build, {"x": x_val}, step=1e-5, tolerance=1e-4)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_tie_point_flagged_and_excluded(self):
        x_val = np.array([1.0, 1.0, 0.0])  # exact tie at the max
        report = gradient_check(lambda tape, v: v["x"].segment_max([3]).sum_all(), {"x": x_val},
                                step=1e-5, tolerance=1e-4)
        assert report.entries_flagged >= 2
        assert report.passed

    @staticmethod
    def elu_of(tape, variables):
        """elu of each entry of the [1, 3] variable x, as a fused affine node with W = I and b = 0."""
        return ad.affine(variables["x"], tape.constant(np.eye(3)), tape.constant(np.zeros(3)), "elu").sum_all()

    def test_elu_kink_flagged_and_excluded(self):
        # x[0] sits at elu's kink: its probes +-step take the two branches
        report = gradient_check(self.elu_of, {"x": np.array([[0.0, -0.5, 0.7]])})
        assert report.passed
        assert (report.entries_flagged, report.entries_checked) == (1, 2)

    def test_wrong_elu_derivative_still_fails(self, monkeypatch):
        def wrong(x, fn, out):
            return np.ones_like(x) if fn == "elu" else right(x, fn, out)

        right = T.elementwise_grad
        monkeypatch.setattr(T, "elementwise_grad", wrong)
        report = gradient_check(self.elu_of, {"x": np.array([[0.0, -0.5, 0.7]])})
        assert [f.split(":")[0] for f in report.failures] == ["x[1]"]  # x[0] is flagged, elu' is 1 at x[2]

    def test_non_finite_central_difference_fails_its_entry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the minus probe's sqrt of a negative is not a warning
            report = gradient_check(lambda tape, v: pow_const(v["w"], 0.5).sum_all(), {"w": np.array(1e-6)}, step=1e-5)
        assert not report.passed
        assert len(report.failures) == 1 and report.failures[0].startswith("w[0]: ")
        assert report.summary().startswith("gradient check FAIL")

    def test_non_finite_analytic_gradient_fails_its_entry(self):
        def build(tape, variables):
            x = variables["x"]
            a, b, c = x * 1e308, x * 1e308, x * 1e308
            return sub(add(b, c), a).sum_all()  # 1e308 * x, but the sweep adds c's and b's gradients first

        report = gradient_check(build, {"x": np.array(0.5)})
        assert not report.passed and report.failures[0].startswith("x[0]: analytic inf")

    def test_requires_positive_step(self):
        with pytest.raises(ContractError):
            gradient_check(lambda tape, v: v["x"] * v["x"], {"x": np.array(1.0)}, step=0.0)


class TestGradientEquivariance:
    def test_input_gradients_permute_with_inputs(self):
        rng = np.random.default_rng(9)
        layer = EquivariantLayer(3, 4, "tanh", rng=rng)
        n = 6
        x_val = rng.normal(size=(n, 3))
        upstream = rng.normal(size=(n, 4))
        perm = rng.permutation(n)

        def grads_for(xv, gv):
            tape = ad.Tape()
            bound = bind(tape, layer.params())
            x = tape.variable(xv, "x")
            y = layer.apply(tape, x, np.array([n]), bound)
            loss = (y * tape.constant(gv)).sum_all()
            return ad.backward(tape, loss)

        base = grads_for(x_val, upstream)
        permuted = grads_for(x_val[perm], upstream[perm])
        assert np.max(np.abs(permuted["x"] - base["x"][perm])) < 1e-9
        for p in layer.params():
            assert np.max(np.abs(permuted[p.name] - base[p.name])) < 1e-9
