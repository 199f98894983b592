import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import autodiff as ad
from setnet import tensor as T
from setnet.errors import ContractError, DimensionError, EmptyReductionError, NumericError
from setnet.layers import Dense, EquivariantLayer, SetBatch, SetPool, bind, evaluate

from helpers import add, gradient_check, max_winners, mul, pow_const, repeat, sub, sum_all


class TestForward:
    def test_scale_by_two(self):
        # dropout at rate 0.5 scales what it keeps by two
        tape = ad.Tape()
        x = tape.variable(np.array([[3.0, 1.0]]), "x")
        y = ad.dropout(tape, x, np.array([[2.0, 0.0]]), None)
        assert np.array_equal(y.value, [[6.0, 0.0]])

    def test_max_of_vector(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 5.0, 2.0]), "x")
        assert np.array_equal(ad.set_pool(tape, x, [3], "max").value, [5.0])

    def test_max_normalized_identity_layer(self):
        # one channel, weight 1, no bias: y = x - max(x), per set
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0], [2.0], [7.0]]), "x")
        y = ad.max_centred_affine(tape, x, tape.constant(np.eye(1)), tape.constant(np.zeros(1)), [2, 1], "identity")
        assert np.array_equal(y.value, [[-1.0], [0.0], [0.0]])

    def test_tape_records_only_the_gradient_graph(self):
        tape = ad.Tape()
        x = tape.constant(np.arange(6.0).reshape(3, 2))
        top = ad.set_pool(tape, sub(tape, mul(tape, x, 2.0), 1.0), [2, 1], "max")
        c = sum_all(tape, mul(tape, top, ad.set_pool(tape, x, [2, 1], "sum")))
        assert c.value == 3.0 * 2.0 + 5.0 * 4.0 + 7.0 * 4.0 + 9.0 * 5.0
        assert tape.nodes == [] and c.parents == () and c.vjps is None and not c.requires_grad
        w = tape.variable(np.array([2.0, 3.0]), "w")
        y = sum_all(tape, mul(tape, w, c))
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
                    with pytest.raises(NumericError, match=r"node#\d+\[affine\]") as info:
                        ad.affine(tape, x, tape.constant([[1e308]]), tape.constant([1e308]), "identity")
                    messages.append(str(info.value))
                return x

        evaluate(Overflow(), SetBatch(np.ones((2, 1)), [2]))
        assert messages[0] != messages[1]

    def test_nonfinite_names_node(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[1e308], [1e308]]), "x")
        with pytest.raises(NumericError, match=r"node#1\[sum_pool\]: 1 non-finite"):
            ad.set_pool(tape, x, [2], "sum")
        w = tape.variable(np.array([[1e200]]), "w")
        with pytest.raises(NumericError, match=r"node#3\[affine\]: 1 non-finite"):
            ad.affine(tape, w, w, tape.constant(np.zeros(1)), "identity")

    def test_products_check_the_inner_dimension(self):
        tape = ad.Tape()
        x, w, b = tape.variable(np.ones((4, 3)), "x"), tape.variable(np.ones((2, 5)), "w"), tape.variable(np.ones(5), "b")
        for product in (lambda: ad.affine(tape, x, w, b, "tanh"),
                        lambda: ad.max_centred_affine(tape, x, w, b, [2, 2], "tanh")):
            with pytest.raises(DimensionError, match=r"matmul inner dimensions differ: \(4, 3\) x \(2, 5\)"):
                product()
        assert tape.nodes == [x, w, b]  # nothing recorded

    @pytest.mark.parametrize("bias_shape", [(4,), (1,), (1, 5)])
    def test_a_bias_has_one_entry_per_output_channel(self, bias_shape):
        # a bias that broadcasts over the columns would get a gradient of another shape
        tape = ad.Tape()
        x, w = tape.variable(np.ones((4, 2)), "x"), tape.variable(np.ones((2, 5)), "w")
        b = tape.variable(np.ones(bias_shape), "b")
        for product in (lambda: ad.affine(tape, x, w, b, "tanh"),
                        lambda: ad.max_centred_affine(tape, x, w, b, [2, 2], "tanh")):
            with pytest.raises(DimensionError, match=r"bias of shape .* for 5 output channels"):
                product()
        assert tape.nodes == [x, w, b]


# Each op that makes no finiteness check: (its op name, the op on a [4, 2]
# node of sets of 2 and 2 members or 3 and 1, the array function behind it on
# that node's value).
FINITE_PRESERVING_OPS = {
    "max_pool": ("max_pool", lambda tape, x: ad.set_pool(tape, x, [3, 1], "max"),
                 lambda a: np.stack([a[:3].max(axis=0), a[3:].max(axis=0)])),
    "flatten": ("flatten", lambda tape, x: ad.flatten(tape, x, [2, 2], False), lambda a: a.reshape((2, 4))),
    "flatten_interleaved": ("flatten", lambda tape, x: ad.flatten(tape, x, [2, 2], True),
                            lambda a: a.reshape((2, 2, 2)).transpose((0, 2, 1)).reshape((2, 4))),
}
# Every other op, on the same node.
CHECKED_OPS = {
    "affine": lambda tape, x: ad.affine(tape, x, tape.constant(np.ones((2, 3))), tape.constant(np.zeros(3)), "tanh"),
    "max_centred_affine": lambda tape, x: ad.max_centred_affine(
        tape, x, tape.constant(np.ones((2, 3))), tape.constant(np.zeros(3)), [3, 1], "tanh"),
    "sum_pool": lambda tape, x: ad.set_pool(tape, x, [3, 1], "sum"),
    "mean_pool": lambda tape, x: ad.set_pool(tape, x, [3, 1], "mean"),
    "normalize_sets": lambda tape, x: ad.normalize_sets(tape, x, [2, 2], 1e-8),
    "dropout": lambda tape, x: ad.dropout(tape, x, np.full((4, 2), 2.0), None),
    "softmax_ce": lambda tape, x: ad.softmax_cross_entropy(tape, x, np.array([0, 1, 1, 0])),
    "masked_mse": lambda tape, x: ad.masked_mse(
        tape, ad.affine(tape, x, tape.constant(np.ones((2, 1))), tape.constant(np.zeros(1)), "identity"),
        np.zeros(4), np.ones(4)),
    "negated_channel_mean": lambda tape, x: ad.negated_channel_mean(tape, x, 1),
}
FINITE_EDGES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0]


class TestFiniteChecks:
    def test_exactly_these_ops_skip_the_check(self, monkeypatch):
        scanned, real = [], T.ensure_finite

        def ensure_finite(arr, where):
            scanned.append(where)
            return real(arr, where)

        monkeypatch.setattr(T, "ensure_finite", ensure_finite)
        unchecked = set()
        builds = {**{case: build for case, (_, build, _) in FINITE_PRESERVING_OPS.items()}, **CHECKED_OPS}
        for case, build in builds.items():
            tape = ad.Tape()
            x = tape.variable(np.random.default_rng(0).normal(size=(4, 2)), "x")
            scanned.clear()
            node = build(tape, x)
            if not any(where.endswith(f"[{node.op}]") for where in scanned):
                unchecked.add(case)
        assert unchecked == set(FINITE_PRESERVING_OPS)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(FINITE_PRESERVING_OPS)),
        st.lists(st.one_of(st.sampled_from(FINITE_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=8, max_size=8),
    )
    def test_unchecked_ops_map_finite_inputs_to_finite_outputs(self, op, entries):
        tape = ad.Tape()
        x = tape.variable(np.array(entries).reshape(4, 2), "x")
        name, build, array_fn = FINITE_PRESERVING_OPS[op]
        node = build(tape, x)
        assert node.op == name and node.requires_grad
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
            ad.max_centred_affine(tape, x, w, b, [2], "identity")
        with pytest.raises(NumericError, match=r"node#\d+\[affine\]: 1 non-finite"):
            ad.affine(tape, tape.constant([[1e200]]), tape.constant([[1e200]]), b, "identity")


class TestBackward:
    def test_square(self):
        tape = ad.Tape()
        x = tape.variable(np.array(3.0), "x")
        grads = ad.backward(tape, mul(tape, x, x))
        assert grads["x"] == pytest.approx(6.0)

    def test_max_subgradient_routing(self):
        # gradient of sum(max over the set's members) hits one argmax row per channel
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0, 9.0], [5.0, 2.0], [5.0, 2.0]]), "x")
        loss = sum_all(tape, ad.set_pool(tape, x, [3], "max"))
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["x"], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    def test_mean_distributes(self):
        tape = ad.Tape()
        x = tape.variable(np.arange(4.0)[:, None], "x")
        grads = ad.backward(tape, sum_all(tape, ad.set_pool(tape, x, [4], "mean")))
        assert np.array_equal(grads["x"], np.full((4, 1), 0.25))

    def test_matmul_and_broadcast_bias(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        tape = ad.Tape()
        w = tape.variable(rng.normal(size=(4, 2)), "w")
        b = tape.variable(np.zeros(2), "b")
        y = ad.affine(tape, tape.constant(a), w, b, "identity")
        grads = ad.backward(tape, sum_all(tape, y))
        assert np.allclose(grads["w"], a.T @ np.ones((3, 2)))
        assert np.allclose(grads["b"], [3.0, 3.0])

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.variable(np.ones(3), "x")
        with pytest.raises(ContractError, match="must be scalar"):
            ad.backward(tape, x)

    def test_unused_variable_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.variable(np.array(1.0), "x")
        z = tape.variable(np.ones(4), "z")
        grads = ad.backward(tape, mul(tape, x, x))
        assert np.array_equal(grads["z"], np.zeros(4))

    def test_constant_subgraph_vjps_never_run(self):
        def spy(g, pv, out):
            raise AssertionError("vjp of a node with no variable behind it")

        tape = ad.Tape()
        x = tape.constant(np.array([[1.0, 4.0], [3.0, 2.0], [5.0, 0.0]]))
        scaled = mul(tape, x, 2.0)
        top = ad.set_pool(tape, scaled, [2, 1], "max")
        spread = repeat(tape, top, [2, 1])
        centred = sub(tape, scaled, spread)
        for node in (scaled, top, spread, centred):
            node.vjps = tuple(spy for _ in node.parents)
        w = tape.variable(np.array([[1.0], [-1.0]]), "w")
        grads = ad.backward(tape, sum_all(tape, ad.affine(tape, centred, w, tape.constant(np.zeros(1)), "identity")))
        assert np.array_equal(grads["w"], centred.value.T @ np.ones((3, 1)))
        assert not any(node.requires_grad for node in (x, scaled, top, spread, centred))

    @pytest.mark.parametrize("variable_sides", [(1,), (0,), (0, 1)])
    def test_matmul_forms_only_the_gradients_of_variable_operands(self, variable_sides):
        rng = np.random.default_rng(3)
        values = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        tape = ad.Tape()
        a, b = (tape.variable(v, f"v{i}") if i in variable_sides else tape.constant(v) for i, v in enumerate(values))
        y = ad.affine(tape, a, b, tape.constant(np.zeros(2)), "identity")
        formed = []

        def counted(side, vjp):
            def wrapper(g, pv, out):
                formed.append(side)
                return vjp(g, pv, out)
            return wrapper

        y.vjps = tuple(counted(side, vjp) for side, vjp in enumerate(y.vjps))
        grads = ad.backward(tape, sum_all(tape, y))
        assert tuple(formed) == variable_sides
        if 0 in variable_sides:
            assert np.array_equal(grads["v0"], np.ones((3, 2)) @ values[1].T)
        if 1 in variable_sides:
            assert np.array_equal(grads["v1"], values[0].T @ np.ones((3, 2)))

    def test_root_without_variable_gets_zero_gradients(self):
        def build(tape, variables):
            x = variables["x"]
            sum_all(tape, mul(tape, x, x))
            c = tape.constant(np.array(3.0))
            return mul(tape, c, c)

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
            return ad.softmax_cross_entropy(tape, h, labels)

        report = gradient_check(build, {p.name: p.value for l in layers for p in l.params()}, step=1e-5, tolerance=1e-4)
        assert report.passed, report.failures[:3]
        assert report.max_rel_error < 1e-4


class TestSegmentOps:
    CARDS = [3, 1, 4]

    def test_segment_sum_adds_members_in_row_order(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 5)) * 10.0 ** rng.integers(-8, 8, size=(8, 5))
        tape = ad.Tape()
        got = ad.set_pool(tape, tape.constant(x), self.CARDS, "sum").value
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
        loss = add(tape, sum_all(tape, mul(tape, repeat(tape, y, self.CARDS), per_member)),
                   sum_all(tape, mul(tape, ad.set_pool(tape, x, self.CARDS, "sum"), per_set)))
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["y"], ad.set_pool(tape, tape.constant(per_member), self.CARDS, "sum").value)
        assert np.array_equal(grads["x"], repeat(tape, tape.constant(per_set), self.CARDS).value)

    def test_segment_max_routes_to_first_hit_in_each_set(self):
        x_val = np.array([[2.0, 0.0], [2.0, 1.0], [1.0, 1.0],  # set 0: ties in channel 0
                          [-3.0, -3.0],  # set 1: one member
                          [0.0, 5.0], [4.0, 5.0], [4.0, 1.0], [0.0, 0.0]])  # set 2: ties in both channels
        tape = ad.Tape()
        x = tape.variable(x_val, "x")
        top = ad.set_pool(tape, x, self.CARDS, "max")
        assert np.array_equal(top.value, [[2.0, 1.0], [-3.0, -3.0], [4.0, 5.0]])
        want = np.zeros((8, 2))
        want[[0, 3, 5], 0] = 1.0
        want[[1, 3, 4], 1] = 1.0
        assert np.array_equal(ad.backward(tape, sum_all(tape, top))["x"], want)
        assert np.array_equal(max_winners(top), [[0, 1], [3, 3], [5, 4]])

    def test_segment_ops_pass_gradient_check(self):
        rng = np.random.default_rng(14)
        x_val, weights = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))

        def build(tape, variables):
            x = variables["x"]
            y = mul(tape, ad.set_pool(tape, x, self.CARDS, "max"), ad.set_pool(tape, x, self.CARDS, "sum"))
            return sum_all(tape, mul(tape, sub(tape, x, repeat(tape, y, self.CARDS)), weights))

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
        top = ad.set_pool(tape, x, cards, "max")
        assert np.array_equal(max_winners(top), want)
        routed = np.zeros((m, k))
        routed[want, np.arange(k)] = 1.0
        assert np.array_equal(ad.backward(tape, sum_all(tape, top))["x"], routed)

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
        total = ad.set_pool(tape, x, cards, "sum")
        top = ad.set_pool(tape, x, cards, "max")
        spread = repeat(tape, y, cards)
        loss = add(tape, add(tape, sum_all(tape, total), sum_all(tape, top)), sum_all(tape, mul(tape, spread, weights)))
        grads = ad.backward(tape, loss)
        assert total.value.tobytes() == per_set(lambda b: np.add.reduce(b, axis=0), x_val).tobytes()
        assert top.value.tobytes() == per_set(lambda b: np.maximum.reduce(b, axis=0), x_val).tobytes()
        assert np.array_equal(max_winners(top), per_set(lambda b: np.argmax(b, axis=0), x_val) + starts[:, None])
        assert grads["y"].tobytes() == per_set(lambda b: np.add.reduce(b, axis=0), weights).tobytes()

    def test_rows_must_match_cardinalities(self):
        tape = ad.Tape()
        x = tape.constant(np.ones((5, 2)))
        with pytest.raises(DimensionError):
            ad.set_pool(tape, x, [2, 2], "sum")
        with pytest.raises(DimensionError):
            ad.set_pool(tape, x, [4, 2], "max")
        with pytest.raises(EmptyReductionError):
            ad.set_pool(tape, x, [5, 0], "mean")


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        tape = ad.Tape()
        node = ad.softmax_cross_entropy(tape, tape.variable(logits, "z"), labels)
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
            tape, tape.variable(np.array([[1000.0, 0.0]]), "z"), np.array([0])
        )
        assert float(node.value) == pytest.approx(0.0, abs=1e-12)


class TestTapeLifetime:
    """A node holds no reference to its tape, so a step's graph is freed by
    reference counting once its caller drops the tape, the root and the
    gradients; the collector is not needed."""

    def _step(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0, 4.0], [3.0, 2.0]]), "x")
        return tape, sum_all(tape, mul(tape, ad.set_pool(tape, x, [2], "max"), ad.set_pool(tape, x, [2], "sum")))

    @staticmethod
    def _every_op_step():
        """A tape and a scalar root that runs every op of ``autodiff`` once or more."""
        tape = ad.Tape()
        cards = [2, 2]
        x = tape.variable(np.array([[1.0, 4.0], [3.0, 2.0], [0.5, -1.0], [2.0, 2.5]]), "x")
        w = tape.variable(np.full((2, 3), 0.5), "w")
        h = ad.max_centred_affine(tape, ad.normalize_sets(tape, x, cards, 1e-8), w, tape.constant(np.zeros(3)),
                                  cards, "elu")
        flat = ad.dropout(tape, ad.flatten(tape, h, cards, True), np.full((2, 6), 2.0), None)
        logits = ad.affine(tape, flat, tape.constant(np.ones((6, 2))), tape.constant(np.zeros(2)), "tanh")
        pred = ad.affine(tape, ad.set_pool(tape, h, cards, "mean"), tape.constant(np.ones((3, 1))),
                         tape.constant(np.zeros(1)), "identity")
        pools = mul(tape, ad.set_pool(tape, h, cards, "sum"), ad.set_pool(tape, h, cards, "max"))
        losses = [ad.softmax_cross_entropy(tape, logits, np.array([0, 1])),
                  ad.masked_mse(tape, pred, np.zeros(2), np.ones(2)),
                  ad.negated_channel_mean(tape, h, 0), sum_all(tape, pools)]
        root = losses[0]
        for loss in losses[1:]:
            root = add(tape, root, loss)
        return tape, root

    def test_backward_leaves_the_recorded_nodes(self):
        tape, loss = self._step()
        nodes = list(tape.nodes)
        ad.backward(tape, loss)
        assert tape.nodes == nodes and len(nodes) == 5

    def test_a_dropped_tape_is_freed_with_the_collector_off(self):
        gc.collect()
        gc.disable()
        try:
            tape, root = self._every_op_step()
            grads = ad.backward(tape, root)
            ops = {node.op for node in tape.nodes}
            assert np.all(np.isfinite(grads["x"])) and np.any(grads["w"] != 0.0)
            freed = weakref.ref(tape)
            del tape, root, grads
            assert freed() is None
        finally:
            gc.enable()
        assert ops >= {"max_centred_affine", "normalize_sets", "dropout", "flatten", "affine", "mean_pool",
                       "sum_pool", "max_pool", "softmax_ce", "masked_mse", "negated_channel_mean"}

    def test_a_root_from_another_tape_is_refused(self):
        tape, _ = self._step()
        _, other_root = self._step()
        with pytest.raises(ContractError, match="not recorded on this tape"):
            ad.backward(tape, other_root)

    def test_a_parent_from_another_tape_is_refused(self):
        # w and x are both node 0 of their tapes, so by index alone the sweep
        # would give x's gradient to w and w's to x
        rng = np.random.default_rng(0)
        w = ad.Tape().variable(rng.normal(size=(2, 2)), "w")
        tape = ad.Tape()
        x = tape.variable(rng.normal(size=(2, 2)), "x")
        logits = ad.affine(tape, x, w, tape.constant(np.zeros(2)), "identity")
        with pytest.raises(ContractError, match=r"node#\d+\[affine\] has a parent recorded on another tape"):
            ad.backward(tape, ad.softmax_cross_entropy(tape, logits, np.array([0, 1])))


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(2)
        w_val, a = rng.normal(size=(4, 1)), rng.normal(size=(3, 4))
        report = gradient_check(
            lambda tape, v: sum_all(tape, ad.affine(tape, tape.constant(a), v["w"], tape.constant(np.zeros(1)),
                                                    "identity")),
            {"w": w_val}, step=1e-5, tolerance=1e-4)
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
            return ad.softmax_cross_entropy(tape, pooled, np.array([1, 0]))

        report = gradient_check(build, values, step=1e-5, tolerance=1e-4)
        assert report.passed, report.failures[:3]

    def test_transpose_and_reshape(self):
        # two sets of three members with four channels, flattened channel by channel
        rng = np.random.default_rng(6)
        x_val, weights = rng.normal(size=(6, 4)), rng.normal(size=(2, 12))

        def build(tape, variables):
            flat = ad.flatten(tape, variables["x"], [3, 3], True)
            assert np.array_equal(flat.value, variables["x"].value.reshape(2, 3, 4).transpose(0, 2, 1).reshape(2, 12))
            return sum_all(tape, mul(tape, flat, weights))

        report = gradient_check(build, {"x": x_val}, step=1e-5, tolerance=1e-4)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_tie_point_flagged_and_excluded(self):
        x_val = np.array([1.0, 1.0, 0.0])  # exact tie at the max
        report = gradient_check(lambda tape, v: sum_all(tape, ad.set_pool(tape, v["x"], [3], "max")), {"x": x_val},
                                step=1e-5, tolerance=1e-4)
        assert report.entries_flagged >= 2
        assert report.passed

    @staticmethod
    def elu_of(tape, variables):
        """elu of each entry of the [1, 3] variable x, as a fused affine node with W = I and b = 0."""
        eye, zeros = tape.constant(np.eye(3)), tape.constant(np.zeros(3))
        return sum_all(tape, ad.affine(tape, variables["x"], eye, zeros, "elu"))

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
            report = gradient_check(lambda tape, v: sum_all(tape, pow_const(tape, v["w"], 0.5)), {"w": np.array(1e-6)},
                                    step=1e-5)
        assert not report.passed
        assert len(report.failures) == 1 and report.failures[0].startswith("w[0]: ")
        assert report.summary().startswith("gradient check FAIL")

    def test_non_finite_analytic_gradient_fails_its_entry(self):
        def build(tape, variables):
            x = variables["x"]
            a, b, c = mul(tape, x, 1e308), mul(tape, x, 1e308), mul(tape, x, 1e308)
            # 1e308 * x, but the sweep adds c's and b's gradients first
            return sum_all(tape, sub(tape, add(tape, b, c), a))

        report = gradient_check(build, {"x": np.array(0.5)})
        assert not report.passed and report.failures[0].startswith("x[0]: analytic inf")

    def test_requires_positive_step(self):
        with pytest.raises(ContractError):
            gradient_check(lambda tape, v: mul(tape, v["x"], v["x"]), {"x": np.array(1.0)}, step=0.0)


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
            loss = sum_all(tape, mul(tape, y, gv))
            return ad.backward(tape, loss)

        base = grads_for(x_val, upstream)
        permuted = grads_for(x_val[perm], upstream[perm])
        assert np.max(np.abs(permuted["x"] - base["x"][perm])) < 1e-9
        for p in layer.params():
            assert np.max(np.abs(permuted[p.name] - base[p.name])) < 1e-9
