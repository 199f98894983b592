import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import autodiff as ad
from setnet.errors import DimensionError, NumericError
from setnet.layers import SetBatch
from setnet.tensor import as_tensor, elementwise, elementwise_grad, matmul

from helpers import elu_grad_where, elu_where, permute_members


def matmul_reference(a, b):
    """Triple-loop oracle, independent of the library path."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def node_matmul(a, b):
    """``a @ b`` as a node of a tape: the tape checks the shapes."""
    tape = ad.Tape()
    return (tape.constant(a) @ tape.constant(b)).value


class TestMatmul:
    def test_identity(self):
        out = node_matmul(np.eye(2), [[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(out, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        assert node_matmul([[1.0, 2.0]], [[3.0], [4.0]])[0, 0] == pytest.approx(11.0)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        want = matmul_reference(a, b)
        for got in (node_matmul(a, b), matmul(a, b)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"matmul inner dimensions differ: \(2, 3\) x \(2, 3\)"):
            node_matmul(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DimensionError, match="rank-2"):
            node_matmul(np.ones(3), np.ones((3, 2)))


# reductions and elementwise arithmetic run on tape nodes; sum and max reduce
# the member rows of one set
def reduce(x, kind):
    x = ad.Tape().variable(np.asarray(x, dtype=np.float64), "x")
    return (x.mean(axis=0) if kind == "mean" else getattr(x, f"segment_{kind}")([x.value.shape[0]])).value[0]


class TestReduce:
    def test_max(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[1.0, 2.0], [3.0, 0.0]]), "x")
        top = x.segment_max([2])
        assert np.array_equal(top.value, [[3.0, 2.0]])
        # the subgradient goes to the argmax row of each column
        assert np.array_equal(ad.backward(tape, top.sum_all())["x"], [[0.0, 1.0], [1.0, 0.0]])

    def test_sum(self):
        assert np.array_equal(reduce([[1.0, 2.0], [3.0, 0.0]], "sum"), [4.0, 2.0])

    def test_mean(self):
        assert np.array_equal(reduce([[1.0, 2.0], [3.0, 0.0]], "mean"), [2.0, 1.0])

    def test_max_tie_takes_lowest_index(self):
        tape = ad.Tape()
        x = tape.variable(np.array([2.0, 5.0, 5.0]), "x")
        assert np.array_equal(ad.backward(tape, x.segment_max([3]).sum_all())["x"], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("kind", ["sum", "max", "mean"])
    def test_reduction_invariant_under_permutation(self, kind):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 4))
        for _ in range(20):
            p = rng.permutation(9)
            base = reduce(x, kind)
            permuted = reduce(x[p], kind)
            assert np.max(np.abs(base - permuted)) <= 1e-12 * max(1.0, np.max(np.abs(base)))


class TestPermutation:
    """A permutation is an index array p; reordering rows is ``rows[p]``."""

    def test_not_a_bijection(self):
        batch = SetBatch(np.ones((3, 2)), [3])
        with pytest.raises(DimensionError, match="not a permutation"):
            permute_members(batch, [np.array([0, 0, 2])])

    def test_size_mismatch(self):
        batch = SetBatch(np.ones((3, 2)), [3])
        with pytest.raises(DimensionError):
            permute_members(batch, [np.arange(4)])


class TestElementwise:
    def test_tanh_zero(self):
        assert elementwise(np.array(0.0), "tanh") == 0.0

    def test_elu_negative_closed_form(self):
        assert elementwise(np.array(-1.0), "elu") == pytest.approx(np.exp(-1.0) - 1.0)

    def test_elu_positive_is_identity(self):
        assert elementwise(np.array(2.5), "elu") == 2.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -745.2, -40.0, 20.0]),
            max_size=40,
        ),
        st.booleans(),
    )
    def test_elu_and_its_derivative_have_the_bits_of_the_where_forms(self, xs, scalar):
        x = np.array(xs[0] if scalar and xs else xs)  # 0-d inputs too
        y = elu_where(x)
        for got, want in ((elementwise(x, "elu"), y), (elementwise_grad(x, "elu", y), elu_grad_where(x))):
            got = np.asarray(got)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_sigmoid_zero(self):
        assert elementwise(np.array(0.0), "sigmoid") == 0.5

    def test_sigmoid_extreme_is_stable(self):
        out = elementwise(np.array([-800.0, 800.0]), "sigmoid")
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0)

    def test_unknown_fn(self):
        with pytest.raises(DimensionError):
            elementwise(np.zeros(2), "relu")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-800.0, 800.0) | st.sampled_from([-800.0, -40.0, -0.0, 0.0, 20.0, 800.0]), min_size=1, max_size=20
        ),
        st.sampled_from(["tanh", "sigmoid", "elu"]),
    )
    def test_derivative_through_the_tape_matches_input_based_formula(self, xs, fn):
        x = np.array(xs)
        if fn == "tanh":  # references computed from the input alone
            t = np.tanh(x)
            want = 1.0 - t * t
        elif fn == "sigmoid":
            s = elementwise(x, "sigmoid")
            want = s * (1.0 - s)
        else:
            want = elu_grad_where(x)
        assert elementwise_grad(x, fn, elementwise(x, fn)).tobytes() == want.tobytes()
        upstream = np.linspace(-2.0, 3.0, len(x))
        tape = ad.Tape()
        # fn of each entry as a fused affine node, x I + b with b = 0: b's gradient
        # is the pre-activation's, summed over its one row from 0.0 (so -0.0 reads 0.0)
        b = tape.variable(np.zeros(len(x)), "b")
        out = ad.affine(tape.constant(x[None, :]), tape.constant(np.eye(len(x))), b, fn)
        grads = ad.backward(tape, (out * upstream).sum_all())
        assert grads["b"].tobytes() == (0.0 + upstream * want).tobytes()


class TestPlumbing:
    def test_broadcast_add(self):
        # the bias of an affine node goes to every row
        tape = ad.Tape()
        out = ad.affine(tape.constant(np.ones((2, 3))), tape.constant(np.eye(3)), tape.constant([1.0, 2.0, 3.0]),
                        "identity")
        assert np.array_equal(out.value, [[2.0, 3.0, 4.0]] * 2)

    def test_subtract_multiply(self):
        tape = ad.Tape()
        a = tape.constant(np.array([4.0, 9.0]))
        assert np.array_equal((a * 2.0).value, [8.0, 18.0])
        # (prediction - target) * mask, squared, over the one observed member
        loss = ad.masked_mse(tape.constant([[4.0], [9.0]]), np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        assert loss.value == 9.0

    def test_bad_broadcast(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            tape.constant(np.ones((2, 3))) * np.ones((2, 4))

    def test_reshape(self):
        tape = ad.Tape()
        x = tape.constant(np.arange(6.0))
        assert x.reshape((2, 3)).value.shape == (2, 3)
        with pytest.raises(DimensionError):
            x.reshape((4, 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            as_tensor([1.0, np.nan])
        tape = ad.Tape()
        with pytest.raises(NumericError):
            tape.constant(np.array([1e308])) * np.array([1e308])
