import builtins
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from setnet import autodiff as ad
from setnet import data as data_module
from setnet import tensor as tensor_module
from setnet.errors import (
    DegenerateSetError,
    DimensionError,
    EmptyReductionError,
    FormatError,
    NumericError,
)
from setnet.layers import (
    Dense,
    Dropout,
    EquivariantLayer,
    NormalizeSets,
    Param,
    SetBatch,
    SetPool,
    bind,
    evaluate,
    load_params,
    restore_params,
    save_params,
)
from setnet.data import LabeledSetDataset
from setnet.optim import Optimizer
from setnet.train import ExperimentConfig, build_experiment_model

from helpers import (
    batch_channels,
    batch_sets,
    composite_pre_activation,
    count_params,
    evaluate_whole,
    gradient_check,
    mul,
    nonlinearity,
    normalize_sets_chain,
    peak_bytes,
    permute_members,
    sum_all,
)

# channels in and out per layer form: scalar_max has one channel in and out,
# where numpy regroups the products' sums; None draws them per case
FORMS = {
    "scalar_max": 1,
    "channel_factored": None,
}

PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def single_set(values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    return SetBatch(values, [values.shape[0]])


def forward(layer, batch):
    """A per-member layer's output as a batch."""
    return SetBatch(evaluate(layer, batch), batch.cardinalities)


def random_layer(k_in, k_out, rng, activation="tanh"):
    layer = EquivariantLayer(k_in, k_out, activation, rng=rng)
    for p in layer.params():
        p.value = rng.normal(scale=0.7, size=p.value.shape)
    return layer


def random_batch(rng, n_max=8, k=3, batch=3):
    cards = rng.integers(1, n_max + 1, size=batch)
    cards[0] = n_max  # keep at least one set of n_max members
    return SetBatch(rng.normal(size=(cards.sum(), k)), cards)


@st.composite
def packed_batches(draw, channels=None, max_size=32, max_channels=8):
    """(batch, rng): 1-4 sets of 2-``max_size`` members, 1-``max_channels`` channels."""
    cards = draw(st.lists(st.integers(2, max_size), min_size=1, max_size=4))
    k = channels or draw(st.integers(1, max_channels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SetBatch(rng.normal(size=(sum(cards), k)), cards), rng


def layer_case(draw, form, k_in, max_out=8):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_layer(k_in, FORMS[form] or draw(st.integers(1, max_out)), rng)


def per_member(out, batch):
    """True for one output row per member, False for one per set; with one
    member per set the two agree."""
    return out.shape[0] == batch.values.shape[0]


def assert_equivariant(fn, batch, rng, tol=1e-12):
    """fn maps a batch to [M, K'] (per member) or [B, K'] (pooled); per-member
    outputs must permute with the members, pooled ones must not change."""
    perms = [rng.permutation(int(n)) for n in batch.cardinalities]
    base, permuted = fn(batch), fn(permute_members(batch, perms))
    if per_member(base, batch):
        base = permute_members(SetBatch(base, batch.cardinalities), perms).values
    assert np.max(np.abs(permuted - base)) <= tol


def assert_isolated(fn, batch, tol=1e-12):
    """Each set's output rows inside ``batch`` equal that set's output as a
    batch of its own: no set sees another's members.

    To ``tol``, not to the bit: BLAS may group a matrix product's additions
    differently when it has more rows.
    """
    together = fn(batch)
    rows = batch.cardinalities if per_member(together, batch) else np.ones(batch.num_sets, dtype=int)
    for got, members in zip(np.split(together, np.cumsum(rows)[:-1]), batch_sets(batch)):
        assert np.max(np.abs(got - fn(single_set(members)))) <= tol


class TestEquivariantExamples:
    def test_factored_subtracts_column_max(self):
        layer = EquivariantLayer(2, 2, "identity")
        layer.gam.value = np.eye(2)
        layer.beta.value = np.zeros(2)
        out = forward(layer, single_set([[1.0, 5.0], [3.0, 2.0]]))
        assert np.allclose(out.values, [[-2.0, 0.0], [0.0, -3.0]])

    def test_channel_mismatch(self):
        layer = EquivariantLayer(3, 2)
        with pytest.raises(DimensionError):
            evaluate(layer, single_set([[1.0, 2.0]]))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyReductionError):
            SetBatch(np.zeros((3, 2)), [3, 0])

    def test_parameter_counts(self):
        assert count_params(EquivariantLayer(3, 5).params()) == 3 * 5 + 5


class TestEquivarianceProperty:
    @pytest.mark.parametrize("form", FORMS)
    @PROPERTY
    @given(st.data())
    def test_single_layer_equivariant(self, form, data):
        batch, rng = data.draw(packed_batches(FORMS[form]))
        layer = layer_case(data.draw, form, batch_channels(batch))
        assert_equivariant(lambda b: evaluate(layer, b), batch, rng)

    def test_three_layer_composition_equivariant(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            layers = [
                random_layer(3, 5, rng),
                random_layer(5, 4, rng),
                random_layer(4, 2, rng),
            ]

            def stack(batch):
                for layer in layers:
                    batch = forward(layer, batch)
                return batch.values

            batch = random_batch(rng, n_max=10, k=3)
            assert_equivariant(stack, batch, rng, tol=1e-9)

    def test_invariance_of_pooled_stack(self):
        rng = np.random.default_rng(31)
        for kind in ("sum", "max", "mean"):
            layers = [random_layer(3, 6, rng), random_layer(6, 4, rng)]
            batch = random_batch(rng, n_max=9, k=3)

            def pooled(b):
                for layer in layers:
                    b = forward(layer, b)
                return evaluate(SetPool(kind), b)

            assert_equivariant(pooled, batch, rng, tol=1e-9)

    @pytest.mark.parametrize("kind", ["sum", "max", "mean"])
    @PROPERTY
    @given(packed_batches())
    def test_pool_invariant(self, kind, case):
        batch, rng = case
        assert_equivariant(lambda b: evaluate(SetPool(kind), b), batch, rng)

    @PROPERTY
    @given(packed_batches())
    def test_normalize_equivariant(self, case):
        batch, rng = case
        assert_equivariant(lambda b: evaluate(NormalizeSets(), b), batch, rng)


class TestSegmentIsolation:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_layer_rows_match_set_alone(self, data):
        form = data.draw(st.sampled_from(list(FORMS)))
        batch, _ = data.draw(packed_batches(FORMS[form]))
        layer = layer_case(data.draw, form, batch_channels(batch))
        assert_isolated(lambda b: evaluate(layer, b), batch)

    @PROPERTY
    @given(st.sampled_from(["sum", "max", "mean"]), packed_batches())
    def test_pool_and_normalize_match_set_alone(self, kind, case):
        batch, _ = case
        assert_isolated(lambda b: evaluate(SetPool(kind), b), batch)
        assert_isolated(lambda b: evaluate(NormalizeSets(), b), batch)

    def test_max_path_fixed_example(self):
        rng = np.random.default_rng(53)
        batch = SetBatch(rng.normal(size=(6, 3)), [4, 2])
        max_layer = random_layer(3, 4, rng)
        together = batch_sets(SetBatch(evaluate(max_layer, batch), batch.cardinalities))
        for got, members in zip(together, batch_sets(batch)):
            assert np.array_equal(got, evaluate(max_layer, single_set(members)))  # bit-level for this example

    def test_pool_ragged_example(self):
        batch = SetBatch(np.array([[1.0, 2.0], [3.0, 4.0], [-5.0, -6.0]]), [2, 1])
        assert np.array_equal(evaluate(SetPool("sum"), batch), [[4.0, 6.0], [-5.0, -6.0]])
        assert np.array_equal(evaluate(SetPool("mean"), batch), [[2.0, 3.0], [-5.0, -6.0]])
        negatives = SetBatch(np.array([[-1.0, -2.0], [-3.0, -4.0], [7.0, 8.0]]), [2, 1])
        assert np.array_equal(evaluate(SetPool("max"), negatives), [[-1.0, -2.0], [7.0, 8.0]])


# small versions of each experiment's default model, for datasets of these channel counts
MODEL_CASES = {
    "mnist_sum": ({"model.width": "8", "model.trunk": "8"}, 5),
    "pointcloud": ({"model.widths": "8,8", "model.trunk": "6"}, 3),
    "setregression": ({"model.widths": "8,8,1"}, 4),
}


def experiment_model(experiment, seed, **settings):
    base, k = MODEL_CASES[experiment]
    if experiment == "mnist_sum":
        data = LabeledSetDataset(np.zeros((3, k)), [np.arange(3)], set_labels=np.array([0]), num_classes=28)
    else:
        data = LabeledSetDataset(np.zeros((2, k)), [np.arange(2)], set_labels=np.array([0]), num_classes=4)
    values = {"experiment": experiment, "seed": str(seed), **base, **settings}
    return build_experiment_model(ExperimentConfig(values), data)


CARDS = st.lists(st.integers(2, 9), min_size=1, max_size=4)
SEEDS = st.integers(0, 1000)


def model_case(experiment, cards, seed, **settings):
    """(model, batch, rng) for the experiment, one set per entry of ``cards``
    with that many members; mnist_sum sets have exactly three members."""
    k = MODEL_CASES[experiment][1]
    if experiment == "mnist_sum":
        cards = [3] * len(cards)
    rng = np.random.default_rng(seed)
    return experiment_model(experiment, seed, **settings), SetBatch(rng.normal(size=(sum(cards), k)), cards), rng


@st.composite
def model_cases(draw, experiment, **settings):
    return model_case(experiment, draw(CARDS), draw(SEEDS), **settings)


class TestModelProperties:
    @pytest.mark.parametrize("experiment", list(MODEL_CASES))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_model_equivariant_or_invariant(self, experiment, data):
        model, batch, rng = data.draw(model_cases(experiment))
        assert_equivariant(lambda b: evaluate(model, b), batch, rng)

    @pytest.mark.parametrize("experiment", list(MODEL_CASES))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_model_segment_isolation(self, experiment, data):
        model, batch, _ = data.draw(model_cases(experiment))
        assert_isolated(lambda b: evaluate(model, b), batch)

    @pytest.mark.parametrize("experiment", list(MODEL_CASES))
    def test_tape_records_the_gradient_graph_only(self, experiment):
        model, rng = experiment_model(experiment, 0), np.random.default_rng(0)
        batch = SetBatch(rng.normal(size=(6, MODEL_CASES[experiment][1])), [3, 3])  # mnist_sum sets have 3 members
        tape = ad.Tape()
        x = tape.constant(batch.values)
        model.apply(tape, x, batch.segments, bind(tape, model.params()), rng)
        assert len(tape.nodes) > len(tape.variables) and x not in tape.nodes
        assert all(n.op == "variable" or any(p.requires_grad for p in n.parents) for n in tape.nodes)
        tapes = []

        class Spy:
            params = model.params

            def apply(self, tape, *args, **options):
                tapes.append(tape)
                return model.apply(tape, *args, **options)

        evaluate(Spy(), batch)
        assert tapes[0].nodes == [] and tapes[0].variables == []


def gradient_report(module, batch, rng, tie=False):
    """gradient_check of a random linear functional of ``module``'s output,
    over its parameters and the member rows. With ``tie`` every set's first
    two members are set to the set's largest value in every channel, so each
    max over the input meets an exact tie.

    The functional's weights are scaled to keep the loss near 1: the central
    difference's rounding error grows with the loss and must stay well below
    the tolerance on gradients just above ``gradient_check``'s scale floor.
    """
    values = {p.name: p.value for p in module.params()}
    values["x"] = np.array(batch.values)
    if tie:
        for start, members in zip(np.cumsum(batch.cardinalities) - batch.cardinalities, batch_sets(batch)):
            values["x"][start : start + 2] = members.max(axis=0)
    out = evaluate(module, batch)
    weights = rng.normal(size=out.shape) / np.sqrt(out.size)

    def build(tape, bound):
        return sum_all(tape, mul(tape, module.apply(tape, bound["x"], batch.segments, bound), weights))

    return gradient_check(build, values, step=1e-5, tolerance=1e-4)


GRADIENT = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SMALL_MODELS = {"mnist_sum": {"model.width": "4", "model.trunk": "4"},
                "pointcloud": {"model.widths": "4,3", "model.trunk": "3"},
                "setregression": {"model.widths": "4,3,1"}}


class TestGradientCheckProperty:
    @pytest.mark.parametrize("form", FORMS)
    @GRADIENT
    @given(st.data())
    def test_equivariant_layer(self, form, data):
        batch, rng = data.draw(packed_batches(FORMS[form], max_size=6, max_channels=3))
        layer = layer_case(data.draw, form, batch_channels(batch), max_out=3)
        tie = data.draw(st.booleans())
        report = gradient_report(layer, batch, rng, tie)
        assert report.passed, report.failures[:3]
        if tie:
            assert report.entries_flagged > 0

    @pytest.mark.parametrize("kind", ["sum", "max", "mean"])
    @GRADIENT
    @given(packed_batches(max_size=6, max_channels=3), st.booleans())
    def test_set_pool(self, kind, case, tie):
        batch, rng = case
        report = gradient_report(SetPool(kind), batch, rng, tie)
        assert report.passed, report.failures[:3]
        if tie and kind == "max":
            assert report.entries_flagged > 0
        if kind != "max":
            assert report.entries_flagged == 0

    @GRADIENT
    @given(packed_batches(max_size=6, max_channels=3))
    def test_normalize(self, case):
        batch, rng = case
        report = gradient_report(NormalizeSets(), batch, rng)
        assert report.passed, report.failures[:3]

    @pytest.mark.parametrize("experiment", list(MODEL_CASES))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cards=CARDS, seed=SEEDS)
    # mnist_sum: a member is its set's max in every channel, so its elu input
    # is beta, which starts at 0, and beta's probes straddle elu's kink
    @example(cards=[3, 3, 3], seed=40)
    def test_model(self, experiment, cards, seed):
        model, batch, rng = model_case(experiment, cards, seed, **SMALL_MODELS[experiment])
        report = gradient_report(model, batch, rng)
        assert report.passed, report.failures[:3]

    def test_model_elu_kink_is_flagged(self, monkeypatch):
        # the draw above: the probes that straddle 0 are left out, the rest
        # pass, and a wrong elu derivative still fails
        def report():
            return gradient_report(*model_case("mnist_sum", [3, 3, 3], 40, **SMALL_MODELS["mnist_sum"]))

        right = report()
        assert right.passed and 0 < right.entries_flagged < right.entries_checked
        grad = tensor_module.elementwise_grad
        monkeypatch.setattr(tensor_module, "elementwise_grad",
                            lambda x, fn, out: grad(x, fn, out) * (1.01 if fn == "elu" else 1.0))
        assert not report().passed


def bits(a):
    """The float64 entries' bit patterns: equal exactly when the values are the same to the bit, -0.0 included."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def fused_cases(draw):
    """(layer, values, seg, weights, x_is_variable): an ``EquivariantLayer``
    or a ``Dense`` layer with any activation, on an equal-size or ragged
    batch, with ``weights`` for a linear loss on the output. Inputs drawn from
    a few levels tie the maxima and put elu's input at 0; large parameters
    saturate tanh and sigmoid, so many of their derivatives are +-0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cards = [draw(st.integers(1, 6))] * sets
    else:
        cards = draw(st.lists(st.integers(1, 6), min_size=sets, max_size=sets))
    k_in, k_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (sum(cards), k_in)
    if draw(st.booleans()):
        values = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
    else:
        values = rng.normal(size=shape)
    activation = draw(st.sampled_from(tensor_module.NONLINEARITIES))
    if draw(st.booleans()):
        layer = Dense(k_in, k_out, activation, rng)
    else:
        layer = EquivariantLayer(k_in, k_out, activation, rng=rng)
    scale = draw(st.sampled_from([1.0, 50.0]))
    for p in layer.params():
        p.value = rng.normal(scale=scale, size=p.value.shape)
    weights = rng.normal(size=(shape[0], k_out))
    return layer, values, ad.Segments(cards), weights, draw(st.booleans())


class TestFusedPreActivation:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fused_cases())
    def test_fused_node_matches_the_composite_bit_for_bit(self, case):
        layer, values, seg, weights, x_is_variable = case

        def run(forward):
            tape = ad.Tape()
            bound = bind(tape, layer.params())
            x = tape.variable(values, "x") if x_is_variable else tape.constant(values)
            out = forward(tape, x, bound)
            loss = sum_all(tape, mul(tape, out, weights))
            return out.value, ad.backward(tape, loss), tape.nodes

        fused = run(lambda tape, x, bound: layer.apply(tape, x, seg, bound))
        chain = run(lambda tape, x, bound: nonlinearity(tape, composite_pre_activation(tape, layer, x, seg, bound),
                                                        layer.activation))
        assert np.array_equal(bits(fused[0]), bits(chain[0]))
        assert fused[1].keys() == chain[1].keys()
        for name, grad in chain[1].items():
            assert np.array_equal(bits(fused[1][name]), bits(grad)), name
        layer_ops = [n.op for n in fused[2] if n.op not in ("variable", "mul", "sum_all")]
        assert layer_ops == ["affine" if isinstance(layer, Dense) else "max_centred_affine"]
        assert len(fused[2]) < len(chain[2])

    @pytest.mark.parametrize("kind", ["equivariant", "dense"])
    def test_the_pre_activation_is_checked_before_tanh(self, kind):
        # a 1e308 weight, set after the variable's own check, takes one product
        # entry to -inf, which tanh would map to -1.0
        if kind == "equivariant":
            layer, weight, op = EquivariantLayer(1, 1, "tanh"), "eq.Gamma", "max_centred_affine"
        else:
            layer, weight, op = Dense(1, 1, "tanh"), "dense.W", "affine"
        tape = ad.Tape()
        bound = bind(tape, layer.params())
        bound[weight].value[...] = 1e308
        x = tape.constant([[-5.0], [0.0]])  # the set's max is 0, so centring leaves x as it is
        with pytest.raises(NumericError, match=rf"node#\d+\[{op}\]: 1 non-finite"):
            layer.apply(tape, x, ad.Segments([2]), bound)


class TestSetPool:
    def test_sum_example(self):
        assert np.array_equal(evaluate(SetPool("sum"), single_set([[1.0, 2.0], [3.0, 4.0]])), [[4.0, 6.0]])

    def test_max_invariant_under_permutation(self):
        rng = np.random.default_rng(3)
        batch = single_set(rng.normal(size=(6, 2)))
        base = evaluate(SetPool("max"), batch)
        for _ in range(10):
            p = rng.permutation(6)
            assert np.array_equal(evaluate(SetPool("max"), permute_members(batch, [p])), base)

    def test_unknown_kind(self):
        with pytest.raises(DimensionError):
            SetPool("median")


def dropout_mask(drop, rng, cards, shape):
    """The scaled keep mask ``drop`` draws from ``rng`` for [rows, K] rows of
    sets with ``cards`` members: its training output on ones."""
    tape = ad.Tape()
    return drop.apply(tape, tape.constant(np.ones(shape)), ad.Segments(cards), {}, rng).value


class TestDropout:
    def test_rate_zero_identity(self):
        batch = single_set(np.arange(6.0).reshape(3, 2))
        tape = ad.Tape()
        x = tape.constant(batch.values)
        assert Dropout(0.0, True).apply(tape, x, batch.segments, {}, np.random.default_rng(0)) is x

    def test_eval_time_identity(self):
        batch = single_set(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(evaluate(Dropout(0.9, True), batch), batch.values)

    def test_training_drops_whole_channels_per_set(self):
        rate = 0.5
        batch = SetBatch(np.ones((17, 6)), [5, 2, 6, 4])
        tape = ad.Tape()
        out = Dropout(rate, True).apply(tape, tape.constant(batch.values), batch.segments, {},
                                        np.random.default_rng(3)).value
        assert set(np.unique(out)) <= {0.0, 1.0 / (1.0 - rate)}
        for rows in batch_sets(SetBatch(out, batch.cardinalities)):
            assert np.array_equal(rows, np.broadcast_to(rows[:1], rows.shape))  # same mask for every member

    def test_simultaneous_mask_constant_across_members(self):
        rng = np.random.default_rng(1)
        drop = Dropout(0.5, simultaneous=True)
        cards = np.array([7, 3, 1, 5])
        for _ in range(100):
            mask = dropout_mask(drop, rng, cards, (16, 6))
            assert mask.shape == (16, 6)
            for rows in batch_sets(SetBatch(mask, cards)):  # one value per (set, channel)
                assert np.array_equal(rows, np.broadcast_to(rows[:1], rows.shape))

    def test_per_member_mask_varies_across_members(self):
        rng = np.random.default_rng(2)
        drop = Dropout(0.5, simultaneous=False)
        mask = dropout_mask(drop, rng, [50, 50], (100, 4))
        assert mask.shape == (100, 4)
        assert not all(np.allclose(mask[0], mask[i]) for i in range(50))

    def test_mask_draw_shapes(self):
        # per-set masks draw [B, K], per-member masks [B, max cardinality, K]
        # of which each set keeps its first rows, pooled rows [B, K]; training
        # runs depend on these rng streams
        cards, rate = np.array([3, 1, 2]), 0.4

        def stream(shape):
            return (np.random.default_rng(9).random(shape) >= rate) / (1.0 - rate)

        ids, pos = np.repeat(np.arange(3), cards), np.array([0, 1, 2, 0, 0, 1])
        shared = dropout_mask(Dropout(rate, True), np.random.default_rng(9), cards, (6, 4))
        assert np.array_equal(shared, stream((3, 4))[ids])
        own = dropout_mask(Dropout(rate, False), np.random.default_rng(9), cards, (6, 4))
        assert np.array_equal(own, stream((3, 3, 4))[ids, pos])
        for simultaneous in (True, False):
            pooled = dropout_mask(Dropout(rate, simultaneous), np.random.default_rng(9), cards, (3, 4))
            assert np.array_equal(pooled, stream((3, 4)))

    @pytest.mark.parametrize("simultaneous, rows", [(True, 6), (False, 6), (True, 3)],
                             ids=["shared", "per_member", "set_rows"])
    def test_one_node_whose_gradient_is_its_mask(self, monkeypatch, simultaneous, rows):
        # the mask is 0 or 1 / (1 - rate) by construction: only the product is scanned
        scanned = []
        monkeypatch.setattr(tensor_module, "ensure_finite", lambda arr, where: scanned.append(where) or arr)
        drop, cards = Dropout(0.4, simultaneous), np.array([3, 1, 2])
        mask = dropout_mask(drop, np.random.default_rng(9), cards, (rows, 4))
        tape = ad.Tape()
        x = tape.variable(np.random.default_rng(1).normal(size=(rows, 4)), "x")
        del scanned[:]
        out = drop.apply(tape, x, ad.Segments(cards), {}, np.random.default_rng(9))
        assert tape.nodes == [x, out] and out.op == "dropout" and len(scanned) == 1
        assert np.array_equal(bits(out.value), bits(x.value * mask))
        assert np.array_equal(bits(ad.backward(tape, sum_all(tape, out))["x"]), bits(mask))

    def test_an_overflowing_product_is_refused(self):
        tape = ad.Tape()
        x = tape.variable(np.full((2, 1), 1e308), "x")
        with pytest.raises(NumericError, match=r"node#\d+\[dropout\]: 2 non-finite"):
            # this draw keeps the channel, so both entries become 1e308 / 0.5
            Dropout(0.5).apply(tape, x, ad.Segments([2]), {}, np.random.default_rng(0))

    def test_monte_carlo_mean_matches_identity(self):
        # inverted dropout is unbiased: the mask average approaches 1 within 3 sigma
        rng = np.random.default_rng(5)
        rate = 0.3
        drop = Dropout(rate, simultaneous=True)
        trials = 10_000
        acc = np.zeros((2, 4))
        for _ in range(trials):
            acc += dropout_mask(drop, rng, [3, 3], (6, 4))[[0, 3]]
        mean = acc / trials
        keep = 1.0 - rate
        sigma = np.sqrt(rate / keep / trials)  # std of the scaled Bernoulli mean
        assert np.max(np.abs(mean - 1.0)) < 3.0 * sigma


class TestDense:
    def test_identity_case(self):
        layer = Dense(3, 3)
        layer.w.value = np.eye(3)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(evaluate(layer, SetBatch(x, [2])), x)

    def test_zero_bias_matches_matmul(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 2, rng=rng)
        x = rng.normal(size=(5, 4))
        assert np.allclose(evaluate(layer, SetBatch(x, [5])), x @ layer.w.value)

    def test_reference_loop(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, "tanh")
        w = layer.w.value = rng.normal(size=(3, 2))
        b = layer.b.value = rng.normal(size=2)
        x = rng.normal(size=(4, 3))
        want = np.empty((4, 2))
        for i in range(4):
            for j in range(2):
                want[i, j] = np.tanh(sum(x[i, k] * w[k, j] for k in range(3)) + b[j])
        got = evaluate(layer, SetBatch(x, [4]))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            evaluate(Dense(3, 3), SetBatch(np.ones((2, 4)), [2]))
        with pytest.raises(DimensionError):
            Dense(3, 3, "relu")


class TestNormalize:
    def test_already_normalized_unchanged(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        x = x - x.mean(axis=0)
        x = x / np.sqrt((x**2).mean())
        out = evaluate(NormalizeSets(), single_set(x))
        assert np.max(np.abs(out - x)) < 1e-6

    def test_postconditions(self):
        rng = np.random.default_rng(8)
        batch = SetBatch(rng.normal(2.0, 3.0, size=(16, 4)), [9, 5, 2])
        for real in batch_sets(SetBatch(evaluate(NormalizeSets(), batch), batch.cardinalities)):
            assert np.max(np.abs(real.mean(axis=0))) < 1e-9
            assert (real**2).mean() == pytest.approx(1.0, abs=1e-6)

    def test_translation_invariant(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(6, 3))
        shift = np.array([5.0, -2.0, 100.0])
        a = evaluate(NormalizeSets(), single_set(vals))
        b = evaluate(NormalizeSets(), single_set(vals + shift))
        assert np.max(np.abs(a - b)) < 1e-6

    def test_singleton_set_rejected(self):
        with pytest.raises(DegenerateSetError):
            evaluate(NormalizeSets(), SetBatch(np.ones((4, 2)), [3, 1]))

    @PROPERTY
    @given(packed_batches(max_size=12, max_channels=4), st.booleans(), st.booleans())
    def test_one_node_with_the_bits_of_the_chain(self, case, equal_sizes, shifted):
        batch, rng = case
        if equal_sizes:
            batch = SetBatch(rng.normal(size=(3 * batch.cardinalities[0], batch_channels(batch))),
                             [batch.cardinalities[0]] * 3)
        # far from 0, the centring cancels most of each value's bits
        values = batch.values * 10.0 ** rng.integers(-6, 6, size=(len(batch.values), 1)) + shifted * 1e6
        weights = rng.normal(size=values.shape)

        def run(normalize):
            tape = ad.Tape()
            x = tape.variable(values, "x")
            out = normalize(tape, x, batch.segments, NormalizeSets.eps)
            return out.value, ad.backward(tape, sum_all(tape, mul(tape, out, weights)))["x"], [n.op for n in tape.nodes]

        node, chain = run(ad.normalize_sets), run(normalize_sets_chain)
        assert np.array_equal(bits(node[0]), bits(chain[0]))
        assert np.array_equal(bits(node[1]), bits(chain[1]))
        assert node[2] == ["variable", "normalize_sets", "mul", "sum_all"]

    @pytest.mark.parametrize("values", [[[1e200], [-1e200]], [[1.7e308], [1.7e308]]], ids=["squares", "sums"])
    def test_an_overflow_is_refused_naming_the_node(self, values):
        tape = ad.Tape()
        with pytest.raises(NumericError, match=r"node#\d+\[normalize_sets\]: 1 non-finite"):
            NormalizeSets().apply(tape, tape.variable(values, "x"), ad.Segments([2]), {})


class TestEvaluatePieces:
    """``evaluate`` runs a batch of more than 2,048 member rows in pieces of
    whole sets, in set order, and joins their outputs."""

    class Spy:
        """A module that passes its input through and records the
        cardinalities and the input array of each forward."""

        def __init__(self):
            self.calls = []

        def params(self):
            return []

        def apply(self, tape, x, seg, bound, rng=None):
            self.calls.append((seg.cards.tolist(), x.value))
            return x

    @pytest.mark.parametrize(
        "cards, pieces",
        [
            ([1000, 1000, 100, 2048, 5, 3000, 10], [[1000, 1000], [100], [2048], [5], [3000], [10]]),
            ([100] * 64, [[100] * 20] * 3 + [[100] * 4]),
            ([2049], [[2049]]),
            ([1024, 1024], [[1024, 1024]]),
        ],
        ids=["ragged", "pointcloud", "one-large-set", "at-the-cap"],
    )
    def test_pieces_end_at_set_boundaries(self, cards, pieces):
        batch = SetBatch(np.arange(float(sum(cards)))[:, None], cards)
        spy = self.Spy()
        out = evaluate(spy, batch)
        assert [c for c, _ in spy.calls] == pieces
        assert all(np.shares_memory(x, batch.values) for _, x in spy.calls)  # views, not copies
        assert np.array_equal(out, batch.values)

    @pytest.mark.parametrize("experiment", ["pointcloud", "setregression"])
    def test_a_model_gives_the_values_of_one_pass(self, experiment):
        # to 1e-12, not to the bit: a product's row can get other bits in a
        # product of another row count (the default models' are pinned to
        # the bit in test_train.py)
        rng = np.random.default_rng(3)
        cards = rng.integers(300, 900, size=8)
        batch = SetBatch(rng.normal(size=(cards.sum(), MODEL_CASES[experiment][1])), cards)
        model = experiment_model(experiment, 0)
        pieces, whole = evaluate(model, batch), evaluate_whole(model, batch)
        assert pieces.shape == whole.shape
        assert np.max(np.abs(pieces - whole)) <= 1e-12 * max(1.0, np.max(np.abs(whole)))


class TestLinearTime:
    """The paper's layer costs time linear in the size of each set. Here that
    is checked by counts, which do not vary from run to run: a training
    forward and backward through ``NormalizeSets``, an ``EquivariantLayer``
    and a ``SetPool`` of each kind, at a fixed number of sets B and channels
    K, records the same nodes and calls the methods of ``Segments`` as often
    for sets of 10 members as for sets of 10,000, and the bytes of its node
    values are one affine function of the member count M, equal-size and
    ragged batches alike."""

    B, K = 4, 3

    def step(self, monkeypatch, kind, cards):
        """(recorded nodes, their value bytes, calls per ``Segments`` method)
        of one step over sets of ``cards`` members."""
        calls = {}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return method(*args, **kwargs)
            return wrapper

        for name, method in list(vars(ad.Segments).items()):
            if callable(method) and not name.startswith("__"):
                monkeypatch.setattr(ad.Segments, name, counted(name, method))
        rng = np.random.default_rng(0)
        layers = [NormalizeSets(), EquivariantLayer(self.K, self.K, "tanh", rng=rng), SetPool(kind)]
        batch = SetBatch(rng.normal(size=(sum(cards), self.K)), cards)
        tape = ad.Tape()
        bound = bind(tape, [p for layer in layers for p in layer.params()])
        h = tape.variable(batch.values, "x")
        for layer in layers:
            h = layer.apply(tape, h, batch.segments, bound)
        ad.backward(tape, sum_all(tape, h))
        monkeypatch.undo()
        return len(tape.nodes), sum(node.value.nbytes for node in tape.nodes), calls

    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    @pytest.mark.parametrize("kind", ["sum", "max", "mean"])
    def test_counts_are_constant_and_bytes_affine_in_the_members(self, monkeypatch, kind, ragged):
        sizes = (10, 100, 1000, 10000)
        cards = [[n, n // 2, n // 5, 2] if ragged else [n] * self.B for n in sizes]
        steps = [self.step(monkeypatch, kind, c) for c in cards]
        members = [sum(c) for c in cards]
        assert len({nodes for nodes, _, _ in steps}) == 1
        assert all(calls == steps[0][2] for _, _, calls in steps) and steps[0][2]
        # bytes = a + b M, exactly, with b from the first two sizes
        (m0, m1), (y0, y1) = members[:2], [nbytes for _, nbytes, _ in steps[:2]]
        per_member = (y1 - y0) // (m1 - m0)
        assert per_member * (m1 - m0) == y1 - y0
        assert [nbytes - per_member * m for (_, nbytes, _), m in zip(steps, members)] == [y0 - per_member * m0] * 4
        assert per_member == 3 * self.K * 8  # x, its normalisation and the layer's output: K float64 each


def hex_payload(*values):
    return np.array(values, dtype="<f8").tobytes().hex()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = [Param("a.W", rng.normal(size=(3, 4))), Param("a.b", rng.normal(size=4)), Param("s", np.array(2.5))]
        path = tmp_path / "ckpt.txt"
        save_params(path, params, {"val_metric": "0.75", "epoch": "3"})
        arrays, meta = load_params(path)
        assert meta == {"val_metric": "0.75", "epoch": "3"}
        for p in params:
            assert np.array_equal(arrays[p.name], p.value)
        fresh = [Param(p.name, np.zeros_like(p.value)) for p in params]
        restore_params(fresh, arrays)
        for p, q in zip(params, fresh):
            assert np.array_equal(p.value, q.value)

    def test_round_trip_edge_values_bit_exact(self, tmp_path):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0])
        params = [
            Param("edge", edge),
            Param("scalar", np.array(-0.0)),
            Param("empty", np.zeros((0, 4))),
            Param("grid", edge[:8].reshape(2, 2, 2)),
        ]
        path = tmp_path / "edge.txt"
        save_params(path, params)
        arrays, _ = load_params(path)
        for p in params:
            got = arrays[p.name]
            assert got.shape == p.value.shape and got.dtype == np.float64
            assert got.tobytes() == p.value.tobytes()  # bitwise: keeps the sign of -0.0
            got[...] = 1.0  # loaded arrays are writable

    def test_payload_is_little_endian_float64_hex(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_params(path, [Param("w", np.array([[1.0, -2.0]]))], {"epoch": "1"})
        assert path.read_text() == (
            "setnet-params 2\nmeta epoch 1\nparam w 2 1 2\n000000000000f03f00000000000000c0\n"
        )

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(FormatError):
            load_params(path)

    def test_format_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text("setnet-params 1\nparam w 1 2\n1.0 2.0\n")
        with pytest.raises(FormatError, match="unsupported checkpoint format version '1'"):
            load_params(path)

    def test_truncated_param(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text(f"setnet-params 2\nparam w 1 4\n{hex_payload(1.0, 2.0)}\n")
        with pytest.raises(FormatError, match="expected 4 values"):
            load_params(path)

    @pytest.mark.parametrize(
        "body",
        [
            "param w x 4\n" + hex_payload(1.0) * 4,  # non-integer rank
            "param w 1 x\n" + hex_payload(1.0) * 4,  # non-integer dim
            "param w 2 -1 -2\n" + hex_payload(1.0) * 2,  # negative dims
            "param w 1 2 2\n" + hex_payload(1.0) * 2,  # more dims than the rank
            "param w\n",  # no rank
            "param w 1 1\n",  # no payload line
            "param w 1 1\n3ff000000000000g",  # non-hex digit
            "param w 1 1\n3ff00000000000000",  # odd length
            "param w 1 1\n3ff0000000000000ab",  # not a whole float64
            "meta epoch\n",
            "weights 1 2\n",
        ],
    )
    def test_malformed_entry_raises_format_error(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text("setnet-params 2\n" + body + "\n")
        with pytest.raises(FormatError):
            load_params(path)

    @pytest.mark.parametrize(
        "body, line, what",
        [
            (f"param a 1 1\n{hex_payload(1.0)}\nparam a 1 1\n{hex_payload(2.0)}\n", 4, "repeated param 'a'"),
            ("meta epoch 1\nmeta epoch 2\n", 3, "repeated meta key 'epoch'"),
        ],
        ids=["param", "meta"],
    )
    def test_repeated_entry_raises_format_error_at_its_line(self, tmp_path, body, line, what):
        path = tmp_path / "dup.txt"
        path.write_text("setnet-params 2\n" + body)
        with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: {what}")):
            load_params(path)

    def test_non_utf8_raises_format_error(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"setnet-params 2\nmeta k \xff\xfe\n")
        with pytest.raises(FormatError):
            load_params(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=40),
                st.sampled_from(["param w 1 2", "param w 0", "param w 2 1 1", "meta a b", "",
                                 hex_payload(1.0), hex_payload(1.0, -0.0), "3ff0", "param"]),
                st.lists(st.sampled_from(["param", "meta", "w", "0", "1", "2", "-1", "x", "1e3", "ff"]),
                         max_size=5).map(" ".join),
            ),
            max_size=8,
        )
    )
    def test_arbitrary_text_loads_or_raises_format_error(self, tmp_path, records):
        path = tmp_path / "fuzz.txt"
        path.write_text("setnet-params 2\n" + "\n".join(records), encoding="utf-8")
        try:
            arrays, meta = load_params(path)
        except FormatError:
            return
        assert all(a.dtype == np.float64 for a in arrays.values())
        assert all(isinstance(v, str) for v in meta.values())

    def test_missing_param_on_restore(self, tmp_path):
        path = tmp_path / "ok.txt"
        save_params(path, [Param("w", np.ones(2))])
        arrays, _ = load_params(path)
        with pytest.raises(FormatError):
            restore_params([Param("v", np.ones(2))], arrays)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.txt"
        save_params(path, [Param("w", np.arange(4.0))], {"epoch": "1"})
        before = path.read_bytes()

        class DiskFull(io.StringIO):
            def write(self, text):
                with builtins.open(self.target, "w") as fh:
                    fh.write(text[: len(text) // 2])  # the first half reaches the disk
                raise OSError(28, "No space left on device")

        def failing_open(target, *args, **kwargs):
            fh = DiskFull()
            fh.target = target
            return fh

        monkeypatch.setattr(data_module, "open", failing_open, raising=False)  # data.write_whole opens the file
        with pytest.raises(OSError, match="No space"):
            save_params(path, [Param("w", np.arange(1000.0))], {"epoch": "2"})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]

    @staticmethod
    def default_mnist_params():
        """The default mnist_sum model's parameters with its Adam moments, as
        train_loop checkpoints them: 6.6 MB of text for 3.3 MB of arrays."""
        data = LabeledSetDataset(np.zeros((3, 784)), [np.arange(3)], set_labels=np.array([0]), num_classes=28)
        model = build_experiment_model(ExperimentConfig({"experiment": "mnist_sum"}), data)
        opt = Optimizer("adam", model.params())
        return model.params() + [Param(name, arr) for name, arr in opt.state_arrays().items()]

    def test_write_streams_the_text(self, tmp_path):
        params = self.default_mnist_params()
        path = tmp_path / "ckpt.txt"
        _, peak = peak_bytes(save_params, path, params, {"epoch": "1"})
        assert peak <= path.stat().st_size

    def test_read_streams_the_text(self, tmp_path):
        params = self.default_mnist_params()
        path = tmp_path / "ckpt.txt"
        save_params(path, params, {"epoch": "1"})
        (arrays, _), peak = peak_bytes(load_params, path)
        assert all(np.array_equal(arrays[p.name], p.value) for p in params)
        assert peak <= 7_000_000

    def test_rejected_meta_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_params(path, [Param("w", np.ones(3))])
        before = path.read_bytes()
        with pytest.raises(FormatError):
            save_params(path, [Param("w", np.zeros(3))], {"note": "two words"})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]


class TestSetBatch:
    def test_cardinality_bounds(self):
        with pytest.raises(DimensionError):
            SetBatch(np.ones((3, 2)), [4])
        with pytest.raises(DimensionError):
            SetBatch(np.ones((3, 2)), [1, 1])
        with pytest.raises(DimensionError):
            SetBatch(np.ones((1, 3, 2)), [3])  # one row per member, not [B, N, K]

    def test_sets_split_rows_in_order(self):
        values = np.arange(12.0).reshape(6, 2)
        batch = SetBatch(values, [1, 3, 2])
        assert (batch.num_sets, batch.max_size, batch_channels(batch)) == (3, 3, 2)
        assert [s.tolist() for s in batch_sets(batch)] == [
            values[:1].tolist(), values[1:4].tolist(), values[4:].tolist()
        ]

    def test_the_constructor_keeps_its_array_and_makes_it_read_only(self):
        values = np.arange(6.0).reshape(3, 2)
        batch = SetBatch(values, [2, 1])
        assert batch.values is values and not values.flags.writeable
        assert not batch.cardinalities.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 7.0
        with pytest.raises(DimensionError):
            SetBatch(np.ones((3, 2)), [2, 2])

    def test_the_constructor_makes_no_finiteness_scan(self):
        values = np.array([[np.nan, 1.0], [2.0, np.inf]])
        assert SetBatch(values, [2]).values is values  # the tape's constant scans it

    def test_permute_members_respects_cardinality(self):
        rng = np.random.default_rng(0)
        batch = SetBatch(rng.normal(size=(5, 2)), [3, 2])
        p, q = np.array([2, 0, 1]), np.array([1, 0])
        out = permute_members(batch, [p, q])
        assert np.array_equal(out.values[:3], batch.values[p])
        assert np.array_equal(out.values[3:], batch.values[3:][q])
        with pytest.raises(DimensionError):
            permute_members(batch, [q, p])
