import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from setnet import autodiff as ad
from setnet import tensor as tensor_module
from setnet import train as train_module
from setnet.data import (
    LabeledSetDataset,
    build_sum_sets,
    load_idx_images,
    synth_clusters,
    synth_digits,
    synth_shapes,
)
from setnet.errors import ConfigError, ContractError, DimensionError, FormatError, NumericError
from setnet.layers import Dense, EquivariantLayer, SetBatch, SetPool, bind, evaluate, load_params, save_params
from setnet.optim import Optimizer
from setnet.train import (
    EXPERIMENTS,
    MNIST_VARIANTS,
    ExperimentConfig,
    MetricsRecord,
    SetModel,
    activation_maximization,
    build_experiment_data,
    build_experiment_model,
    config_lines,
    default_config,
    evaluate_classifier,
    evaluate_regressor,
    make_set_batch,
    member_targets,
    parse_config_text,
    resolve_config,
    scatter_metric,
    start_training,
    train_loop,
)

from helpers import (
    count_params,
    evaluate_whole,
    gradient_check,
    negated_channel_mean_chain,
    peak_bytes,
    permute_members,
    save_cluster_catalog,
    sets_of,
    write_idx_images,
    write_idx_labels,
)


def model_for(experiment, dataset, **settings):
    """The experiment's model for ``dataset``; ``settings`` maps config keys
    with ``_`` for ``.`` (model_widths="8,1") to values."""
    values = {"experiment": experiment}
    values.update({k.replace("_", ".", 1): str(v) for k, v in settings.items()})
    return build_experiment_model(ExperimentConfig(values), dataset)


def training_output(model, tape, batch, rng=None):
    bound = bind(tape, model.params())
    return model.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, rng)


def gradient_report(model, loss, batch, rng_seed=None):
    """``gradient_check`` over ``model``'s parameters of ``loss(tape, output)``, with
    dropout (if any) drawn by a fresh ``default_rng(rng_seed)`` in every probe."""

    def build(tape, bound):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        return loss(tape, model.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, rng))

    return gradient_check(build, {p.name: p.value for p in model.params()}, step=1e-5, tolerance=1e-4)


def tiny_mnist_config(**extra):
    values = {
        "experiment": "mnist_sum",
        "data.source_count": "400",
        "data.train_sets": "60",
        "data.val_sets": "30",
        "train.epochs": "2",
        "train.batch_size": "16",
    }
    values.update(extra)
    return ExperimentConfig(values)


class TestConfig:
    def test_defaults_round_trip_through_text(self):
        for experiment in EXPERIMENTS:
            cfg = default_config(experiment)
            assert parse_config_text(config_lines(cfg), f"{experiment}.cfg") == cfg
            assert ExperimentConfig(cfg).values == cfg

    def test_values_are_parsed_at_load(self):
        cfg = ExperimentConfig({"experiment": "pointcloud", "model.widths": " 8 , 4 ", "data.classes": "cube, torus"})
        assert cfg["model.widths"] == [8, 4]
        assert cfg["data.classes"] == ["cube", "torus"]
        assert cfg["optimizer.lr"] == 0.001 and cfg["train.epochs"] == 25
        assert cfg.values["model.widths"] == " 8 , 4 "  # the text as given, for config.resolved.cfg
        assert "model.variant" not in cfg and "model.variant" in ExperimentConfig({"experiment": "mnist_sum"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"experiment": "mnist_sum", "model.depth": "3"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            default_config("celeba")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"experiment": "mnist_sum", "train.epochs": "three"})

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"experiment": "mnist_sum", "model.variant": "V"})

    def test_mnist_reads_idx_files_when_both_are_set(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(40, 4, 4))
        write_idx_images(tmp_path / "images.idx", images)
        write_idx_labels(tmp_path / "labels.idx", rng.integers(0, 10, size=40))
        files = {"data.images": str(tmp_path / "images.idx"), "data.labels": str(tmp_path / "labels.idx")}
        train, val = build_experiment_data(tiny_mnist_config(**files))
        assert train.channels == val.channels == 16
        pixels = {row.tobytes() for row in np.concatenate(sets_of(train) + sets_of(val))}
        assert pixels <= {row.tobytes() for row in load_idx_images(files["data.images"])}

    def test_mnist_sets_index_one_shared_image_pool(self):
        cfg = tiny_mnist_config()
        train, val = build_experiment_data(cfg)
        assert np.shares_memory(train.rows, val.rows)
        assert train.rows.shape == val.rows.shape == (cfg["data.source_count"], 784)
        for ds in (train, val):
            assert all(m.dtype == np.intp and m.shape == (cfg["data.set_size"],) for m in ds.members)

    @pytest.mark.parametrize("key", ["data.images", "data.labels"])
    def test_mnist_idx_files_are_set_together(self, tmp_path, key):
        with pytest.raises(ConfigError, match="together"):
            build_experiment_data(tiny_mnist_config(**{key: str(tmp_path / "file.idx")}))

    def test_comment_and_blank_lines(self):
        parsed = parse_config_text("# a comment\n\nseed=4  # trailing\n", "seed.cfg")
        assert parsed == {"seed": "4"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="^run.cfg:2: expected key=value, got 'seed 4'$"):
            parse_config_text("experiment=mnist_sum\nseed 4\n", "run.cfg")


class TestMnistModels:
    @pytest.fixture(scope="class")
    def digit_sets(self):
        rng = np.random.default_rng(0)
        images, labels = synth_digits(300, rng)
        return build_sum_sets(images, labels, 3, 40, rng)

    def test_output_dimension_is_28_for_n3(self, digit_sets):
        model = model_for("mnist_sum", digit_sets, model_variant="IV")
        batch = make_set_batch(digit_sets, range(4))
        assert evaluate(model, batch).shape == (4, 28)

    @pytest.mark.parametrize("variant", ["III", "IV"])
    def test_pooled_variants_are_permutation_invariant(self, digit_sets, variant):
        rng = np.random.default_rng(1)
        model = model_for("mnist_sum", digit_sets, model_variant=variant, seed=1)
        batch = make_set_batch(digit_sets, range(6))
        base = evaluate(model, batch)
        for _ in range(5):
            perms = [rng.permutation(3) for _ in range(6)]
            permuted = evaluate(model, permute_members(batch, perms))
            assert np.max(np.abs(permuted - base)) < 1e-8

    @pytest.mark.parametrize("variant", ["I", "II"])
    def test_flat_variants_are_not_invariant(self, digit_sets, variant):
        rng = np.random.default_rng(2)
        model = model_for("mnist_sum", digit_sets, model_variant=variant, seed=2)
        batch = make_set_batch(digit_sets, range(6))
        base = evaluate(model, batch)
        deviations = []
        for _ in range(5):
            perms = [rng.permutation(3) for _ in range(6)]
            permuted = evaluate(model, permute_members(batch, perms))
            deviations.append(np.max(np.abs(permuted - base)))
        assert max(deviations) > 1e-3

    def test_parameter_counts_within_ten_percent(self, digit_sets):
        report = {v: count_params(model_for("mnist_sum", digit_sets, model_variant=v).params()) for v in MNIST_VARIANTS}
        counts = list(report.values())
        assert max(counts) <= 1.1 * min(counts), report

    def test_batch_keeps_its_gather(self, digit_sets, monkeypatch):
        gathers = []

        class Spy(SetBatch):
            def __init__(self, values, cardinalities):
                gathers.append(values)
                super().__init__(values, cardinalities)

        monkeypatch.setattr(train_module, "SetBatch", Spy)
        batch = make_set_batch(digit_sets, [5, 0, 3])
        assert batch.values is gathers[0]  # no second copy
        assert not np.shares_memory(batch.values, digit_sets.rows) and digit_sets.rows.flags.writeable
        assert np.array_equal(batch.values, digit_sets.rows[np.concatenate([digit_sets.members[i] for i in (5, 0, 3)])])

    def test_wrong_cardinality_rejected(self, digit_sets):
        model = model_for("mnist_sum", digit_sets, model_variant="III")
        batch = SetBatch(np.zeros((6, 784)), [4, 2])
        with pytest.raises(DimensionError):
            evaluate(model, batch)


class TestPointCloudModel:
    def test_prepool_shape_and_logits(self):
        rng = np.random.default_rng(0)
        ds = synth_shapes(["sphere", "cube", "cylinder", "torus"], 30, 6, rng)
        model = model_for("pointcloud", ds, model_widths="16,16", model_trunk=8)
        batch = make_set_batch(ds, range(6))
        # the first three layers: NormalizeSets and the two equivariant layers
        assert evaluate(model, batch, upto=3).shape == (6 * 30, 16)
        assert evaluate(model, batch).shape == (6, 4)

    def test_logits_invariant_under_permutation(self):
        rng = np.random.default_rng(1)
        ds = synth_shapes(["sphere", "cube", "cylinder", "torus"], 25, 4, rng)
        model = model_for("pointcloud", ds, model_widths="16,16", model_trunk=8, seed=1)
        batch = make_set_batch(ds, range(4))
        base = evaluate(model, batch)
        perms = [rng.permutation(25) for _ in range(4)]
        permuted = evaluate(model, permute_members(batch, perms))
        assert np.max(np.abs(permuted - base)) < 1e-9

    def test_gradient_check_passes(self):
        rng = np.random.default_rng(2)
        ds = synth_shapes(["sphere", "cube", "cylinder"], 6, 2, rng)
        model = model_for("pointcloud", ds, model_widths="5,4", model_trunk=4, seed=2)
        batch = make_set_batch(ds, range(2))
        report = gradient_report(model, lambda tape, out: ad.softmax_cross_entropy(tape, out, ds.set_labels[:2]), batch)
        assert report.passed, report.failures[:3]


class TestRegressionModel:
    def test_per_member_output_shape(self):
        rng = np.random.default_rng(0)
        ds = synth_clusters(3, (4, 7), rng)
        model = model_for("setregression", ds, model_widths="8,1")
        batch = make_set_batch(ds, range(3))
        assert evaluate(model, batch).shape == (sum(ds.members[i].size for i in range(3)), 1)

    def test_predictions_equivariant(self):
        rng = np.random.default_rng(1)
        ds = synth_clusters(2, (6, 6), rng)
        model = model_for("setregression", ds, model_widths="8,8,1", seed=1)
        batch = make_set_batch(ds, range(2))
        base = evaluate(model, batch)
        perms = [rng.permutation(6) for _ in range(2)]
        permuted = evaluate(model, permute_members(batch, perms))
        assert np.max(np.abs(permuted - permute_members(SetBatch(base, batch.cardinalities), perms).values)) < 1e-9

    def test_masked_loss_ignores_unlabeled(self):
        rng = np.random.default_rng(2)
        ds = synth_clusters(2, (5, 5), rng)
        model = model_for("setregression", ds, model_widths="6,1", seed=2)
        batch = make_set_batch(ds, range(2))
        targets, mask = member_targets(ds, range(2))
        crazy = targets.copy()
        crazy[mask == 0.0] = 1e6  # unlabeled targets must not matter
        def loss_value(t):
            tape = ad.Tape()
            return float(ad.masked_mse(tape, training_output(model, tape, batch), t, mask).value)
        assert loss_value(targets) == loss_value(crazy)

    def test_loss_requires_labels(self):
        rng = np.random.default_rng(3)
        ds = synth_clusters(1, (4, 4), rng)
        model = model_for("setregression", ds, model_widths="4,1", seed=3)
        batch = make_set_batch(ds, range(1))
        targets, _ = member_targets(ds, range(1))
        tape = ad.Tape()
        with pytest.raises(ContractError):
            ad.masked_mse(tape, training_output(model, tape, batch), targets, np.zeros_like(targets))

    def test_parameter_matched_baseline(self):
        ds = synth_clusters(2, (4, 4), np.random.default_rng(4))
        eq = model_for("setregression", ds, model_widths="32,32,1")
        mlp = model_for("setregression", ds, model_widths="32,32,1", model_variant="baseline_mlp")
        assert sum(p.size for p in eq.params()) == sum(p.size for p in mlp.params())

    def test_gradient_check_with_fixed_dropout_mask(self):
        rng = np.random.default_rng(5)
        ds = synth_clusters(2, (4, 4), rng, num_features=17)
        model = model_for("setregression", ds, model_widths="5,1", model_dropout=0.4, seed=5)
        batch = make_set_batch(ds, range(2))
        targets, mask = member_targets(ds, range(2))
        report = gradient_report(model, lambda tape, out: ad.masked_mse(tape, out, targets, mask), batch, rng_seed=0)
        assert report.passed, report.failures[:3]


class TestMetrics:
    def test_scatter_zero_when_exact(self):
        z = np.array([0.2, 0.5, 0.9])
        assert scatter_metric(z, z) == 0.0

    def test_scatter_half(self):
        assert scatter_metric(np.array([0.0]), np.array([1.0])) == 0.5

    def test_scatter_is_mean_of_elementwise(self):
        rng = np.random.default_rng(0)
        z_spec = rng.uniform(0.1, 1.0, size=50)
        z_pred = z_spec + rng.normal(scale=0.05, size=50)
        per_element = [scatter_metric(z_pred[i : i + 1], z_spec[i : i + 1]) for i in range(50)]
        assert scatter_metric(z_pred, z_spec) == pytest.approx(np.mean(per_element), rel=1e-12)

    def test_scatter_contract_errors(self):
        with pytest.raises(ContractError):
            scatter_metric(np.array([]), np.array([]))
        with pytest.raises(ContractError):
            scatter_metric(np.array([0.0]), np.array([-1.5]))

    def test_accuracy(self):
        # pooled sums are the logits: rows [0.9, 0.1] and [0.2, 0.8]
        out = Dense(2, 2, name="out")
        out.w.value = np.eye(2)
        model = SetModel([SetPool("sum"), out], "accuracy", True)
        rows = np.array([[0.5, 0.1], [0.4, 0.0], [0.2, 0.8]])  # the last two sets share their one row
        ds = LabeledSetDataset(rows, [np.arange(2), np.array([2]), np.array([2])], set_labels=np.array([0, 1, 0]),
                               num_classes=2)
        loss, accuracy = evaluate_classifier(model, ds)
        assert accuracy == pytest.approx(2 / 3)
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8]])
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert loss == pytest.approx(-np.mean(np.log(probs[np.arange(3), [0, 1, 0]])), rel=1e-12)

    def test_metrics_line_has_no_wall_time(self):
        rec = MetricsRecord(3, "val", 0.5, "accuracy", 0.75, wall_time=12.3)
        assert "wall" not in rec.line()
        assert rec.line() == "epoch=3 split=val loss=0.5 accuracy=0.75"


class TestTrainLoop:
    def test_non_finite_batch_is_reported_as_input(self):
        cfg = tiny_mnist_config(**{"train.epochs": "1"})
        train_data, val_data = build_experiment_data(cfg)
        model = build_experiment_model(cfg, train_data)
        values = np.ones((3, 784))
        values[1, 5] = np.nan
        with pytest.raises(NumericError, match=r"^constant: 1 non-finite entries"):
            evaluate(model, SetBatch(values, [3]))
        rows = train_data.rows.copy()
        rows[train_data.members[0][0], 7] = np.inf
        train_data = dataclasses.replace(train_data, rows=rows)
        with pytest.raises(NumericError, match=r"^constant: \d+ non-finite entries") as info:
            train_loop(model, cfg, train_data, val_data)
        assert "diverged" not in str(info.value)

    def test_loss_decreases_on_separable_toy(self):
        cfg = tiny_mnist_config(**{"train.epochs": "6", "model.variant": "IV", "data.noise": "0.05"})
        train_data, val_data = build_experiment_data(cfg)
        model = build_experiment_model(cfg, train_data)
        result = train_loop(model, cfg, train_data, val_data)
        train_losses = [r.loss for r in result.records if r.split == "train"]
        assert train_losses[-1] < train_losses[0]

    def test_epoch_count_honored(self):
        cfg = tiny_mnist_config()
        train_data, val_data = build_experiment_data(cfg)
        model = build_experiment_model(cfg, train_data)
        result = train_loop(model, cfg, train_data, val_data)
        assert max(r.epoch for r in result.records) == cfg["train.epochs"]
        assert len([r for r in result.records if r.split == "val"]) == cfg["train.epochs"]

    def test_identical_seeds_identical_metrics(self):
        def run():
            cfg = tiny_mnist_config()
            train_data, val_data = build_experiment_data(cfg)
            model = build_experiment_model(cfg, train_data)
            result = train_loop(model, cfg, train_data, val_data)
            return "\n".join(r.line() for r in result.records)

        assert run() == run()

    def test_resume_continues_bit_identically(self, tmp_path):
        def data_and_model(epochs):
            cfg = tiny_mnist_config(**{"train.epochs": str(epochs)})
            train_data, val_data = build_experiment_data(cfg)
            model = build_experiment_model(cfg, train_data)
            return cfg, train_data, val_data, model

        cfg, tr, va, model = data_and_model(4)
        straight = train_loop(model, cfg, tr, va)

        cfg2, tr2, va2, model2 = data_and_model(2)
        ckpt = tmp_path / "last.txt"
        train_loop(model2, cfg2, tr2, va2, last_checkpoint_path=str(ckpt))
        cfg4, tr4, va4, model4 = data_and_model(4)
        resumed = train_loop(model4, cfg4, tr4, va4, start=start_training(model4, cfg4, tr4, str(ckpt)))

        straight_tail = [r.line() for r in straight.records if r.epoch > 2]
        resumed_lines = [r.line() for r in resumed.records]
        assert resumed_lines == straight_tail
        for p_straight, p_resumed in zip(model.params(), model4.params(), strict=True):
            assert np.array_equal(p_straight.value, p_resumed.value)

    def test_resume_keeps_better_best_checkpoint(self, tmp_path):
        # sgd at lr=1.0 peaks at epoch 3 and gets worse after it, so a resume
        # that forgot the best metric would overwrite checkpoint_best at epoch 4
        def run(epochs, out, resume_from=None):
            cfg = ExperimentConfig({
                "experiment": "setregression",
                "optimizer.kind": "sgd",
                "optimizer.lr": "1.0",
                "data.train_sets": "40",
                "data.val_sets": "20",
                "model.widths": "16,16,1",
                "train.epochs": str(epochs),
            })
            tr, va = build_experiment_data(cfg)
            model = build_experiment_model(cfg, tr)
            out.mkdir(exist_ok=True)
            start = start_training(model, cfg, tr, resume_from)
            return train_loop(model, cfg, tr, va, best_checkpoint_path=str(out / "best.txt"),
                              last_checkpoint_path=str(out / "last.txt"), start=start)

        straight = run(6, tmp_path / "straight")
        assert straight.best_epoch == 3
        run(3, tmp_path / "resumed")
        resumed = run(6, tmp_path / "resumed", resume_from=str(tmp_path / "resumed" / "last.txt"))
        assert resumed.best_epoch == 3
        assert resumed.best_metric == straight.best_metric
        assert (tmp_path / "resumed" / "best.txt").read_bytes() == (tmp_path / "straight" / "best.txt").read_bytes()
        assert (tmp_path / "resumed" / "last.txt").read_bytes() == (tmp_path / "straight" / "last.txt").read_bytes()

    def test_resume_without_training_state_is_format_error(self, tmp_path):
        cfg = tiny_mnist_config()
        tr, va = build_experiment_data(cfg)
        model = build_experiment_model(cfg, tr)
        ckpt = tmp_path / "params_only.txt"
        save_params(ckpt, model.params(), {"epoch": "1"})
        with pytest.raises(FormatError, match="no valid resume state"):
            start_training(model, cfg, tr, str(ckpt))

    def test_best_checkpoint_metadata(self, tmp_path):
        cfg = tiny_mnist_config()
        tr, va = build_experiment_data(cfg)
        model = build_experiment_model(cfg, tr)
        best = tmp_path / "best.txt"
        result = train_loop(model, cfg, tr, va, best_checkpoint_path=str(best))
        arrays, meta = load_params(best)
        assert float(meta["val_metric"]) == result.best_metric
        assert float(meta["best_metric"]) == result.best_metric
        assert int(meta["best_epoch"]) == int(meta["epoch"]) == result.best_epoch
        assert meta["metric_name"] == "accuracy"


class TestActivationMaximization:
    @pytest.fixture(scope="class")
    def small_model(self):
        ds = synth_shapes(["sphere", "cube", "cylinder"], 10, 3, np.random.default_rng(0))
        return model_for("pointcloud", ds, model_widths="8,8", model_trunk=6)

    def test_zero_budget_returns_initialization(self, small_model):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        result = activation_maximization(small_model, 0, 0, m=20, iterations=0, rng=rng_a)
        init = rng_b.uniform(-1.0, 1.0, size=(20, 3))
        assert np.array_equal(result.points, init)
        assert result.iterations == 0

    def test_activation_increases(self, small_model):
        rng = np.random.default_rng(1)
        before = activation_maximization(small_model, 0, 2, m=25, iterations=0, rng=np.random.default_rng(3))
        after = activation_maximization(small_model, 0, 2, m=25, iterations=300, rng=np.random.default_rng(3))
        assert after.activation > before.activation

    def test_result_reports_final_activation(self, small_model):
        result = activation_maximization(small_model, 1, 0, m=15, iterations=50, rng=np.random.default_rng(2))
        assert isinstance(result.activated, bool)
        assert np.isfinite(result.activation)
        assert result.points.shape == (15, 3)

    def test_one_graph_alive_with_the_collector_off(self, monkeypatch, small_model):
        steps = _counting_tapes(monkeypatch)
        gc.disable()
        try:
            activation_maximization(small_model, 0, 0, m=10, iterations=5, rng=np.random.default_rng(0))
        finally:
            gc.enable()
        assert steps == [1] * 5

    @pytest.mark.parametrize("layer, unit, m", [(0, 0, 10), (0, 7, 2), (1, 3, 37)])
    def test_objective_node_has_the_bits_of_the_chain(self, small_model, layer, unit, m):
        # the objective of activation maximization on the points of one set,
        # as one node and as the chain of nodes it replaced
        points = np.random.default_rng(m).uniform(-1.0, 1.0, size=(m, 3))
        ends = [i + 1 for i, l in enumerate(small_model.layers) if isinstance(l, EquivariantLayer)]

        def run(objective):
            tape = ad.Tape()
            x = tape.variable(points, "x")
            bound = {p.name: tape.constant(p.value) for p in small_model.params()}
            h = small_model.apply(tape, x, np.array([m]), bound, upto=ends[layer])
            root = objective(tape, h, unit)
            return root.value, ad.backward(tape, root)["x"]

        (node_value, node_grad), (chain_value, chain_grad) = (run(ad.negated_channel_mean),
                                                              run(negated_channel_mean_chain))
        assert np.array_equal(node_value, chain_value) and node_value.shape == ()
        assert np.array_equal(node_grad, chain_grad)

    def test_bad_unit_rejected(self, small_model):
        with pytest.raises(ContractError):
            activation_maximization(small_model, 0, 99, m=10, iterations=1, rng=np.random.default_rng(0))


class TestEvaluateRegressor:
    def test_observed_only_restricts_scoring(self):
        rng = np.random.default_rng(0)
        ds = synth_clusters(4, (5, 8), rng, labeled_fraction=0.5)
        model = model_for("setregression", ds, model_widths="6,1")
        loss_all, scatter_all = evaluate_regressor(model, ds)
        loss_obs, scatter_obs = evaluate_regressor(model, dataclasses.replace(ds, observed_only=True))
        assert loss_all == loss_obs  # loss is always masked
        assert scatter_all != scatter_obs

    def test_observed_only_without_a_label_is_refused(self):
        ds = synth_clusters(3, (4, 6), np.random.default_rng(0), labeled_fraction=0.0)
        model = model_for("setregression", ds, model_widths="6,1")
        with pytest.raises(ContractError, match="observed label"):
            evaluate_regressor(model, dataclasses.replace(ds, observed_only=True))

    def test_catalog_val_scatter_scores_only_labeled_members(self, tmp_path):
        # a catalog row without a label reads 0.0; scoring it would pick the best checkpoint on a placeholder
        path = tmp_path / "catalog.csv"
        save_cluster_catalog(path, synth_clusters(60, (16, 40), np.random.default_rng(1)))
        config = ExperimentConfig({
            "experiment": "setregression",
            "data.catalog": str(path),
            "data.feature_columns": ",".join(f"f{i}" for i in range(17)),
            "data.label_column": "target",
            "data.mask_column": "has_target",
            "data.cluster_id_column": "cluster_id",
            "train.epochs": "2",
        })
        train_data, val_data = build_experiment_data(config)
        assert train_data.observed_only and val_data.observed_only
        model = build_experiment_model(config, train_data)
        result = train_loop(model, config, train_data, val_data)
        logged = result.records[-1].metric_value  # epoch 2's val scatter, from the final parameters
        everything = range(len(val_data))
        pred = evaluate(model, make_set_batch(val_data, everything))[:, 0]
        targets, mask = member_targets(val_data, everything)
        labeled = mask > 0
        assert 0 < labeled.sum() < labeled.size
        assert logged == pytest.approx(scatter_metric(pred[labeled], targets[labeled]), rel=1e-12)
        assert logged != pytest.approx(scatter_metric(pred, targets), rel=1e-3)


def _counting_tapes(monkeypatch):
    """Count the live tapes at every ``backward``; returns the list of those
    counts, one per training step."""
    live = weakref.WeakSet()
    steps = []
    real_backward = ad.backward

    class CountedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            live.add(self)

    def backward(tape, root):
        steps.append(len(live))
        return real_backward(tape, root)

    monkeypatch.setattr(ad, "Tape", CountedTape)
    monkeypatch.setattr(ad, "backward", backward)
    return steps


class TestStepMemory:
    """Each training step's graph is freed by reference counting within the
    step, so memory follows one step's graph, not the cyclic collector: the
    traced peak of an epoch is at most the largest peak of one of its steps
    plus the peak of its validation pass. A step runs from its
    ``make_set_batch`` to the next one, or to the validation pass, and each
    peak is taken above what was traced when its span began, with the peak
    reset there. The collector is off, so a graph kept past its step adds to
    every later span's start, and the epoch's peak grows with each step."""

    @pytest.mark.parametrize(
        "values",
        [
            {"experiment": "pointcloud", "data.points": "50", "model.widths": "32,32,32", "model.trunk": "32"},
            {"experiment": "setregression", "model.widths": "32,32,1"},
        ],
        ids=["pointcloud", "setregression"],
    )
    def test_one_graph_alive_with_the_collector_off(self, monkeypatch, values):
        config = ExperimentConfig(
            {**values, "data.train_sets": "96", "data.val_sets": "16", "train.batch_size": "8", "train.epochs": "1"}
        )
        train_data, val_data = build_experiment_data(config)
        model = build_experiment_model(config, train_data)
        start = start_training(model, config, train_data)  # the optimizer's arena outlives the epoch
        steps = _counting_tapes(monkeypatch)
        spans = []  # (kind, traced at its start, traced peak), in order
        current = ["setup", 0]  # the open span's kind and start
        real_make_set_batch = train_module.make_set_batch

        def begin(kind):
            now, peak = tracemalloc.get_traced_memory()
            spans.append((current[0], current[1], peak))
            current[:] = [kind, now]
            tracemalloc.reset_peak()

        def make_set_batch(dataset, indices):
            if current[0] != "validation":
                begin("step")
            return real_make_set_batch(dataset, indices)

        def spanned(real_evaluate):
            def evaluate(model, dataset):
                begin("validation")
                try:
                    return real_evaluate(model, dataset)
                finally:
                    begin("after")

            return evaluate

        monkeypatch.setattr(train_module, "make_set_batch", make_set_batch)
        for name in ("evaluate_classifier", "evaluate_regressor"):
            monkeypatch.setattr(train_module, name, spanned(getattr(train_module, name)))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_loop(model, config, train_data, val_data, start=start)
            begin("end")
        finally:
            tracemalloc.stop()
            gc.enable()

        def largest(kind):
            return max(peak - began for k, began, peak in spans if k == kind)

        assert len(steps) == 12 and [k for k, _, _ in spans].count("step") == 12
        assert max(steps) == 1
        assert max(peak for _, _, peak in spans) - base <= largest("step") + largest("validation")


class TestNodeCounts:
    """Recorded nodes, the bytes of their values and ``tensor.ensure_finite``
    calls per default training step, as the benchmark's traced run reports
    them (``autodiff.nodes_per_step``, ``autodiff.node_mib_per_step`` and
    ``tensor.ensure_finite_calls``). Each equivariant and dense layer records
    itself, activation included, as one fused node, a set pool of any kind as
    one node (a sum or mean pool scans its value once, a max pool not at
    all), and a training dropout as one node whose mask is not scanned. So a
    change that splits a layer into more nodes fails here, and so does one
    that scans a value a second time or records an array no vjp reads, with
    no timing needed. The counts and bytes repeat exactly for a seed. The data are smaller than the defaults;
    the graph of a step does not depend on how many sets there are, and its
    bytes depend on them only through the batch's cardinalities."""

    @pytest.mark.parametrize(
        "experiment, data, nodes, node_bytes, scans",
        [
            ("mnist_sum", {"data.source_count": "200", "data.train_sets": "64", "data.val_sets": "8"}, 17,
             [1595624, 1595624], 18),
            ("pointcloud", {"data.train_sets": "32", "data.val_sets": "4"}, 17, [2578472, 2578472], 18),
            ("setregression", {"data.train_sets": "32", "data.val_sets": "4"}, 16, [2953632, 3310448], 17),
            ("mnist_sum", {"data.source_count": "200", "data.train_sets": "64", "data.val_sets": "8",
                           "model.pool": "mean"}, 17, [1595624, 1595624], 18),
            ("pointcloud", {"data.train_sets": "32", "data.val_sets": "4", "model.pool": "mean"}, 17,
             [2578472, 2578472], 19),
        ],
        ids=["mnist_sum", "pointcloud", "setregression", "mnist_sum_mean_pool", "pointcloud_mean_pool"],
    )
    def test_default_training_step(self, monkeypatch, experiment, data, nodes, node_bytes, scans):
        counts, scanned, step_scans = [], [0], []
        real_backward, real_ensure_finite = ad.backward, tensor_module.ensure_finite
        real_make_set_batch, real_step = train_module.make_set_batch, Optimizer.step

        def backward(tape, root):
            counts.append((len(tape.nodes), sum(n.value.nbytes for n in tape.nodes)))
            return real_backward(tape, root)

        def ensure_finite(arr, where):
            scanned[0] += 1
            return real_ensure_finite(arr, where)

        def make_set_batch(dataset, indices):  # a step starts with its batch
            step_scans.append(-scanned[0])
            return real_make_set_batch(dataset, indices)

        def step(opt, grads):  # and ends with its update
            real_step(opt, grads)
            step_scans[-1] += scanned[0]

        config = ExperimentConfig({"experiment": experiment, "train.epochs": "1", **data})
        train_data, val_data = build_experiment_data(config)
        model = build_experiment_model(config, train_data)
        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(tensor_module, "ensure_finite", ensure_finite)
        monkeypatch.setattr(train_module, "make_set_batch", make_set_batch)
        monkeypatch.setattr(Optimizer, "step", step)
        train_loop(model, config, train_data, val_data)
        assert counts == [(nodes, node_bytes[0]), (nodes, node_bytes[1])]
        assert step_scans[:2] == [scans] * 2


SMALL_DATA = {  # the default configs with fewer sets: a step's graph and a batch's arrays are the same
    "mnist_sum": {"data.source_count": "200", "data.train_sets": "64", "data.val_sets": "8"},
    "pointcloud": {"data.train_sets": "64", "data.val_sets": "4"},
    "setregression": {"data.train_sets": "64", "data.val_sets": "4"},
}


def default_setup(experiment):
    """(config, training data, model) of the experiment's default config, on fewer sets."""
    config = ExperimentConfig({"experiment": experiment, **SMALL_DATA[experiment]})
    train_data, _ = build_experiment_data(config)
    return config, train_data, build_experiment_model(config, train_data)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_evaluate_in_pieces_gives_the_bits_of_one_pass(experiment):
    # pointcloud's 6,400 rows run as 20 + 20 + 20 + 4 sets; the others fit in one piece
    _, train_data, model = default_setup(experiment)
    batch = make_set_batch(train_data, np.arange(64))
    assert np.array_equal(evaluate(model, batch), evaluate_whole(model, batch))


class TestTracedPeaks:
    """The most memory ``tracemalloc`` traces above the start of one default
    pointcloud training step, and of ``evaluate`` on one 64-set default
    pointcloud batch: 100-point clouds through three 64-channel equivariant
    layers. Each is taken on a second run, after numpy's first-call caches,
    and held under a pin in bytes, as ``TestNodeCounts`` pins node bytes, with
    no timing needed. A step's pin is less than one [1600, 64] float64 array
    (819,200 bytes) above its measured 6.13 MB, so a step that holds one more
    such array fails here."""

    STEP_PIN = 6_291_456  # 6 MiB
    EVAL_PIN = 4 * 2048 * 64 * 8  # four [2048, 64] float64 arrays: 4 MiB

    def test_one_training_step(self):
        config, train_data, model = default_setup("pointcloud")
        opt = start_training(model, config, train_data).opt
        idx = np.arange(config["train.batch_size"])
        batch = make_set_batch(train_data, idx)
        rng = np.random.default_rng(0)

        def step():  # as train_loop makes it
            tape = ad.Tape()
            out = model.apply(tape, tape.constant(batch.values), batch.cardinalities, bind(tape, opt.params), rng)
            grads = ad.backward(tape, ad.softmax_cross_entropy(tape, out, train_data.set_labels[idx]))
            opt.step(grads)

        step()
        _, peak = peak_bytes(step)
        assert batch.values.shape == (1600, 3)
        assert peak <= self.STEP_PIN

    def test_evaluate_on_one_batch(self):
        _, train_data, model = default_setup("pointcloud")
        batch = make_set_batch(train_data, np.arange(64))
        evaluate(model, batch)
        _, peak = peak_bytes(evaluate, model, batch)
        assert batch.values.shape == (6400, 3)
        assert peak <= self.EVAL_PIN
