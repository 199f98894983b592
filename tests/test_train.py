import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from setnet import autodiff as ad
from setnet.data import (
    LabeledSetDataset,
    build_sum_sets,
    load_idx_images,
    synth_clusters,
    synth_digits,
    synth_shapes,
)
from setnet.errors import ConfigError, ContractError, DimensionError, FormatError
from setnet.layers import Dense, SetBatch, SetPool, bind, evaluate, load_params, save_params
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
    masked_mse,
    member_targets,
    parse_config_text,
    resolve_config,
    scatter_metric,
    start_training,
    train_loop,
)

from helpers import count_params, save_cluster_catalog, sets_of, write_idx_images, write_idx_labels


def model_for(experiment, dataset, **settings):
    """The experiment's model for ``dataset``; ``settings`` maps config keys
    with ``_`` for ``.`` (model_widths="8,1") to values."""
    values = {"experiment": experiment}
    values.update({k.replace("_", ".", 1): str(v) for k, v in settings.items()})
    return build_experiment_model(ExperimentConfig(values), dataset)


def training_output(model, tape, batch, rng=None):
    bound = bind(tape, model.params())
    return model.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, rng)


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
            assert parse_config_text(config_lines(cfg)) == cfg
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
        parsed = parse_config_text("# a comment\n\nseed=4  # trailing\n")
        assert parsed == {"seed": "4"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed 4\n")


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
            permuted = evaluate(model, batch.permute_members(perms))
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
            permuted = evaluate(model, batch.permute_members(perms))
            deviations.append(np.max(np.abs(permuted - base)))
        assert max(deviations) > 1e-3

    def test_parameter_counts_within_ten_percent(self, digit_sets):
        report = {v: count_params(model_for("mnist_sum", digit_sets, model_variant=v).params()) for v in MNIST_VARIANTS}
        counts = list(report.values())
        assert max(counts) <= 1.1 * min(counts), report

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
        permuted = evaluate(model, batch.permute_members(perms))
        assert np.max(np.abs(permuted - base)) < 1e-9

    def test_gradient_check_passes(self):
        rng = np.random.default_rng(2)
        ds = synth_shapes(["sphere", "cube", "cylinder"], 6, 2, rng)
        model = model_for("pointcloud", ds, model_widths="5,4", model_trunk=4, seed=2)
        batch = make_set_batch(ds, range(2))
        tape = ad.Tape()
        loss = ad.softmax_cross_entropy(training_output(model, tape, batch), ds.set_labels[:2])
        report = ad.gradient_check(tape, loss, step=1e-5, tolerance=1e-4)
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
        permuted = evaluate(model, batch.permute_members(perms))
        assert np.max(np.abs(permuted - batch.with_values(base).permute_members(perms).values)) < 1e-9

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
            return float(masked_mse(training_output(model, tape, batch), t, mask).value)
        assert loss_value(targets) == loss_value(crazy)

    def test_loss_requires_labels(self):
        rng = np.random.default_rng(3)
        ds = synth_clusters(1, (4, 4), rng)
        model = model_for("setregression", ds, model_widths="4,1", seed=3)
        batch = make_set_batch(ds, range(1))
        targets, _ = member_targets(ds, range(1))
        tape = ad.Tape()
        with pytest.raises(ContractError):
            masked_mse(training_output(model, tape, batch), targets, np.zeros_like(targets))

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
        tape = ad.Tape()
        loss = masked_mse(training_output(model, tape, batch, rng=np.random.default_rng(0)), targets, mask)
        report = ad.gradient_check(tape, loss, step=1e-5, tolerance=1e-4)
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
        for p_straight, p_resumed in zip(straight.final_params, resumed.final_params):
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
        assert [live for live, _ in steps] == [1] * 5

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
    """Count the live tapes at every ``backward``; returns a list of
    (live tapes, bytes of the recorded node values) per training step."""
    live = weakref.WeakSet()
    steps = []
    real_backward = ad.backward

    class CountedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            live.add(self)

    def backward(tape, root):
        steps.append((len(live), sum(n.value.nbytes for n in tape.nodes)))
        return real_backward(tape, root)

    monkeypatch.setattr(ad, "Tape", CountedTape)
    monkeypatch.setattr(ad, "backward", backward)
    return steps


class TestStepMemory:
    """Each training step's graph is freed by reference counting within the
    step, so memory follows one step's graph, not the cyclic collector."""

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
        steps = _counting_tapes(monkeypatch)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_loop(model, config, train_data, val_data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(steps) == 12
        assert max(live for live, _ in steps) == 1
        assert peak <= 3 * max(nbytes for _, nbytes in steps)
