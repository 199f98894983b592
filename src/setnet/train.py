"""Experiment harness: configs, model builders, training loop, metrics,
and activation maximization.

Three experiments are wired end to end, each runnable purely from synthetic
data at desk scale or from real files when paths are configured:

* ``mnist_sum``      predict the sum of a set of digit images from set-level
                     labels only, with four model variants (flat
                     concatenation, channel stacking, shared encoder with set
                     pooling, shared encoder with an equivariant layer).
* ``pointcloud``     classify surface point clouds with a normalize ->
                     equivariant stack -> max-pool network.
* ``setregression``  per-member regression on variable-size clusters that
                     share a latent target, against a parameter-matched
                     per-member MLP baseline.

Training is deterministic given the config seed; metrics lines contain no
timing so identical runs produce byte-identical logs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .data import (
    LabeledSetDataset,
    build_sum_sets,
    load_cluster_catalog,
    load_mnist_idx,
    split_instance_indices,
    synth_clusters,
    synth_digits,
    synth_shapes,
)
from .errors import ConfigError, ContractError, DimensionError, FormatError, NumericError
from .layers import (
    Dense,
    Dropout,
    EquivariantLayer,
    Flatten,
    NormalizeSets,
    Param,
    SetBatch,
    SetPool,
    bind,
    count_params,
    evaluate,
    load_params,
    restore_params,
    save_params,
)
from .optim import Optimizer

EXPERIMENTS = ("mnist_sum", "pointcloud", "setregression")

MNIST_VARIANTS = ("I", "II", "III", "IV")

# hidden widths tuned so all four variants land within a 10% parameter band
_MNIST_AUTO_WIDTH = {"I": 55, "II": 55, "III": 150, "IV": 128}


# --- configuration ---------------------------------------------------------------


_COMMON_DEFAULTS = {
    "seed": "0",
    "model.activation": "tanh",
    "model.dropout": "0.0",
    "optimizer.kind": "adam",
    "optimizer.lr": "0.001",
    "optimizer.beta1": "0.9",
    "optimizer.beta2": "0.999",
    "optimizer.clip_norm": "0.0",
    "train.batch_size": "32",
    "train.epochs": "30",
}

_EXPERIMENT_DEFAULTS = {
    "mnist_sum": {
        **_COMMON_DEFAULTS,
        "model.variant": "IV",
        "model.activation": "elu",
        "model.width": "0",  # 0: per-variant auto width
        "model.trunk": "128",
        "model.pool": "sum",
        "model.dropout": "0.2",
        "model.dropout_simultaneous": "true",
        "data.set_size": "3",
        "data.train_sets": "2000",
        "data.val_sets": "1000",
        "data.source_count": "12000",
        "data.styles_per_class": "4",
        "data.noise": "0.15",
        "data.images": "",  # IDX files, read when set; else synthetic digits
        "data.labels": "",
    },
    "pointcloud": {
        **_COMMON_DEFAULTS,
        "model.widths": "64,64,64",
        "model.trunk": "64",
        "model.pool": "max",
        "data.points": "100",
        "data.train_sets": "400",
        "data.val_sets": "200",
        "data.classes": "sphere,cube,cylinder,torus",
        "train.batch_size": "16",
        "train.epochs": "25",
    },
    "setregression": {
        **_COMMON_DEFAULTS,
        "model.variant": "equivariant",
        "model.widths": "128,128,128,1",
        "model.dropout": "0.5",
        "model.dropout_simultaneous": "true",
        "optimizer.lr": "0.003",
        "data.train_sets": "240",
        "data.val_sets": "60",
        "data.size_min": "16",
        "data.size_max": "40",
        "data.labeled_fraction": "0.3",
        "data.features": "17",
        "data.informative": "8",
        "data.noise": "0.05",
        "data.catalog": "",
        "data.feature_columns": "",
        "data.label_column": "",
        "data.mask_column": "",
        "data.cluster_id_column": "",
        "train.batch_size": "16",
        "train.epochs": "120",
    },
}


def default_config(experiment: str) -> Dict[str, str]:
    if experiment not in _EXPERIMENT_DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r} (choose from {EXPERIMENTS})")
    cfg = dict(_EXPERIMENT_DEFAULTS[experiment])
    cfg["experiment"] = experiment
    return cfg


def resolve_config(values: Dict[str, str], overrides: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Merge file values and overrides onto the experiment defaults.

    Unknown keys are rejected so typos cannot silently change a run.
    """
    merged = dict(values)
    for k, v in (overrides or {}).items():
        merged[k] = v
    if "experiment" not in merged:
        raise ConfigError("config must set 'experiment'")
    cfg = default_config(merged["experiment"])
    for k, v in merged.items():
        if k != "experiment" and k not in cfg:
            raise ConfigError(f"unknown config key {k!r} for experiment {merged['experiment']!r}")
        cfg[k] = v
    return cfg


def config_lines(cfg: Dict[str, str]) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def parse_config_text(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


class ExperimentConfig:
    """Typed view over a resolved flat config dict."""

    def __init__(self, values: Dict[str, str]):
        self.values = resolve_config(values)
        self.experiment = self.values["experiment"]
        self.seed = self._int("seed", minimum=0)
        self.variant = self.values.get("model.variant")  # pointcloud has one model
        self.activation = self.values["model.activation"]
        self.dropout = self._float("model.dropout", 0.0, 0.999)
        self.optimizer = self.values["optimizer.kind"]
        self.lr = self._float("optimizer.lr", 1e-9, 10.0)
        self.beta1 = self._float("optimizer.beta1", 0.0, 0.9999)
        self.beta2 = self._float("optimizer.beta2", 0.0, 0.99999)
        self.clip_norm = self._float("optimizer.clip_norm", 0.0, 1e9)
        self.batch_size = self._int("train.batch_size", minimum=1)
        self.epochs = self._int("train.epochs", minimum=1)
        if self.experiment == "mnist_sum" and self.variant not in MNIST_VARIANTS:
            raise ConfigError(f"mnist_sum variant must be one of {MNIST_VARIANTS}")
        if self.experiment == "setregression" and self.variant not in ("equivariant", "baseline_mlp"):
            raise ConfigError("setregression variant must be 'equivariant' or 'baseline_mlp'")

    def _int(self, key: str, minimum: Optional[int] = None) -> int:
        try:
            v = int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.values[key]!r}") from None
        if minimum is not None and v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}")
        return v

    def _float(self, key: str, lo: float, hi: float) -> float:
        try:
            v = float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.values[key]!r}") from None
        if not lo <= v <= hi:
            raise ConfigError(f"{key} must be in [{lo}, {hi}]")
        return v

    def _bool(self, key: str) -> bool:
        v = self.values[key].lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {self.values[key]!r}")

    def int_list(self, key: str) -> List[int]:
        toks = [t for t in self.values[key].split(",") if t.strip()]
        try:
            return [int(t) for t in toks]
        except ValueError:
            raise ConfigError(f"{key} must be a comma list of integers") from None

    def str_list(self, key: str) -> List[str]:
        return [t.strip() for t in self.values[key].split(",") if t.strip()]


# --- metrics ----------------------------------------------------------------------


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    loss: float
    metric_name: str
    metric_value: float
    wall_time: float = 0.0  # reported to humans, never written to the log

    def line(self) -> str:
        return (
            f"epoch={self.epoch} split={self.split} loss={self.loss!r} "
            f"{self.metric_name}={self.metric_value!r}"
        )


def scatter_metric(z_pred: np.ndarray, z_spec: np.ndarray) -> float:
    """Mean |truth - prediction| / (1 + truth) over the given members."""
    z_pred = np.asarray(z_pred, dtype=np.float64).ravel()
    z_spec = np.asarray(z_spec, dtype=np.float64).ravel()
    if z_pred.size == 0 or z_pred.shape != z_spec.shape:
        raise ContractError("scatter needs equal-length, non-empty inputs")
    if np.any(z_spec <= -1.0):
        raise ContractError("ground-truth values must exceed -1")
    return float(np.mean(np.abs(z_spec - z_pred) / (1.0 + z_spec)))


# --- batching ---------------------------------------------------------------------


def make_set_batch(dataset: LabeledSetDataset, indices: Sequence[int]) -> SetBatch:
    sets = [dataset.sets[i] for i in indices]
    return SetBatch(np.concatenate(sets), [s.shape[0] for s in sets])


def member_targets(dataset: LabeledSetDataset, indices: Sequence[int]):
    """[M] targets and observed-mask (0/1) arrays, one entry per member row of
    ``make_set_batch(dataset, indices)``."""
    targets = np.concatenate([dataset.member_labels[i] for i in indices])
    mask = np.concatenate([dataset.member_mask[i] for i in indices]).astype(np.float64)
    return targets, mask


def batch_indices(count: int, batch_size: int, order: Optional[np.ndarray] = None) -> Iterable[np.ndarray]:
    order = np.arange(count) if order is None else order
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


# --- models -----------------------------------------------------------------------


class SetModel:
    """An ordered list of layers applied in turn to a packed set batch.

    Layers before a ``SetPool`` (or a ``Flatten``) act on the [M, K] member
    rows and layers after it on the [B, K] set rows; a model without one
    predicts per member, one output row per member row.
    """

    def __init__(self, layers: Sequence, metric_name: str, higher_is_better: bool, set_size: Optional[int] = None):
        self.layers = list(layers)
        self.metric_name = metric_name
        self.higher_is_better = higher_is_better
        self.set_size = set_size  # the cardinality every set must have, if fixed

    def params(self) -> List[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def apply(self, tape, x: ad.Node, cards, bound, rng=None, upto: Optional[int] = None) -> ad.Node:
        """Output of the first ``upto`` layers (all by default); dropout is on when ``rng`` is given."""
        if self.set_size is not None and np.any(cards != self.set_size):
            raise DimensionError(f"model expects exactly {self.set_size} members per set")
        for layer in self.layers[:upto]:
            x = layer.apply(tape, x, cards, bound, rng)
        return x


def masked_mse(pred: ad.Node, targets: np.ndarray, mask: np.ndarray) -> ad.Node:
    """Mean squared error of [M, 1] member predictions over the observed members."""
    labeled = float(mask.sum())
    if labeled == 0:
        raise ContractError("batch has no labeled members")
    tape = pred.tape
    diff = (pred - tape.constant(targets[:, None])) * tape.constant(mask[:, None])
    return (diff * diff).sum_all() * (1.0 / labeled)


def _mnist_model(config: ExperimentConfig, input_dim: int, rng: np.random.Generator) -> SetModel:
    """Digit-sum classifier over sets of flattened images, four variants.

    I concatenates members into one long vector, II interleaves members
    pixel-major (channel stacking), III runs a shared per-member encoder and
    pools, IV inserts an equivariant layer between encoder and pooling.
    """
    variant, act = config.variant, config.activation
    n = config._int("data.set_size", minimum=1)
    width = config._int("model.width", minimum=0) or _MNIST_AUTO_WIDTH[variant]
    trunk = config._int("model.trunk", minimum=1)
    # member rows share one mask per set if dropout_simultaneous; pooled rows draw every entry
    drop = Dropout(config.dropout, config._bool("model.dropout_simultaneous"))
    if variant in ("I", "II"):
        layers = [Flatten(interleave=variant == "II"), Dense(n * input_dim, width, act, rng, "fc1"), drop,
                  Dense(width, trunk, act, rng, "fc2")]
    else:
        layers = [Dense(input_dim, width, act, rng, "enc"), drop]
        if variant == "IV":
            layers += [EquivariantLayer(width, trunk, "channel_factored", act, rng=rng, name="eq"), drop]
        pool = SetPool(config.values["model.pool"])
        layers += [pool, Dense(trunk if variant == "IV" else width, trunk, act, rng, "fc2")]
    layers += [drop, Dense(trunk, 9 * n + 1, "identity", rng, "out")]
    return SetModel(layers, "accuracy", True, set_size=n)


def mnist_parameter_report(set_size: int, trunk: int = 128) -> Dict[str, int]:
    """Parameter counts of the four variants at their default widths."""
    rng = np.random.default_rng(0)
    report = {}
    for v in MNIST_VARIANTS:
        config = ExperimentConfig(
            {"experiment": "mnist_sum", "model.variant": v, "data.set_size": str(set_size), "model.trunk": str(trunk)}
        )
        report[v] = count_params(_mnist_model(config, 784, rng).params())
    return report


# --- evaluation -------------------------------------------------------------------


def evaluate_classifier(model: SetModel, dataset: LabeledSetDataset, batch_size: int = 64) -> Tuple[float, float]:
    """Returns (mean cross-entropy, accuracy)."""
    total_loss = 0.0
    hits = 0
    for idx in batch_indices(len(dataset), batch_size):
        batch = make_set_batch(dataset, idx)
        labels = dataset.set_labels[idx]
        logits = evaluate(model, batch)
        total_loss += float(ad.softmax_cross_entropy(ad.Tape().constant(logits), labels).value) * len(idx)
        hits += int(np.sum(np.argmax(logits, axis=1) == labels))
    n = len(dataset)
    return total_loss / n, hits / n


def evaluate_regressor(model: SetModel, dataset: LabeledSetDataset, batch_size: int = 64):
    """Returns (masked-mse loss, scatter). Scatter scores every member with a
    ground-truth label: all of them, or only the observed ones when
    ``dataset.observed_only`` is set, as for an ingested catalog."""
    sq_sum = 0.0
    sq_count = 0.0
    preds: List[np.ndarray] = []
    truths: List[np.ndarray] = []
    for idx in batch_indices(len(dataset), batch_size):
        batch = make_set_batch(dataset, idx)
        targets, mask = member_targets(dataset, idx)
        pred = evaluate(model, batch)[:, 0]
        diff = (pred - targets) * mask
        sq_sum += float(np.sum(diff * diff))
        sq_count += float(mask.sum())
        keep = mask > 0 if dataset.observed_only else slice(None)
        preds.append(pred[keep])
        truths.append(targets[keep])
    if dataset.observed_only and sq_count == 0:
        raise ContractError("no member of the evaluated sets has an observed label to score")
    loss = sq_sum / max(sq_count, 1.0)
    return loss, scatter_metric(np.concatenate(preds), np.concatenate(truths))


# --- training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    records: List[MetricsRecord]
    best_epoch: int
    best_metric: float
    final_params: List[Param]


def _rng_state_token(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, separators=(",", ":"))


def _restore_rng(token: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(token)
    return rng


def train_loop(
    model: SetModel,
    config: ExperimentConfig,
    train_data: LabeledSetDataset,
    val_data: LabeledSetDataset,
    metrics_sink: Optional[Callable[[MetricsRecord], None]] = None,
    best_checkpoint_path: Optional[str] = None,
    last_checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Mini-batch epochs, deterministic under the config seed.

    Emits per-epoch train/validation metrics, tracks the best-validation
    checkpoint, and aborts with a diagnostic if the loss goes non-finite.
    ``resume_from`` restores parameters, optimizer state, rng streams and the
    best validation metric and epoch so far, so a continued run reproduces the
    uninterrupted one exactly, ``checkpoint_best`` included.
    """
    if len(train_data) == 0:
        raise ContractError("training dataset is empty")
    params = model.params()
    opt = Optimizer(
        config.optimizer,
        params,
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        clip_norm=config.clip_norm or None,
    )
    seq = np.random.SeedSequence(config.seed)
    shuffle_seq, dropout_seq = seq.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    start_epoch = 1
    best_metric = -np.inf if model.higher_is_better else np.inf
    best_epoch = 0
    if resume_from:
        arrays, meta = load_params(resume_from)
        restore_params(params, arrays)
        try:
            opt.load_state_arrays(arrays, int(meta["opt_t"]))
            shuffle_rng = _restore_rng(meta["shuffle_rng"])
            dropout_rng = _restore_rng(meta["dropout_rng"])
            start_epoch = int(meta["epoch"]) + 1
            best_metric = float(meta["best_metric"])
            best_epoch = int(meta["best_epoch"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{resume_from}: checkpoint has no valid resume state ({exc!r})") from exc

    classification = train_data.set_labels is not None
    records: List[MetricsRecord] = []

    def emit(rec: MetricsRecord):
        records.append(rec)
        if metrics_sink:
            metrics_sink(rec)
        if log:
            log(rec.line() + f" wall={rec.wall_time:.2f}s")

    def save_state(path: str, epoch: int, val_metric: float):
        extras = [Param(name, arr) for name, arr in opt.state_arrays().items()]
        meta = {
            "epoch": str(epoch),
            "opt_t": str(opt.t),
            "shuffle_rng": _rng_state_token(shuffle_rng),
            "dropout_rng": _rng_state_token(dropout_rng),
            "val_metric": repr(float(val_metric)),
            "best_metric": repr(float(best_metric)),
            "best_epoch": str(best_epoch),
            "metric_name": model.metric_name,
            "experiment": config.experiment,
        }
        save_params(path, list(params) + extras, meta)

    for epoch in range(start_epoch, config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_data))
        loss_sum = 0.0
        loss_count = 0
        for idx in batch_indices(len(train_data), config.batch_size, order):
            batch = make_set_batch(train_data, idx)
            if not classification:
                targets, mask = member_targets(train_data, idx)
                if mask.sum() == 0:
                    continue  # nothing labeled in this batch
            tape = ad.Tape()
            bound = bind(tape, params)
            try:
                out = model.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, dropout_rng)
                if classification:
                    loss = ad.softmax_cross_entropy(out, train_data.set_labels[idx])
                else:
                    loss = masked_mse(out, targets, mask)
                grads = ad.backward(tape, loss)
                tape.release()
                opt.step(grads)
            except NumericError as exc:
                raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
            loss_sum += float(loss.value) * len(idx)
            loss_count += len(idx)
            del out, loss, grads, bound, tape  # the last references: the step's graph is freed here
        wall = time.perf_counter() - t0
        train_loss = loss_sum / max(loss_count, 1)
        emit(MetricsRecord(epoch, "train", train_loss, model.metric_name, float("nan"), wall))

        t0 = time.perf_counter()
        if classification:
            val_loss, val_metric = evaluate_classifier(model, val_data)
        else:
            val_loss, val_metric = evaluate_regressor(model, val_data)
        wall = time.perf_counter() - t0
        emit(MetricsRecord(epoch, "val", val_loss, model.metric_name, val_metric, wall))

        improved = val_metric > best_metric if model.higher_is_better else val_metric < best_metric
        if improved:
            best_metric = val_metric
            best_epoch = epoch
            if best_checkpoint_path:
                save_state(best_checkpoint_path, epoch, val_metric)
        if last_checkpoint_path:
            save_state(last_checkpoint_path, epoch, val_metric)

    return TrainResult(records, best_epoch, float(best_metric), params)


# --- experiment assembly ------------------------------------------------------------


def build_experiment_data(config: ExperimentConfig) -> Tuple[LabeledSetDataset, LabeledSetDataset]:
    seq = np.random.SeedSequence(config.seed)
    data_seq = seq.spawn(3)[2]  # distinct from the training streams
    rng = np.random.default_rng(data_seq)
    v = config.values
    if config.experiment == "mnist_sum":
        n = config._int("data.set_size", minimum=1)
        if v["data.images"] or v["data.labels"]:
            if not (v["data.images"] and v["data.labels"]):
                raise ConfigError("data.images and data.labels must be set together")
            images, labels = load_mnist_idx(v["data.images"], v["data.labels"])
        else:
            images, labels = synth_digits(
                config._int("data.source_count", minimum=10),
                rng,
                styles_per_class=config._int("data.styles_per_class", minimum=1),
                noise=config._float("data.noise", 0.0, 1.0),
            )
        train_pool, val_pool = split_instance_indices(images.shape[0], 0.8, rng)
        train = build_sum_sets(images, labels, n, config._int("data.train_sets", minimum=1), rng, pool=train_pool)
        val = build_sum_sets(images, labels, n, config._int("data.val_sets", minimum=1), rng, pool=val_pool)
        return train, val
    if config.experiment == "pointcloud":
        classes = config.str_list("data.classes")
        m = config._int("data.points", minimum=1)
        train = synth_shapes(classes, m, config._int("data.train_sets", minimum=1), rng)
        val = synth_shapes(classes, m, config._int("data.val_sets", minimum=1), rng)
        return train, val
    if config.experiment == "setregression":
        if v["data.catalog"]:
            feats = config.str_list("data.feature_columns")
            full = load_cluster_catalog(
                v["data.catalog"], feats, v["data.label_column"], v["data.mask_column"], v["data.cluster_id_column"]
            )
            order = rng.permutation(len(full))
            cut = int(round(len(full) * 0.9))
            return full.subset(order[:cut]), full.subset(order[cut:])
        size_range = (config._int("data.size_min", minimum=1), config._int("data.size_max", minimum=1))
        kwargs = dict(
            size_range=size_range,
            labeled_fraction=config._float("data.labeled_fraction", 0.0, 1.0),
            num_features=config._int("data.features", minimum=1),
            informative=config._int("data.informative", minimum=0),
            noise=config._float("data.noise", 0.0, 10.0),
        )
        train = synth_clusters(config._int("data.train_sets", minimum=1), rng=rng, **kwargs)
        val = synth_clusters(config._int("data.val_sets", minimum=1), rng=rng, **kwargs)
        return train, val
    raise ConfigError(f"unknown experiment {config.experiment!r}")


def build_experiment_model(config: ExperimentConfig, train_data: LabeledSetDataset) -> SetModel:
    seq = np.random.SeedSequence(config.seed)
    init_rng = np.random.default_rng(seq.spawn(4)[3])
    act, k = config.activation, train_data.channels
    if config.experiment == "mnist_sum":
        return _mnist_model(config, k, init_rng)
    if config.experiment == "pointcloud":
        # normalize -> equivariant stack -> set pool -> dense classifier
        layers: List = [NormalizeSets()]
        for i, w in enumerate(config.int_list("model.widths")):
            layers.append(EquivariantLayer(k, w, "channel_factored", act, rng=init_rng, name=f"eq{i + 1}"))
            k = w
        trunk = config._int("model.trunk", minimum=1)
        drop = Dropout(config.dropout)  # on pooled rows: every entry draws its own mask
        layers += [SetPool(config.values["model.pool"]), drop, Dense(k, trunk, act, init_rng, "fc"), drop,
                   Dense(trunk, train_data.num_classes, "identity", init_rng, "out")]
        return SetModel(layers, "accuracy", True)
    if config.experiment == "setregression":
        # per-member regression; the equivariant and per-member MLP variants
        # have the same parameter count layer for layer (one weight matrix
        # plus one bias each)
        widths = config.int_list("model.widths")
        if not widths or widths[-1] != 1:
            raise ConfigError("last width must be 1 (one output per member)")
        equivariant = config.variant == "equivariant"
        # dropout between hidden layers; shared per set only for the set-aware variant
        drop = Dropout(config.dropout, simultaneous=config._bool("model.dropout_simultaneous") and equivariant)
        layers = []
        for i, w in enumerate(widths):
            a = "identity" if i == len(widths) - 1 else act
            if i:
                layers.append(drop)
            if equivariant:
                layers.append(EquivariantLayer(k, w, "channel_factored", a, rng=init_rng, name=f"eq{i + 1}"))
            else:
                layers.append(Dense(k, w, a, init_rng, name=f"fc{i + 1}"))
            k = w
        return SetModel(layers, "scatter", False)
    raise ConfigError(f"unknown experiment {config.experiment!r}")


# --- activation maximization ---------------------------------------------------------


@dataclass
class ActMaxResult:
    points: np.ndarray  # [m, 3]
    activation: float
    activated: bool
    iterations: int
    history: List[float] = field(default_factory=list)


def activation_maximization(
    model: SetModel,
    layer_index: int,
    unit: int,
    m: int,
    iterations: int,
    rng: np.random.Generator,
    lr: float = 0.01,
    beta1: float = 0.1,
    beta2: float = 0.9,
    threshold: float = 0.5,
    history_every: int = 100,
) -> ActMaxResult:
    """Optimize particle coordinates to excite one hidden unit.

    The objective is the mean, over the points, of one channel of the
    ``layer_index``-th equivariant layer (before pooling). Runs Adamax on the
    input coordinates, starting from uniformly scattered particles; the first
    network layer normalizes its input, so the coordinates need no box
    constraint. Units that never rise above ``threshold`` are reported as not
    activated.
    """
    if iterations < 0:
        raise ContractError("iteration budget must be >= 0")
    ends = [i + 1 for i, layer in enumerate(model.layers) if isinstance(layer, EquivariantLayer)]
    if not 0 <= layer_index < len(ends):
        raise ContractError(f"layer index {layer_index} out of range")
    width = model.layers[ends[layer_index] - 1].k_out
    if not 0 <= unit < width:
        raise ContractError(f"unit {unit} out of range for width {width}")
    selector = np.zeros((width, 1))
    selector[unit, 0] = 1.0
    coords = Param("input.points", rng.uniform(-1.0, 1.0, size=(m, 3)))
    cards = np.array([m])

    def unit_mean(tape: ad.Tape, x: ad.Node) -> ad.Node:
        bound = {p.name: tape.constant(p.value) for p in model.params()}
        h = model.apply(tape, x, cards, bound, upto=ends[layer_index])
        return (h @ tape.constant(selector)).mean(axis=0).sum_all()

    opt = Optimizer("adamax", [coords], lr=lr, beta1=beta1, beta2=beta2)
    history: List[float] = []
    for it in range(iterations):
        tape = ad.Tape()
        objective = unit_mean(tape, tape.variable(coords.value, coords.name))
        grads = ad.backward(tape, -objective)
        tape.release()
        opt.step(grads)
        act = float(objective.value)
        if it % history_every == 0:
            history.append(act)
    tape = ad.Tape()
    final = float(unit_mean(tape, tape.constant(coords.value)).value)
    return ActMaxResult(
        points=coords.value.copy(),
        activation=final,
        activated=final > threshold,
        iterations=iterations,
        history=history,
    )
