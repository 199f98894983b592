"""Experiment harness: configs, model builders, training loop, metrics,
and activation maximization.

Three experiments are wired end to end, each runnable purely from synthetic
data at desk scale. mnist_sum also reads IDX files (``data.images`` and
``data.labels``) and setregression a cluster catalog (``data.catalog``) when
those paths are configured; pointcloud trains only on synthetic shapes:

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
timing so identical runs produce byte-identical logs. Identical means the
same BLAS thread count too: a threaded matrix product sums in another order,
so a default mnist_sum run with two BLAS threads logs other last digits than
one with one thread (each is the same from run to run). ``conftest.py`` and
``bench/run.py`` pin one thread.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .data import (
    SHAPE_CLASSES,
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
    POOL_KINDS,
    Dense,
    Dropout,
    EquivariantLayer,
    Flatten,
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
from .optim import KINDS, Optimizer

EXPERIMENTS = ("mnist_sum", "pointcloud", "setregression")

MNIST_VARIANTS = ("I", "II", "III", "IV")

REGRESSION_VARIANTS = ("equivariant", "baseline_mlp")

# hidden widths tuned so all four variants land within a 10% parameter band
_MNIST_AUTO_WIDTH = {"I": 55, "II": 55, "III": 150, "IV": 128}


# --- configuration ---------------------------------------------------------------


# Every key of an experiment maps to (default text, type). The type is
# written as:
#   1                 an integer >= 1 (any int: the lower bound)
#   (1, 1000)         an integer in [1, 1000] (a pair of ints)
#   (0.0, 1.0)        a number in [0.0, 1.0] (a pair of floats)
#   bool              true/yes/1 or false/no/0, in any case
#   POOL_KINDS        a tuple of names: exactly one of them
#   [1], [str]        a comma list of such integers, or of free names (may be empty)
#   [SHAPE_CLASSES]   a comma list of one or more names from the tuple
#   str               free text, kept as written (a path, a column name, or empty)
_DROPOUT = (0.0, 0.999)
_LR = (1e-9, 10.0)

_COMMON = {
    "seed": ("0", 0),
    "model.activation": ("tanh", T.NONLINEARITIES),
    "model.dropout": ("0.0", _DROPOUT),
    "optimizer.kind": ("adam", KINDS),
    "optimizer.lr": ("0.001", _LR),
    "optimizer.beta1": ("0.9", (0.0, 0.9999)),
    "optimizer.beta2": ("0.999", (0.0, 0.99999)),
    "optimizer.clip_norm": ("0.0", (0.0, 1e9)),  # 0: no clipping
    "train.batch_size": ("32", 1),
    "train.epochs": ("30", 1),
}

_TABLES = {
    "mnist_sum": {
        **_COMMON,
        "model.variant": ("IV", MNIST_VARIANTS),
        "model.activation": ("elu", T.NONLINEARITIES),
        "model.width": ("0", 0),  # 0: per-variant auto width
        "model.trunk": ("128", 1),
        "model.pool": ("sum", POOL_KINDS),
        "model.dropout": ("0.2", _DROPOUT),
        "model.dropout_simultaneous": ("true", bool),
        "data.set_size": ("3", 1),
        "data.train_sets": ("2000", 1),
        "data.val_sets": ("1000", 1),
        # synth_digits allocates arrays in proportion to both, so both are bounded above
        "data.source_count": ("12000", (10, 100000)),
        "data.styles_per_class": ("4", (1, 1000)),
        "data.noise": ("0.15", (0.0, 1.0)),
        "data.images": ("", str),  # IDX files, read when set; else synthetic digits
        "data.labels": ("", str),
    },
    "pointcloud": {
        **_COMMON,
        "model.widths": ("64,64,64", [1]),
        "model.trunk": ("64", 1),
        "model.pool": ("max", POOL_KINDS),
        "data.points": ("100", 2),  # NormalizeSets needs two members
        "data.train_sets": ("400", 1),
        "data.val_sets": ("200", 1),
        "data.classes": ("sphere,cube,cylinder,torus", [SHAPE_CLASSES]),
        "train.batch_size": ("16", 1),
        "train.epochs": ("25", 1),
    },
    "setregression": {
        **_COMMON,
        "model.variant": ("equivariant", REGRESSION_VARIANTS),
        "model.widths": ("128,128,128,1", [1]),
        "model.dropout": ("0.5", _DROPOUT),
        "model.dropout_simultaneous": ("true", bool),
        "optimizer.lr": ("0.003", _LR),
        "data.train_sets": ("240", 1),
        "data.val_sets": ("60", 1),
        "data.size_min": ("16", 1),
        "data.size_max": ("40", 1),
        "data.labeled_fraction": ("0.3", (0.0, 1.0)),
        "data.features": ("17", 1),
        "data.informative": ("8", 0),
        "data.noise": ("0.05", (0.0, 10.0)),
        "data.catalog": ("", str),  # a cluster catalog CSV, read when set; else synthetic clusters
        "data.feature_columns": ("", [str]),
        "data.label_column": ("", str),
        "data.mask_column": ("", str),
        "data.cluster_id_column": ("", str),
        "train.batch_size": ("16", 1),
        "train.epochs": ("120", 1),
    },
}


def _parse(key: str, text: str, kind):
    """``text`` read as a ``kind`` written as in the table above; a ConfigError names ``key``."""
    if isinstance(kind, list):
        items = [_parse(key, t.strip(), kind[0]) for t in text.split(",") if t.strip()]
        if not items and isinstance(kind[0], tuple):
            raise ConfigError(f"{key} must name at least one of {kind[0]}")
        return items
    if kind is str:
        return text
    if kind is bool:
        if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ConfigError(f"{key} must be a boolean, got {text!r}")
        return text.lower() in ("true", "1", "yes")
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        if text not in kind:
            raise ConfigError(f"{key} must be one of {kind}, got {text!r}")
        return text
    lo, hi = (kind, None) if isinstance(kind, int) else kind
    if isinstance(lo, int):
        try:
            v = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if v < lo:
            raise ConfigError(f"{key} must be >= {lo}")
        if hi is not None and v > hi:
            raise ConfigError(f"{key} must be in [{lo}, {hi}]")
        return v
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not lo <= v <= hi:
        raise ConfigError(f"{key} must be in [{lo}, {hi}]")
    return v


def default_config(experiment: str) -> Dict[str, str]:
    if experiment not in _TABLES:
        raise ConfigError(f"unknown experiment {experiment!r} (choose from {EXPERIMENTS})")
    cfg = {key: default for key, (default, _) in _TABLES[experiment].items()}
    cfg["experiment"] = experiment
    return cfg


def resolve_config(values: Dict[str, str]) -> Dict[str, str]:
    """Merge values onto the experiment defaults.

    Unknown keys are rejected so typos cannot silently change a run.
    """
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    cfg = default_config(values["experiment"])
    for k, v in values.items():
        if k not in cfg:
            raise ConfigError(f"unknown config key {k!r} for experiment {values['experiment']!r}")
        cfg[k] = v
    return cfg


def config_lines(cfg: Dict[str, str]) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def parse_config_text(text: str, name: str) -> Dict[str, str]:
    """The key=value lines of a config file; ``name`` names it in errors."""
    out: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{name}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:  # a silent last-wins would hide which value a run used
            raise ConfigError(f"{name}:{lineno}: key {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = val
    return out


class ExperimentConfig:
    """A resolved config: ``values`` is every key's text, as written to
    ``config.resolved.cfg``, and ``config[key]`` its value, parsed and
    checked by the experiment's table when the config is built."""

    def __init__(self, values: Dict[str, str]):
        self.values = resolve_config(values)
        self.experiment = self.values["experiment"]
        self._parsed = {key: _parse(key, self.values[key], kind) for key, (_, kind) in _TABLES[self.experiment].items()}

    def __getitem__(self, key: str):
        return self._parsed[key]

    def __contains__(self, key: str) -> bool:
        return key in self._parsed


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


def _member_rows(dataset: LabeledSetDataset, indices: Sequence[int]) -> np.ndarray:
    """The row indices of the sets at ``indices``, one set after another."""
    return np.concatenate([dataset.members[i] for i in indices])


def _any_observed(dataset: LabeledSetDataset) -> bool:
    """Whether a member of the dataset's sets has an observed label."""
    return bool(dataset.member_mask[_member_rows(dataset, range(len(dataset)))].any())


def make_set_batch(dataset: LabeledSetDataset, indices: Sequence[int]) -> SetBatch:
    """The sets at ``indices`` packed into one batch, gathered from the dataset's
    rows into a new array that the batch keeps."""
    return SetBatch(dataset.rows[_member_rows(dataset, indices)], [dataset.members[i].size for i in indices])


def member_targets(dataset: LabeledSetDataset, indices: Sequence[int]):
    """[M] targets and observed-mask (0/1) arrays, one entry per member row of
    ``make_set_batch(dataset, indices)``."""
    rows = _member_rows(dataset, indices)
    return dataset.member_labels[rows], dataset.member_mask[rows].astype(np.float64)


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


def _mnist_model(config: ExperimentConfig, input_dim: int, rng: np.random.Generator) -> SetModel:
    """Digit-sum classifier over sets of flattened images, four variants.

    I concatenates members into one long vector, II interleaves members
    pixel-major (channel stacking), III runs a shared per-member encoder and
    pools, IV inserts an equivariant layer between encoder and pooling.
    """
    variant, act = config["model.variant"], config["model.activation"]
    n, trunk = config["data.set_size"], config["model.trunk"]
    width = config["model.width"] or _MNIST_AUTO_WIDTH[variant]
    # member rows share one mask per set if dropout_simultaneous; pooled rows draw every entry
    drop = Dropout(config["model.dropout"], config["model.dropout_simultaneous"])
    if variant in ("I", "II"):
        layers = [Flatten(interleave=variant == "II"), Dense(n * input_dim, width, act, rng, "fc1"), drop,
                  Dense(width, trunk, act, rng, "fc2")]
    else:
        layers = [Dense(input_dim, width, act, rng, "enc"), drop]
        if variant == "IV":
            layers += [EquivariantLayer(width, trunk, act, rng=rng, name="eq"), drop]
        layers += [SetPool(config["model.pool"]), Dense(trunk if variant == "IV" else width, trunk, act, rng, "fc2")]
    layers += [drop, Dense(trunk, 9 * n + 1, "identity", rng, "out")]
    return SetModel(layers, "accuracy", True, set_size=n)


# --- evaluation -------------------------------------------------------------------


def evaluate_classifier(model: SetModel, dataset: LabeledSetDataset) -> Tuple[float, float]:
    """Returns (mean cross-entropy, accuracy), over batches of 64 sets."""
    total_loss = 0.0
    hits = 0
    for idx in batch_indices(len(dataset), 64):
        batch = make_set_batch(dataset, idx)
        labels = dataset.set_labels[idx]
        logits = evaluate(model, batch)
        tape = ad.Tape()
        total_loss += float(ad.softmax_cross_entropy(tape, tape.constant(logits), labels).value) * len(idx)
        hits += int(np.sum(np.argmax(logits, axis=1) == labels))
    n = len(dataset)
    return total_loss / n, hits / n


def evaluate_regressor(model: SetModel, dataset: LabeledSetDataset):
    """Returns (masked-mse loss, scatter), over batches of 64 sets. Scatter
    scores every member with a ground-truth label: all of them, or only the
    observed ones when ``dataset.observed_only`` is set, as for an ingested
    catalog."""
    sq_sum = 0.0
    sq_count = 0.0
    preds: List[np.ndarray] = []
    truths: List[np.ndarray] = []
    for idx in batch_indices(len(dataset), 64):
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


def _rng_state_token(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, separators=(",", ":"))


def _restore_rng(token: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(token)
    return rng


@dataclass
class TrainState:
    """Where a run starts: the optimizer over the model's parameters, the rng
    streams, the last epoch already trained and the best validation metric so
    far, with its epoch."""

    opt: Optimizer
    shuffle_rng: np.random.Generator
    dropout_rng: np.random.Generator
    epoch: int
    best_metric: float
    best_epoch: int


def start_training(
    model: SetModel, config: ExperimentConfig, train_data: LabeledSetDataset, resume_from: Optional[str] = None
) -> TrainState:
    """The state a run starts from, with every refusal a run makes before its
    first step made here, so a caller can make them before writing anything.

    ``resume_from`` names a checkpoint to continue: it restores the
    parameters, the optimizer state, the rng streams and the best validation
    metric and epoch so far, so a continued run reproduces the uninterrupted
    one exactly, ``checkpoint_best`` included.
    """
    if train_data.member_mask is not None and not _any_observed(train_data):
        raise ContractError("no member of the training sets has an observed label to train on")
    opt = Optimizer(
        config["optimizer.kind"],
        model.params(),
        lr=config["optimizer.lr"],
        beta1=config["optimizer.beta1"],
        beta2=config["optimizer.beta2"],
        clip_norm=config["optimizer.clip_norm"] or None,
    )
    if not resume_from:
        shuffle_seq, dropout_seq = np.random.SeedSequence(config["seed"]).spawn(2)
        best = -np.inf if model.higher_is_better else np.inf
        return TrainState(opt, np.random.default_rng(shuffle_seq), np.random.default_rng(dropout_seq), 0, best, 0)
    arrays, meta = load_params(resume_from)
    restore_params(opt.params, arrays)
    try:
        opt.load_state_arrays(arrays, int(meta["opt_t"]))
        return TrainState(
            opt,
            _restore_rng(meta["shuffle_rng"]),
            _restore_rng(meta["dropout_rng"]),
            int(meta["epoch"]),
            float(meta["best_metric"]),
            int(meta["best_epoch"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{resume_from}: checkpoint has no valid resume state ({exc!r})") from exc


def train_loop(
    model: SetModel,
    config: ExperimentConfig,
    train_data: LabeledSetDataset,
    val_data: LabeledSetDataset,
    metrics_sink: Optional[Callable[[MetricsRecord], None]] = None,
    best_checkpoint_path: Optional[str] = None,
    last_checkpoint_path: Optional[str] = None,
    start: Optional[TrainState] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Mini-batch epochs, deterministic under the config seed.

    Emits per-epoch train/validation metrics, tracks the best-validation
    checkpoint, and aborts with a diagnostic if the loss goes non-finite.
    Training continues from ``start`` (see ``start_training``), or from a
    fresh start when it is not given.
    """
    state = start_training(model, config, train_data) if start is None else start
    opt, shuffle_rng, dropout_rng = state.opt, state.shuffle_rng, state.dropout_rng
    best_metric, best_epoch = state.best_metric, state.best_epoch
    params = opt.params

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

    for epoch in range(state.epoch + 1, config["train.epochs"] + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_data))
        loss_sum = 0.0
        loss_count = 0
        for idx in batch_indices(len(train_data), config["train.batch_size"], order):
            batch = make_set_batch(train_data, idx)
            if not classification:
                targets, mask = member_targets(train_data, idx)
                if mask.sum() == 0:
                    continue  # nothing labeled in this batch
            tape = ad.Tape()
            bound = bind(tape, params)
            x = tape.constant(batch.values)  # a non-finite batch is reported as input, not as divergence
            try:
                out = model.apply(tape, x, batch.cardinalities, bound, dropout_rng)
                if classification:
                    loss = ad.softmax_cross_entropy(tape, out, train_data.set_labels[idx])
                else:
                    loss = ad.masked_mse(tape, out, targets, mask)
                grads = ad.backward(tape, loss)
                opt.step(grads)
            except NumericError as exc:
                raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
            loss_sum += float(loss.value) * len(idx)
            loss_count += len(idx)
            del x, out, loss, grads, bound, tape  # the last references: the step's graph is freed here
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

    return TrainResult(records, best_epoch, float(best_metric))


# --- experiment assembly ------------------------------------------------------------


def build_experiment_data(config: ExperimentConfig) -> Tuple[LabeledSetDataset, LabeledSetDataset]:
    seq = np.random.SeedSequence(config["seed"])
    data_seq = seq.spawn(3)[2]  # distinct from the training streams
    rng = np.random.default_rng(data_seq)
    train_sets, val_sets = config["data.train_sets"], config["data.val_sets"]
    if config.experiment == "mnist_sum":
        images, labels = config["data.images"], config["data.labels"]
        if images or labels:
            if not (images and labels):
                raise ConfigError("data.images and data.labels must be set together")
            images, labels = load_mnist_idx(images, labels)
        else:
            images, labels = synth_digits(
                config["data.source_count"],
                rng,
                styles_per_class=config["data.styles_per_class"],
                noise=config["data.noise"],
            )
        train_pool, val_pool = split_instance_indices(images.shape[0], 0.8, rng)
        n = config["data.set_size"]
        train = build_sum_sets(images, labels, n, train_sets, rng, pool=train_pool)
        return train, build_sum_sets(images, labels, n, val_sets, rng, pool=val_pool)
    if config.experiment == "pointcloud":
        classes, m = config["data.classes"], config["data.points"]
        return synth_shapes(classes, m, train_sets, rng), synth_shapes(classes, m, val_sets, rng)
    if config.experiment == "setregression":
        if config["data.catalog"]:
            columns = ("data.feature_columns", "data.label_column", "data.mask_column", "data.cluster_id_column")
            full = load_cluster_catalog(config["data.catalog"], *(config[key] for key in columns))
            order = rng.permutation(len(full))
            cut = int(round(len(full) * 0.9))
            val = full.subset(order[cut:])
            if not _any_observed(val):  # refused here, before a run trains an epoch it cannot score
                raise ContractError("no member of the validation sets has an observed label to score")
            return full.subset(order[:cut]), val
        kwargs = dict(
            size_range=(config["data.size_min"], config["data.size_max"]),
            labeled_fraction=config["data.labeled_fraction"],
            num_features=config["data.features"],
            informative=config["data.informative"],
            noise=config["data.noise"],
        )
        return synth_clusters(train_sets, rng=rng, **kwargs), synth_clusters(val_sets, rng=rng, **kwargs)
    raise ConfigError(f"unknown experiment {config.experiment!r}")


def build_experiment_model(config: ExperimentConfig, train_data: LabeledSetDataset) -> SetModel:
    seq = np.random.SeedSequence(config["seed"])
    init_rng = np.random.default_rng(seq.spawn(4)[3])
    act, k = config["model.activation"], train_data.channels
    if config.experiment == "mnist_sum":
        return _mnist_model(config, k, init_rng)
    if config.experiment == "pointcloud":
        # normalize -> equivariant stack -> set pool -> dense classifier
        layers: List = [NormalizeSets()]
        for i, w in enumerate(config["model.widths"]):
            layers.append(EquivariantLayer(k, w, act, rng=init_rng, name=f"eq{i + 1}"))
            k = w
        trunk = config["model.trunk"]
        drop = Dropout(config["model.dropout"])  # on pooled rows: every entry draws its own mask
        layers += [SetPool(config["model.pool"]), drop, Dense(k, trunk, act, init_rng, "fc"), drop,
                   Dense(trunk, train_data.num_classes, "identity", init_rng, "out")]
        return SetModel(layers, "accuracy", True)
    if config.experiment == "setregression":
        # per-member regression; the equivariant and per-member MLP variants
        # have the same parameter count layer for layer (one weight matrix
        # plus one bias each)
        widths = config["model.widths"]
        if not widths or widths[-1] != 1:
            raise ConfigError("last width must be 1 (one output per member)")
        equivariant = config["model.variant"] == "equivariant"
        # dropout between hidden layers; shared per set only for the set-aware variant
        drop = Dropout(config["model.dropout"], simultaneous=config["model.dropout_simultaneous"] and equivariant)
        layers = []
        for i, w in enumerate(widths):
            a = "identity" if i == len(widths) - 1 else act
            if i:
                layers.append(drop)
            if equivariant:
                layers.append(EquivariantLayer(k, w, a, rng=init_rng, name=f"eq{i + 1}"))
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


def activation_maximization(
    model: SetModel,
    layer_index: int,
    unit: int,
    m: int,
    iterations: int,
    rng: np.random.Generator,
    threshold: float = 0.5,
) -> ActMaxResult:
    """Optimize particle coordinates to excite one hidden unit.

    The objective is the mean, over the points, of one channel of the
    ``layer_index``-th equivariant layer (before pooling). Runs Adamax (lr
    0.01, betas 0.1 and 0.9) on the input coordinates, starting from uniformly
    scattered particles; the first network layer normalizes its input, so the
    coordinates need no box constraint. Units that never rise above ``threshold`` are reported as not
    activated.
    """
    if iterations < 0:
        raise ContractError("iteration budget must be >= 0")
    if m < 1:
        raise DimensionError(f"need at least one point, got {m}")
    ends = [i + 1 for i, layer in enumerate(model.layers) if isinstance(layer, EquivariantLayer)]
    if not 0 <= layer_index < len(ends):
        raise ContractError(f"layer index {layer_index} out of range")
    width = model.layers[ends[layer_index] - 1].k_out
    if not 0 <= unit < width:
        raise ContractError(f"unit {unit} out of range for width {width}")
    coords = Param("input.points", rng.uniform(-1.0, 1.0, size=(m, 3)))
    cards = np.array([m])

    def objective(tape: ad.Tape, x: ad.Node) -> ad.Node:
        bound = {p.name: tape.constant(p.value) for p in model.params()}
        h = model.apply(tape, x, cards, bound, upto=ends[layer_index])
        return ad.negated_channel_mean(tape, h, unit)

    opt = Optimizer("adamax", [coords], lr=0.01, beta1=0.1, beta2=0.9)
    for _ in range(iterations):
        tape = ad.Tape()
        opt.step(ad.backward(tape, objective(tape, tape.variable(coords.value, coords.name))))
    tape = ad.Tape()
    final = -float(objective(tape, tape.constant(coords.value)).value)
    return ActMaxResult(
        points=coords.value.copy(),
        activation=final,
        activated=final > threshold,
        iterations=iterations,
    )
