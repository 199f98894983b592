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
    NormalizeSets,
    Param,
    SetBatch,
    SetPool,
    bind,
    count_params,
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
    "model.activation": "",  # empty value: use the experiment default
    "model.pool": "sum",
    "model.dropout": "0.0",
    "model.dropout_simultaneous": "true",
    "optimizer.kind": "adam",
    "optimizer.lr": "0.001",
    "optimizer.beta1": "0.9",
    "optimizer.beta2": "0.999",
    "optimizer.clip_norm": "0.0",
    "train.batch_size": "32",
    "train.epochs": "30",
    "data.source": "synthetic",
}

_EXPERIMENT_DEFAULTS = {
    "mnist_sum": {
        **_COMMON_DEFAULTS,
        "model.variant": "IV",
        "model.width": "0",  # 0: per-variant auto width
        "model.trunk": "128",
        "model.dropout": "0.2",
        "data.set_size": "3",
        "data.train_sets": "2000",
        "data.val_sets": "1000",
        "data.source_count": "12000",
        "data.styles_per_class": "4",
        "data.noise": "0.15",
        "data.images": "",
        "data.labels": "",
    },
    "pointcloud": {
        **_COMMON_DEFAULTS,
        "model.variant": "equivariant",
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
        self.variant = self.values["model.variant"]
        self.activation = self.values["model.activation"] or (
            "elu" if self.experiment == "mnist_sum" else "tanh"
        )
        self.pool = self.values["model.pool"]
        self.dropout = self._float("model.dropout", 0.0, 0.999)
        self.dropout_simultaneous = self._bool("model.dropout_simultaneous")
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


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# --- batching ---------------------------------------------------------------------


def make_set_batch(dataset: LabeledSetDataset, indices: Sequence[int]) -> SetBatch:
    idx = list(indices)
    n_max = max(dataset.sets[i].shape[0] for i in idx)
    k = dataset.channels
    values = np.zeros((len(idx), n_max, k))
    cards = np.empty(len(idx), dtype=np.intp)
    for row, i in enumerate(idx):
        s = dataset.sets[i]
        values[row, : s.shape[0]] = s
        cards[row] = s.shape[0]
    return SetBatch(values, cards)


def member_targets(dataset: LabeledSetDataset, indices: Sequence[int], n_max: int):
    """Padded [B, n_max] target and observed-mask arrays."""
    idx = list(indices)
    targets = np.zeros((len(idx), n_max))
    mask = np.zeros((len(idx), n_max))
    for row, i in enumerate(idx):
        n = dataset.sets[i].shape[0]
        targets[row, :n] = dataset.member_labels[i]
        mask[row, :n] = dataset.member_mask[i].astype(np.float64)
    return targets, mask


def batch_indices(count: int, batch_size: int, order: Optional[np.ndarray] = None) -> Iterable[np.ndarray]:
    order = np.arange(count) if order is None else order
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


# --- models -----------------------------------------------------------------------


class MnistSumModel:
    """Digit-sum classifier over sets of flattened images, four variants.

    I concatenates members into one long vector, II interleaves members
    pixel-major (channel stacking), III runs a shared per-member encoder and
    pools, IV inserts an equivariant layer between encoder and pooling.
    """

    metric_name = "accuracy"
    higher_is_better = True

    def __init__(
        self,
        variant: str,
        set_size: int,
        input_dim: int = 784,
        width: int = 0,
        trunk: int = 128,
        activation: str = "elu",
        pool: str = "sum",
        dropout: float = 0.2,
        simultaneous: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if variant not in MNIST_VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        rng = rng or np.random.default_rng(0)
        self.variant = variant
        self.set_size = set_size
        self.input_dim = input_dim
        self.num_classes = 9 * set_size + 1
        self.width = width if width > 0 else _MNIST_AUTO_WIDTH[variant]
        self.trunk = trunk
        self.activation = activation
        self.pool = SetPool(pool)
        self.drop = Dropout(dropout, simultaneous)
        self.flat_drop = Dropout(dropout, simultaneous=False)
        w = self.width
        if variant in ("I", "II"):
            self.fc1 = Dense(set_size * input_dim, w, activation, rng, "fc1")
            self.fc2 = Dense(w, trunk, activation, rng, "fc2")
            self.out = Dense(trunk, self.num_classes, "identity", rng, "out")
            self._layers = [self.fc1, self.fc2, self.out]
        elif variant == "III":
            self.enc = Dense(input_dim, w, activation, rng, "enc")
            self.fc2 = Dense(w, trunk, activation, rng, "fc2")
            self.out = Dense(trunk, self.num_classes, "identity", rng, "out")
            self._layers = [self.enc, self.fc2, self.out]
        else:  # IV
            self.enc = Dense(input_dim, w, activation, rng, "enc")
            self.eq = EquivariantLayer(w, trunk, "channel_factored", activation, rng=rng, name="eq")
            self.fc2 = Dense(trunk, trunk, activation, rng, "fc2")
            self.out = Dense(trunk, self.num_classes, "identity", rng, "out")
            self._layers = [self.enc, self.eq, self.fc2, self.out]

    def params(self) -> List[Param]:
        out: List[Param] = []
        for layer in self._layers:
            out.extend(layer.params())
        return out

    def logits(
        self,
        tape: ad.Tape,
        batch: SetBatch,
        bound: Dict[str, ad.Node],
        rng: Optional[np.random.Generator] = None,
        training: bool = False,
    ) -> ad.Node:
        if np.any(batch.cardinalities != self.set_size):
            raise DimensionError(f"variant {self.variant} expects exactly {self.set_size} members per set")
        values, cards = batch.values, batch.cardinalities
        b = batch.num_sets
        if self.variant in ("I", "II"):
            flat = values.reshape(b, -1) if self.variant == "I" else values.transpose(0, 2, 1).reshape(b, -1)
            h = self.fc1.apply(tape, tape.constant(flat), bound)
            h = self.flat_drop.apply(tape, h, rng, training)
            h = self.fc2.apply(tape, h, bound)
            h = self.flat_drop.apply(tape, h, rng, training)
            return self.out.apply(tape, h, bound)
        x = tape.constant(values)
        h = self.enc.apply(tape, x, bound)
        h = self.drop.apply(tape, h, rng, training)
        if self.variant == "IV":
            h = self.eq.apply(tape, h, cards, bound)
            h = self.drop.apply(tape, h, rng, training)
        pooled = self.pool.apply(tape, h, cards)
        t = self.fc2.apply(tape, pooled, bound)
        t = self.flat_drop.apply(tape, t, rng, training)
        return self.out.apply(tape, t, bound)

    def loss(self, tape, batch: SetBatch, labels, bound, rng=None, training=False) -> ad.Node:
        return ad.softmax_cross_entropy(self.logits(tape, batch, bound, rng, training), labels)

    def predict_logits(self, batch: SetBatch) -> np.ndarray:
        tape = ad.Tape()
        bound = {p.name: tape.constant(p.value) for p in self.params()}
        return self.logits(tape, batch, bound).value


class PointCloudModel:
    """normalize -> equivariant stack -> set max-pool -> dense classifier."""

    metric_name = "accuracy"
    higher_is_better = True

    def __init__(
        self,
        num_classes: int,
        widths: Sequence[int] = (64, 64, 64),
        trunk: int = 64,
        activation: str = "tanh",
        pool: str = "max",
        dropout: float = 0.0,
        simultaneous: bool = True,
        input_dim: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.num_classes = num_classes
        self.normalize = NormalizeSets()
        self.eq_layers: List[EquivariantLayer] = []
        k = input_dim
        for i, w in enumerate(widths):
            self.eq_layers.append(
                EquivariantLayer(k, w, "channel_factored", activation, rng=rng, name=f"eq{i + 1}")
            )
            k = w
        self.pool = SetPool(pool)
        self.fc = Dense(k, trunk, activation, rng, "fc")
        self.out = Dense(trunk, num_classes, "identity", rng, "out")
        self.drop = Dropout(dropout, simultaneous=False)

    def params(self) -> List[Param]:
        out: List[Param] = []
        for layer in self.eq_layers:
            out.extend(layer.params())
        out.extend(self.fc.params())
        out.extend(self.out.params())
        return out

    def equivariant_stack(self, tape, x: ad.Node, cards, bound, upto: Optional[int] = None) -> ad.Node:
        h = self.normalize.apply(tape, x, cards)
        layers = self.eq_layers if upto is None else self.eq_layers[: upto + 1]
        for layer in layers:
            h = layer.apply(tape, h, cards, bound)
        return h

    def logits(self, tape, batch: SetBatch, bound, rng=None, training=False) -> ad.Node:
        x = tape.constant(batch.values)
        h = self.equivariant_stack(tape, x, batch.cardinalities, bound)
        pooled = self.pool.apply(tape, h, batch.cardinalities)
        pooled = self.drop.apply(tape, pooled, rng, training)
        t = self.fc.apply(tape, pooled, bound)
        t = self.drop.apply(tape, t, rng, training)
        return self.out.apply(tape, t, bound)

    def loss(self, tape, batch, labels, bound, rng=None, training=False) -> ad.Node:
        return ad.softmax_cross_entropy(self.logits(tape, batch, bound, rng, training), labels)

    def predict_logits(self, batch: SetBatch) -> np.ndarray:
        tape = ad.Tape()
        bound = {p.name: tape.constant(p.value) for p in self.params()}
        return self.logits(tape, batch, bound).value

    def unit_activation(self, tape, x: ad.Node, cards, bound, layer_index: int, unit: int) -> ad.Node:
        """Mean activation of one channel of one equivariant layer, pre-pool."""
        if not 0 <= layer_index < len(self.eq_layers):
            raise ContractError(f"layer index {layer_index} out of range")
        h = self.equivariant_stack(tape, x, cards, bound, upto=layer_index)
        width = self.eq_layers[layer_index].k_out
        if not 0 <= unit < width:
            raise ContractError(f"unit {unit} out of range for width {width}")
        selector = np.zeros((width, 1))
        selector[unit, 0] = 1.0
        b, n, _ = h.value.shape
        picked = (h.reshape((b * n, width)) @ tape.constant(selector)).reshape((b, n))
        return picked.mean(axis=1).sum_all()


class ClusterRegressionModel:
    """Per-member regression over clusters; equivariant or per-member MLP.

    The two variants have identical parameter counts layer for layer: an
    equivariant layer with max-normalisation carries exactly one weight
    matrix plus one bias, same as a dense layer.
    """

    metric_name = "scatter"
    higher_is_better = False

    def __init__(
        self,
        variant: str = "equivariant",
        input_dim: int = 17,
        widths: Sequence[int] = (128, 128, 128, 1),
        activation: str = "tanh",
        dropout: float = 0.5,
        simultaneous: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if variant not in ("equivariant", "baseline_mlp"):
            raise ConfigError(f"unknown regression variant {variant!r}")
        if widths[-1] != 1:
            raise ConfigError("last width must be 1 (one output per member)")
        rng = rng or np.random.default_rng(0)
        self.variant = variant
        self.layers: List = []
        k = input_dim
        for i, w in enumerate(widths):
            act = "identity" if i == len(widths) - 1 else activation
            if variant == "equivariant":
                self.layers.append(EquivariantLayer(k, w, "channel_factored", act, rng=rng, name=f"eq{i + 1}"))
            else:
                self.layers.append(Dense(k, w, act, rng, name=f"fc{i + 1}"))
            k = w
        # dropout between hidden layers; shared per set only for the set-aware variant
        self.drop = Dropout(dropout, simultaneous=simultaneous and variant == "equivariant")

    def params(self) -> List[Param]:
        out: List[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def predictions(self, tape, batch: SetBatch, bound, rng=None, training=False) -> ad.Node:
        h: ad.Node = tape.constant(batch.values)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, EquivariantLayer):
                h = layer.apply(tape, h, batch.cardinalities, bound)
            else:
                h = layer.apply(tape, h, bound)
            if i < len(self.layers) - 1:
                h = self.drop.apply(tape, h, rng, training)
        b, n, _ = h.value.shape
        return h.reshape((b, n))

    def loss(self, tape, batch: SetBatch, targets: np.ndarray, mask: np.ndarray, bound, rng=None, training=False) -> ad.Node:
        labeled = float(mask.sum())
        if labeled == 0:
            raise ContractError("batch has no labeled members")
        pred = self.predictions(tape, batch, bound, rng, training)
        diff = (pred - tape.constant(targets)) * tape.constant(mask)
        return (diff * diff).sum_all() * (1.0 / labeled)

    def predict(self, batch: SetBatch) -> np.ndarray:
        tape = ad.Tape()
        bound = {p.name: tape.constant(p.value) for p in self.params()}
        return self.predictions(tape, batch, bound).value


def build_mnist_model(variant: str, set_size: int, rng: np.random.Generator, **kwargs) -> MnistSumModel:
    return MnistSumModel(variant, set_size, rng=rng, **kwargs)


def build_pointcloud_model(num_classes: int, rng: np.random.Generator, **kwargs) -> PointCloudModel:
    return PointCloudModel(num_classes, rng=rng, **kwargs)


def build_regression_model(variant: str, rng: np.random.Generator, **kwargs) -> ClusterRegressionModel:
    return ClusterRegressionModel(variant, rng=rng, **kwargs)


def mnist_parameter_report(set_size: int, trunk: int = 128) -> Dict[str, int]:
    """Parameter counts of the four variants at their default widths."""
    rng = np.random.default_rng(0)
    return {
        v: count_params(MnistSumModel(v, set_size, trunk=trunk, rng=rng).params())
        for v in MNIST_VARIANTS
    }


# --- evaluation -------------------------------------------------------------------


def evaluate_classifier(model, dataset: LabeledSetDataset, batch_size: int = 64) -> Tuple[float, float]:
    total_loss = 0.0
    hits = 0
    for idx in batch_indices(len(dataset), batch_size):
        batch = make_set_batch(dataset, idx)
        labels = dataset.set_labels[idx]
        logits = model.predict_logits(batch)
        probs_loss = _ce_loss_value(logits, labels)
        total_loss += probs_loss * len(idx)
        hits += int(np.sum(np.argmax(logits, axis=1) == labels))
    n = len(dataset)
    return total_loss / n, hits / n


def _ce_loss_value(logits: np.ndarray, labels: np.ndarray) -> float:
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shift), axis=1))
    return float(np.mean(lse - shift[np.arange(len(labels)), labels]))


def evaluate_regressor(model, dataset: LabeledSetDataset, batch_size: int = 64, observed_only: bool = False):
    """Returns (masked-mse loss, scatter). Scatter scores every member with a
    ground-truth label unless ``observed_only`` restricts it to the observed
    (training-visible) subset, as with an ingested catalog."""
    sq_sum = 0.0
    sq_count = 0.0
    preds: List[np.ndarray] = []
    truths: List[np.ndarray] = []
    for idx in batch_indices(len(dataset), batch_size):
        batch = make_set_batch(dataset, idx)
        targets, mask = member_targets(dataset, idx, batch.max_size)
        pred = model.predict(batch)
        diff = (pred - targets) * mask
        sq_sum += float(np.sum(diff * diff))
        sq_count += float(mask.sum())
        for row, i in enumerate(idx):
            n = dataset.sets[i].shape[0]
            keep = dataset.member_mask[i] if observed_only else np.ones(n, dtype=bool)
            preds.append(pred[row, :n][keep])
            truths.append(dataset.member_labels[i][keep])
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
    model,
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
        restore_params(params, {k: v for k, v in arrays.items() if not k.startswith("opt.")})
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
            tape = ad.Tape()
            bound = bind(tape, params)
            try:
                if classification:
                    labels = train_data.set_labels[idx]
                    loss = model.loss(tape, batch, labels, bound, rng=dropout_rng, training=True)
                else:
                    targets, mask = member_targets(train_data, idx, batch.max_size)
                    if mask.sum() == 0:
                        continue  # nothing labeled in this batch
                    loss = model.loss(tape, batch, targets, mask, bound, rng=dropout_rng, training=True)
                grads = ad.backward(tape, loss)
                opt.step(grads)
            except NumericError as exc:
                raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
            loss_sum += float(loss.value) * len(idx)
            loss_count += len(idx)
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
        if v["data.source"] == "files":
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


def build_experiment_model(config: ExperimentConfig, train_data: LabeledSetDataset):
    seq = np.random.SeedSequence(config.seed)
    init_rng = np.random.default_rng(seq.spawn(4)[3])
    if config.experiment == "mnist_sum":
        return MnistSumModel(
            config.variant,
            config._int("data.set_size", minimum=1),
            input_dim=train_data.channels,
            width=config._int("model.width", minimum=0),
            trunk=config._int("model.trunk", minimum=1),
            activation=config.activation,
            pool=config.pool,
            dropout=config.dropout,
            simultaneous=config.dropout_simultaneous,
            rng=init_rng,
        )
    if config.experiment == "pointcloud":
        return PointCloudModel(
            train_data.num_classes,
            widths=config.int_list("model.widths"),
            trunk=config._int("model.trunk", minimum=1),
            activation=config.activation,
            pool=config.pool,
            dropout=config.dropout,
            input_dim=train_data.channels,
            rng=init_rng,
        )
    if config.experiment == "setregression":
        return ClusterRegressionModel(
            config.variant,
            input_dim=train_data.channels,
            widths=config.int_list("model.widths"),
            activation=config.activation,
            dropout=config.dropout,
            simultaneous=config.dropout_simultaneous,
            rng=init_rng,
        )
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
    model: PointCloudModel,
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

    Runs Adamax on the input coordinates, starting from uniformly scattered
    particles; the first network layer normalizes its input, so the
    coordinates need no box constraint. Units that never rise above
    ``threshold`` are reported as not activated.
    """
    if iterations < 0:
        raise ContractError("iteration budget must be >= 0")
    coords = Param("input.points", rng.uniform(-1.0, 1.0, size=(1, m, 3)))
    cards = np.array([m])
    opt = Optimizer("adamax", [coords], lr=lr, beta1=beta1, beta2=beta2)
    history: List[float] = []
    for it in range(iterations):
        tape = ad.Tape()
        x = tape.variable(coords.value, coords.name)
        bound = {p.name: tape.constant(p.value) for p in model.params()}
        objective = model.unit_activation(tape, x, cards, bound, layer_index, unit)
        negated = -objective
        grads = ad.backward(tape, negated)
        opt.step(grads)
        act = float(objective.value)
        if it % history_every == 0:
            history.append(act)
    final = _unit_activation_value(model, coords.value, cards, layer_index, unit)
    return ActMaxResult(
        points=coords.value[0].copy(),
        activation=final,
        activated=final > threshold,
        iterations=iterations,
        history=history,
    )


def _unit_activation_value(model, values, cards, layer_index, unit) -> float:
    tape = ad.Tape()
    x = tape.constant(values)
    bound = {p.name: tape.constant(p.value) for p in model.params()}
    return float(model.unit_activation(tape, x, cards, bound, layer_index, unit).value)
