"""Golden training runs: tiny two-epoch configs whose metrics.log must keep
matching the values recorded for them.

Between them the configs cover every model variant the benchmark's default
configs leave out: mnist_sum I-IV, pointcloud with dropout on pooled rows,
and both setregression variants. Splits, epochs and metric names must match
exactly, losses and metric values to 1e-12 relative.

Golden data: the bytes ``build_experiment_data`` makes for each experiment's
default config, pinned as one SHA-256 per experiment and seed, so a change
to the data path cannot change the data unseen.
"""

import hashlib

import numpy as np
import pytest

from setnet.cli import main
from setnet.train import ExperimentConfig, build_experiment_data

TINY = ["--set", "data.train_sets=24", "--set", "data.val_sets=8", "--set", "train.batch_size=8",
        "--set", "train.epochs=2"]
MNIST = ["--experiment", "mnist_sum", "--set", "data.source_count=200"]
REGRESSION = ["--experiment", "setregression", "--set", "data.size_min=4", "--set", "data.size_max=9"]

GOLDEN = {
    "mnist_I": (MNIST + ["--set", "model.variant=I"], """\
epoch=1 split=train loss=3.961577921609799 accuracy=nan
epoch=1 split=val loss=3.114145001009569 accuracy=0.125
epoch=2 split=train loss=2.8841291828195263 accuracy=nan
epoch=2 split=val loss=3.2479456287005295 accuracy=0.25
"""),
    "mnist_II": (MNIST + ["--set", "model.variant=II"], """\
epoch=1 split=train loss=4.081171440058697 accuracy=nan
epoch=1 split=val loss=3.2862553145352935 accuracy=0.125
epoch=2 split=train loss=2.9304721313514235 accuracy=nan
epoch=2 split=val loss=3.5645797951268596 accuracy=0.0
"""),
    "mnist_III": (MNIST + ["--set", "model.variant=III"], """\
epoch=1 split=train loss=4.706424298352182 accuracy=nan
epoch=1 split=val loss=4.158450014782445 accuracy=0.125
epoch=2 split=train loss=4.004868813958619 accuracy=nan
epoch=2 split=val loss=4.239117237822867 accuracy=0.0
"""),
    "mnist_IV": (MNIST + ["--set", "model.variant=IV"], """\
epoch=1 split=train loss=3.812751979652371 accuracy=nan
epoch=1 split=val loss=3.292276548571426 accuracy=0.125
epoch=2 split=train loss=2.563231495723032 accuracy=nan
epoch=2 split=val loss=3.5682034363961446 accuracy=0.0
"""),
    "pointcloud_dropout": (["--experiment", "pointcloud", "--set", "data.points=16", "--set", "model.dropout=0.3"], """\
epoch=1 split=train loss=1.7502364618889115 accuracy=nan
epoch=1 split=val loss=1.379143869013237 accuracy=0.0
epoch=2 split=train loss=1.490973073565698 accuracy=nan
epoch=2 split=val loss=1.4146002740883077 accuracy=0.0
"""),
    "setregression_equivariant": (REGRESSION + ["--set", "model.variant=equivariant"], """\
epoch=1 split=train loss=0.5446369468609534 scatter=nan
epoch=1 split=val loss=0.0467907489399476 scatter=0.17006853630836943
epoch=2 split=train loss=1.0929549563016219 scatter=nan
epoch=2 split=val loss=0.07672918612806558 scatter=0.17939757973181236
"""),
    "setregression_baseline_mlp": (REGRESSION + ["--set", "model.variant=baseline_mlp"], """\
epoch=1 split=train loss=0.9133318649921981 scatter=nan
epoch=1 split=val loss=0.25871929356972234 scatter=0.3181656627959444
epoch=2 split=train loss=0.8979707346328966 scatter=nan
epoch=2 split=val loss=0.20239365866552936 scatter=0.27566018364974215
"""),
}


def parse(log: str):
    """One ((epoch, split, metric name), (loss, metric value)) per line."""
    rows = []
    for line in log.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        epoch, split, loss = fields.pop("epoch"), fields.pop("split"), float(fields.pop("loss"))
        (name, value), = fields.items()
        rows.append(((int(epoch), split, name), (loss, float(value))))
    return rows


@pytest.mark.parametrize("name", list(GOLDEN))
def test_metrics_match_golden(name, tmp_path):
    args, expected = GOLDEN[name]
    assert main(["train", "--out", str(tmp_path), "--quiet", *args, *TINY]) == 0
    got = parse((tmp_path / "metrics.log").read_text())
    want = parse(expected)
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, values), (_, expected_values) in zip(got, want):
        assert values == pytest.approx(expected_values, rel=1e-12, nan_ok=True), key


DATA_DIGESTS = {
    ("mnist_sum", 0): "dde5bef932f476b3530ad9eb2dec46385f7d2d2247c07f0c3efaea9a243daebb",
    ("mnist_sum", 1): "ae13b998704f54291ba1e8fa0c5b1d6521fe82fa932fd1d440d756dd472b25ee",
    ("pointcloud", 0): "a9426b8abf82ffe9b64392467005bd86d4bbf66ef30e1bb7478125a4507a3428",
    ("pointcloud", 1): "7849f57a1e9c111ca9ab713614b916598ad0f20fea8a95501d44eeaf4dc687a1",
    ("setregression", 0): "1341abbf7761e0d223815f2cdc04da5e51889de323986a6ae19e4d9e1386fd4c",
    ("setregression", 1): "1d0690f5952103b0061b6c159778fab3a619571e9406003a0442f4f2d13c1658",
}


def data_digest(config) -> str:
    """SHA-256 over the train and then the validation dataset: for each, its
    rows, set labels, member labels, member mask and each set's member
    indices, every array with its dtype and shape (a missing one as None)."""
    digest = hashlib.sha256()
    for dataset in build_experiment_data(config):
        for array in (dataset.rows, dataset.set_labels, dataset.member_labels, dataset.member_mask,
                      *dataset.members):
            if array is None:
                digest.update(b"None")
                continue
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("experiment, seed", list(DATA_DIGESTS))
def test_default_data_matches_golden_digest(experiment, seed):
    config = ExperimentConfig({"experiment": experiment, "seed": str(seed)})
    assert data_digest(config) == DATA_DIGESTS[experiment, seed]
