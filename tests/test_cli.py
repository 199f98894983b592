import os
import subprocess
import sys

import numpy as np
import pytest

from setnet import cli
from setnet.cli import _fail_code, main
from setnet.data import synth_clusters
from setnet.errors import EmptyReductionError
from setnet.train import _TABLES

from helpers import save_cluster_catalog

SMALL_MNIST = ["--set", "data.source_count=200", "--set", "data.train_sets=8", "--set", "data.val_sets=4"]


def test_check_equivariance_mnist_defaults_to_model_set_size(capsys):
    assert main(["check-equivariance", "--experiment", "mnist_sum", "--trials", "3"] + SMALL_MNIST) == 0
    assert "verdict=equivariant" in capsys.readouterr().out


def test_check_equivariance_explicit_n_is_honoured(capsys):
    code = main(["check-equivariance", "--experiment", "mnist_sum", "--n", "5", "--trials", "3"] + SMALL_MNIST)
    assert code == 2  # a variant IV model takes exactly data.set_size members
    assert "DimensionError" in capsys.readouterr().err


def test_check_equivariance_stack_demo_with_one_channel(capsys):
    assert main(["check-equivariance", "--demo", "stack", "--channels", "1", "--trials", "3"]) == 0
    assert "verdict=equivariant" in capsys.readouterr().out


@pytest.mark.parametrize(
    "experiment, setting",
    [
        ("mnist_sum", "data.source=files"),
        ("pointcloud", "model.variant=banana"),
        ("pointcloud", "model.dropout_simultaneous=false"),
        ("pointcloud", "data.source=files"),
        ("setregression", "model.pool=bogus"),
        ("setregression", "data.source=files"),
    ],
)
def test_settings_that_change_nothing_are_unknown_keys(tmp_path, capsys, experiment, setting):
    assert main(["train", "--experiment", experiment, "--set", setting, "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def _bad_texts(kind):
    """Texts that a key of type ``kind`` (written as in the table) must refuse; none for free text."""
    if isinstance(kind, list):
        return _bad_texts(kind[0]) + ([""] if isinstance(kind[0], tuple) else [])
    if kind is str:
        return []
    if kind is bool:
        return ["maybe"]
    if isinstance(kind, int):
        return [str(kind - 1), "6a"]
    if isinstance(kind[0], str):
        return ["bogus"]
    lo, hi = kind
    if isinstance(lo, int):
        return [str(lo - 1), str(hi + 1), "6a"]
    return [repr(lo - 1.0), repr(hi * 2 + 1.0), "x"]


_BAD_SETTINGS = [
    (experiment, key, text)
    for experiment, table in _TABLES.items()
    for key, (_, kind) in table.items()
    for text in _bad_texts(kind)
]


@pytest.mark.parametrize(
    "experiment, key, text", _BAD_SETTINGS, ids=[f"{e}-{k}={t}" for e, k, t in _BAD_SETTINGS]
)
def test_bad_value_refused_before_any_output(tmp_path, capsys, experiment, key, text):
    out = tmp_path / "run"
    assert main(["train", "--experiment", experiment, "--set", f"{key}={text}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error (ConfigError): {key} ")
    assert not out.exists()


def test_every_typed_key_has_a_bad_value():
    typed = {(e, k) for e, k, _ in _BAD_SETTINGS}
    counts = {e: len(table) for e, table in _TABLES.items()}
    assert counts == {"mnist_sum": 23, "pointcloud": 17, "setregression": 26}
    free = {(e, k) for e, table in _TABLES.items() for k in table if (e, k) not in typed}
    assert free == {
        ("mnist_sum", "data.images"), ("mnist_sum", "data.labels"), ("setregression", "data.catalog"),
        ("setregression", "data.feature_columns"), ("setregression", "data.label_column"),
        ("setregression", "data.mask_column"), ("setregression", "data.cluster_id_column"),
    }


@pytest.mark.parametrize(
    "experiment, settings, error, message",
    [
        ("mnist_sum", ["data.images=images.idx"], "ConfigError", "must be set together"),
        ("mnist_sum", ["data.source_count=10"], "DimensionError", "set size 3 exceeds the 2 images"),
        ("setregression", ["model.widths=8,2"], "ConfigError", "last width must be 1"),
        ("setregression", ["data.size_min=40", "data.size_max=16"], "DimensionError", "invalid size range"),
        ("setregression", ["data.informative=18"], "DimensionError", "more informative channels"),
    ],
    ids=["images_without_labels", "set_above_pool", "last_width", "size_range", "informative_above_features"],
)
def test_cross_key_errors_leave_no_output(tmp_path, capsys, experiment, settings, error, message):
    out = tmp_path / "run"
    argv = ["train", "--experiment", experiment, "--out", str(out), "--set", "data.train_sets=4", "--set",
            "data.val_sets=2"]
    assert main(argv + [arg for kv in settings for arg in ("--set", kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({error}): ") and message in err
    assert not out.exists()


def test_catalog_without_feature_columns_is_refused(tmp_path, capsys):
    catalog = tmp_path / "cat.csv"
    save_cluster_catalog(catalog, synth_clusters(30, (16, 40), np.random.default_rng(1)))
    out = tmp_path / "run"
    settings = [f"data.catalog={catalog}", "data.label_column=target", "data.mask_column=has_target",
                "data.cluster_id_column=cluster_id", "train.epochs=2"]
    argv = ["train", "--experiment", "setregression", "--out", str(out)]
    assert main(argv + [arg for kv in settings for arg in ("--set", kv)]) == 2
    assert "error (DimensionError): sets need at least one channel" in capsys.readouterr().err
    assert not out.exists()


def test_catalog_without_a_labeled_validation_member_is_refused(tmp_path, capsys):
    # one labeled cluster of ten: at seed 0 the validation split is one of the others
    catalog = tmp_path / "cat.csv"
    catalog.write_text("cluster_id,f0,target,has_target\n" + "".join(
        f"c{c},{c + m / 10},{0.5 if c == 0 else 0.0},{int(c == 0)}\n" for c in range(10) for m in range(4)))
    out = tmp_path / "run"
    settings = [f"data.catalog={catalog}", "data.feature_columns=f0", "data.label_column=target",
                "data.mask_column=has_target", "data.cluster_id_column=cluster_id", "train.epochs=2"]
    argv = ["train", "--experiment", "setregression", "--out", str(out), "--quiet"]
    assert main(argv + [arg for kv in settings for arg in ("--set", kv)]) == 2
    assert "error (ContractError): no member of the validation sets has an observed label" in capsys.readouterr().err
    assert not out.exists()


def test_regression_without_a_labeled_training_member_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    settings = ["data.labeled_fraction=0", "train.epochs=2", "data.train_sets=8", "data.val_sets=4"]
    argv = ["train", "--experiment", "setregression", "--out", str(out), "--quiet"]
    assert main(argv + [arg for kv in settings for arg in ("--set", kv)]) == 2
    assert "error (ContractError): no member of the training sets has an observed label" in capsys.readouterr().err
    assert not (out / "checkpoint_last.txt").exists()


@pytest.mark.parametrize("n, code, error", [(1, 2, "DimensionError"), (0, 2, "DimensionError"), (8, 5, "BudgetError")])
def test_verify_theorem_set_size_outside_range(capsys, n, code, error):
    assert main(["verify-theorem", "--n", str(n), "--trials", "1"]) == code
    assert capsys.readouterr().err.startswith(f"error ({error}): ")


@pytest.mark.parametrize(
    "content",
    [b"OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", b"OFF\n3 1 0\n0 0 0\n1 \xff 0\n0 1 0\n3 0 1 2\n"],
    ids=["negative_count", "non_utf8"],
)
def test_bad_mesh_exits_with_format_code(tmp_path, capsys, content):
    off = tmp_path / "bad.off"
    off.write_bytes(content)
    assert main(["sample-mesh", "--off", str(off), "--out", str(tmp_path / "pts.xyz")]) == 3
    assert "FormatError" in capsys.readouterr().err


def test_zero_area_mesh_exits_with_format_code(tmp_path, capsys):
    off = tmp_path / "flat.off"
    off.write_bytes(b"OFF\n3 1 0\n0 0 0\n1 1 1\n2 2 2\n3 0 1 2\n")  # collinear corners
    assert main(["sample-mesh", "--off", str(off), "--out", str(tmp_path / "pts.xyz")]) == 3
    assert "DegenerateMeshError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["actmax", "--experiment", "pointcloud", "--points", "1", "--iters", "1", "--out", "{tmp}/act.xyz"],
        ["check-equivariance", "--experiment", "pointcloud", "--n", "1", "--trials", "1"],
    ],
    ids=["actmax_one_point", "check_equivariance_one_member"],
)
def test_too_small_set_exits_with_usage_code(tmp_path, capsys, command):
    assert main([arg.format(tmp=tmp_path) for arg in command]) == 2
    assert "DegenerateSetError" in capsys.readouterr().err


def test_empty_reduction_maps_to_usage_code():
    assert _fail_code(EmptyReductionError("sets must have at least one member")) == 2


@pytest.mark.parametrize(
    "command, code, error",
    [
        (["train", "--config", "{missing}", "--out", "{tmp}/run"], 2, "FileNotFoundError"),
        (["train", "--config", "{latin1}", "--out", "{tmp}/run"], 3, "FormatError"),
        (["sample-mesh", "--off", "{missing}", "--out", "{tmp}/pts.xyz"], 2, "FileNotFoundError"),
        (["eval", "--experiment", "setregression", "--checkpoint", "{missing}"], 2, "FileNotFoundError"),
    ],
    ids=["train_missing_config", "train_non_utf8_config", "sample_mesh_missing_off", "eval_missing_checkpoint"],
)
def test_unreadable_input_gives_error_line(tmp_path, capsys, command, code, error):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"experiment=setregression\n# caf\xe9\n")
    paths = {"missing": tmp_path / "absent.txt", "latin1": latin1, "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in command]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error ({error}): ") and "Traceback" not in err


def test_train_then_eval_reproduces_checkpoint_metric(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--experiment", "setregression", "--set", "data.train_sets=12", "--set", "data.val_sets=6",
            "--set", "model.widths=8,1", "--set", "train.epochs=2"]
    assert main(["train", "--out", str(out), "--quiet"] + args) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint_best.txt", "checkpoint_last.txt", "config.resolved.cfg", "metrics.log", "summary.txt",
    ]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_last.txt")] + args) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
    assert float(lines["reproduction_error"]) == 0.0


class _Libc:
    """Stands in for ``ctypes.CDLL(None)``: records ``mallopt`` calls."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):  # a function, so the helper can set argtypes on it
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_main_sets_the_allocator_thresholds(monkeypatch, capsys):
    libc = _Libc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert main(["verify-theorem", "--n", "3", "--trials", "1"]) == 0
    assert libc.calls == [(-3, 32 << 20), (-1, 512 << 20)]


def test_allocator_helper_stops_when_mallopt_refuses(monkeypatch):
    libc = _Libc(result=0)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_freed_pages()
    assert libc.calls == [(-3, 32 << 20)]


def test_allocator_helper_is_a_no_op_without_mallopt(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    cli._keep_freed_pages()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._keep_freed_pages()


def test_importing_setnet_leaves_the_allocator_alone():
    # numpy is imported first: only what setnet itself does on import is watched
    code = (
        "import ctypes, numpy\n"
        "opened = []\n"
        "real = ctypes.CDLL\n"
        "ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k)\n"
        "import setnet, setnet.cli\n"
        "assert None not in opened, opened\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# tiny runs of each experiment, for the resume tests
TINY = {
    "mnist_sum": ["data.source_count=200", "data.train_sets=24", "data.val_sets=8", "train.batch_size=8"],
    "pointcloud": ["data.points=16", "data.train_sets=24", "data.val_sets=8", "train.batch_size=8"],
    "setregression": ["data.train_sets=16", "data.val_sets=8", "data.size_min=4", "data.size_max=9",
                      "model.widths=8,8,1"],
}
RUN_FILES = ("metrics.log", "checkpoint_best.txt", "checkpoint_last.txt", "summary.txt")


def _train(out, experiment, epochs, *extra):
    settings = TINY[experiment] + [f"train.epochs={epochs}"]
    argv = ["train", "--experiment", experiment, "--out", str(out), "--quiet", *extra]
    return main(argv + [arg for kv in settings for arg in ("--set", kv)])


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_resumed_run_ends_as_the_straight_run(tmp_path, capsys, experiment):
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert _train(straight, experiment, 3) == 0
    assert _train(resumed, experiment, 1) == 0
    assert _train(resumed, experiment, 3, "--resume", str(resumed / "checkpoint_last.txt")) == 0
    for name in RUN_FILES:
        assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name
    assert (straight / "metrics.log").read_text().count("\n") == 6


def test_resume_drops_log_lines_past_its_checkpoint(tmp_path, capsys):
    # a run that logged epoch 2 and stopped before checkpointing it leaves a
    # log one epoch ahead of its checkpoint_last
    straight, cut, ahead = tmp_path / "straight", tmp_path / "cut", tmp_path / "ahead"
    assert _train(straight, "setregression", 3) == 0
    assert _train(cut, "setregression", 1) == 0
    assert _train(ahead, "setregression", 2) == 0
    (cut / "metrics.log").write_bytes((ahead / "metrics.log").read_bytes())
    assert _train(cut, "setregression", 3, "--resume", str(cut / "checkpoint_last.txt")) == 0
    for name in RUN_FILES:
        assert (cut / name).read_bytes() == (straight / name).read_bytes(), name


def test_refused_resume_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "rz"
    assert _train(out, "setregression", 2) == 0
    before = _files(out)
    capsys.readouterr()
    assert _train(out, "setregression", 3, "--resume", str(out / "nope.txt")) == 2
    assert "error (FileNotFoundError)" in capsys.readouterr().err
    assert _files(out) == before


def test_refused_data_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "lf"
    assert _train(out, "setregression", 2, "--set", "data.labeled_fraction=0") == 2
    assert not out.exists()
    assert _train(out, "setregression", 2) == 0
    before = _files(out)
    assert _train(out, "setregression", 3, "--set", "data.labeled_fraction=0") == 2
    assert _files(out) == before
