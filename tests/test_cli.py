import pytest

from setnet.cli import _fail_code, main
from setnet.errors import EmptyReductionError

SMALL_MNIST = ["--set", "data.source_count=200", "--set", "data.train_sets=8", "--set", "data.val_sets=4"]


def test_check_equivariance_mnist_defaults_to_model_set_size(capsys):
    assert main(["check-equivariance", "--experiment", "mnist_sum", "--trials", "3"] + SMALL_MNIST) == 0
    assert "verdict=equivariant" in capsys.readouterr().out


def test_check_equivariance_explicit_n_is_honoured(capsys):
    code = main(["check-equivariance", "--experiment", "mnist_sum", "--n", "5", "--trials", "3"] + SMALL_MNIST)
    assert code == 2  # a variant IV model takes exactly data.set_size members
    assert "DimensionError" in capsys.readouterr().err


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
