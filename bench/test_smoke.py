"""Fast smoke test of the benchmark, kept apart from the tier-1 suite.

    python3 -m pytest -q bench/test_smoke.py

Each workload trains one tiny epoch after a tiny warm-up epoch, with and
without tracing. The test checks that every metric BENCHMARK.json
names is emitted with its unit and that the traced run puts back every
function it wrapped.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (needs BENCH on sys.path)

TINY = {
    "mnist_sum": ["data.source_count=200", "data.train_sets=24", "data.val_sets=8", "train.batch_size=8"],
    "pointcloud": ["data.points=16", "data.train_sets=24", "data.val_sets=8", "train.batch_size=8"],
    "setregression": ["data.train_sets=24", "data.val_sets=8", "data.size_min=4", "data.size_max=9",
                      "train.batch_size=8"],
}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, out, capsys):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--out", str(out)]
    for kv in TINY[workload]:
        argv += ["--set", kv]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _wrapped_attributes():
    from spans import Tracer

    targets = Tracer().targets() + run.Probe(run.Repeat()).targets()
    return {(owner, name): vars(owner)[name] for owner, name, _ in targets}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted(workload, tmp_path, capsys):
    result = _run(workload, 0, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_restores(workload, tmp_path, capsys):
    before = _wrapped_attributes()
    result = _run(workload, 1, tmp_path, capsys)
    assert _wrapped_attributes() == before
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["layers.EquivariantLayer.apply_ms.train"]["value"] > 0
    assert os.path.exists(tmp_path / workload / "spans.tsv")
