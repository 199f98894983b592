"""The benchmark's span tracer wraps attributes of setnet by name; a rename in
setnet must fail here, not only when the benchmark runs.

Only ``bench/spans.py`` is imported: ``bench/run.py`` sets BLAS thread
environment variables on import.
"""

import importlib.util
from pathlib import Path

import numpy as np

from setnet import autodiff, train
from setnet.data import LabeledSetDataset

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_exists_on_its_owner():
    targets = load_spans().Tracer().targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), name) for owner, name, _ in targets if name not in vars(owner)]
    assert missing == []


def test_the_traced_batch_has_what_the_tracer_reads():
    # the tracer counts real and padded rows off make_set_batch's return value
    tracer = load_spans().Tracer()
    make = next(make for owner, name, make in tracer.targets() if owner is train and name == "make_set_batch")
    dataset = LabeledSetDataset(np.arange(12.0).reshape(6, 2), [[0, 1], [2, 3, 4], [5]], set_labels=[0, 1, 0],
                                num_classes=2)
    batch = make(train.make_set_batch)(dataset, [1, 2])
    assert (batch.cardinalities.tolist(), batch.num_sets, batch.max_size) == ([3, 1], 2, 3)
    assert (tracer.counts[("setup", "real_rows")], tracer.counts[("setup", "padded_rows")]) == (4, 6)


def test_the_traced_backward_counts_the_graph_of_a_default_step(monkeypatch):
    # the tracer reads tape.nodes after backward, which leaves them as they were
    tracer = load_spans().Tracer()
    make = next(make for owner, name, make in tracer.targets() if owner is autodiff and name == "backward")
    config = train.ExperimentConfig({"experiment": "pointcloud", "train.epochs": "1", "data.train_sets": "16",
                                     "data.val_sets": "4"})
    train_data, val_data = train.build_experiment_data(config)
    model = train.build_experiment_model(config, train_data)
    monkeypatch.setattr(autodiff, "backward", make(autodiff.backward))
    train.train_loop(model, config, train_data, val_data)
    assert tracer.names == ["autodiff.backward"]  # one training step
    assert (tracer.counts[("setup", "nodes")], tracer.counts[("setup", "node_bytes")]) == (17, 2578472)
