"""The benchmark's span tracer wraps attributes of setnet by name; a rename in
setnet must fail here, not only when the benchmark runs.

Only ``bench/spans.py`` is imported: ``bench/run.py`` sets BLAS thread
environment variables on import.
"""

import importlib.util
from pathlib import Path

import numpy as np

from setnet import train
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
