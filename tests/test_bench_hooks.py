"""The benchmark's span tracer wraps attributes of setnet by name; a rename in
setnet must fail here, not only when the benchmark runs.

Only ``bench/spans.py`` is imported: ``bench/run.py`` sets BLAS thread
environment variables on import.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_attribute_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.Tracer().targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), name) for owner, name, _ in targets if name not in vars(owner)]
    assert missing == []
