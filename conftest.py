"""Test-session setup shared by ``tests/`` and ``bench/``.

BLAS and OpenMP read their thread counts once, when numpy loads. Pinning them
here, before any test module imports numpy, gives every test in one session
the single-threaded BLAS that ``bench/run.py`` pins for its own runs, so
in-process results are bit-identical to separate processes whichever test
files are collected together.

Hypothesis runs the derandomized ``tier1`` profile: each property draws the
same examples on every run of the same code, so a commit's verdict repeats.
The ``random`` profile draws new examples each run, for wider sweeps:
``--hypothesis-profile=random --hypothesis-seed=N`` (a seed replays a sweep).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402  (after the thread pins)

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")  # --hypothesis-profile loads another after this
