"""Test-session setup shared by ``tests/`` and ``bench/``.

BLAS and OpenMP read their thread counts once, when numpy loads. Pinning them
here, before any test module imports numpy, gives every test in one session
the single-threaded BLAS that ``bench/run.py`` pins for its own runs, so
in-process results are bit-identical to separate processes whichever test
files are collected together.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
