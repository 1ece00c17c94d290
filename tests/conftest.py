"""Test-session setup, run before any test module imports numpy."""

import os

# OpenBLAS reads its thread count once, when numpy loads it.  The tests'
# matrices are small, and with the default of one thread per core a run
# beside another busy process slowed n = 64 cases from about 0.5 s to
# 8.7-24 s; one thread keeps each case's time its own.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
