"""Test-session setup: single-threaded BLAS.

pytest loads this file before any test module, so numpy reads these
thread counts when it is first imported. A value already set in the
environment wins. Child processes started by the tests inherit them.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS may use several threads")
