"""Test-session setup: single-threaded BLAS, fixtures for ``run_reservoir``'s
remembered run, and an empty Mackey–Glass series cache for every test.

pytest loads this file before any test module, so numpy reads these
thread counts when it is first imported. A value already set in the
environment wins. Child processes started by the tests inherit them.
"""

import os
import sys
import warnings

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS may use several threads")


@pytest.fixture(autouse=True)
def _forget_the_last_run():
    """Start each test with no remembered ``run_reservoir`` run, so that no
    result depends on the tests run before it, and no model fixture carries
    a remembered run from one test into the next."""
    from rscn import model

    model._last_run = None


@pytest.fixture(autouse=True)
def _forget_the_series():
    """Start each test with an empty series cache, so that no count of
    integrations depends on the tests run before it."""
    from rscn import tasks

    tasks._mg_series.cache_clear()


@pytest.fixture()
def recursions(monkeypatch):
    """The drive array of each ``run_reservoir`` recursion, in order, as the
    test runs; the recursion turns each into its states in place."""
    from rscn import model

    calls, inner = [], model._chunked_recursion

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(model, "_chunked_recursion", counted)
    return calls
