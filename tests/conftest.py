"""One hypothesis profile for the whole suite: derandomized draws and no
example database, so every run checks the same examples. The suite also
runs under the heap policy that every ``m2t`` command sets, because some
tests train inside this process rather than through ``cli.main``.

BLAS runs one thread unless the environment says otherwise: set before
numpy is first imported, so OpenBLAS starts no second thread to spin on
these small matrices."""

import os

import pytest
from hypothesis import HealthCheck, settings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from m2t.cli import keep_freed_memory  # noqa: E402  (imports numpy)

settings.register_profile(
    "m2t", derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("m2t")


@pytest.fixture(scope="session", autouse=True)
def heap_policy():
    """The process's heap policy, set before the first test runs."""
    return keep_freed_memory()
