"""One hypothesis profile for the whole suite: derandomized draws and no
example database, so every run checks the same examples. The suite also
runs under the heap policy that every ``m2t`` command sets, because some
tests train inside this process rather than through ``cli.main``."""

import pytest
from hypothesis import HealthCheck, settings

from m2t.cli import keep_freed_memory

settings.register_profile(
    "m2t", derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("m2t")


@pytest.fixture(scope="session", autouse=True)
def heap_policy():
    """The process's heap policy, set before the first test runs."""
    return keep_freed_memory()
