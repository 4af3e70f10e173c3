"""One hypothesis profile for the whole suite: derandomized draws and no
example database, so every run checks the same examples."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "m2t", derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("m2t")
