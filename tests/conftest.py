"""Shared test configuration.

Hypothesis runs under one profile: examples are derived from each test
rather than drawn at random, so every run checks the same cases, and no
per-example deadline applies, so a slow or busy machine cannot fail a
property by timing alone.
"""

from hypothesis import settings

settings.register_profile("dvopt", derandomize=True, deadline=None)
settings.load_profile("dvopt")
