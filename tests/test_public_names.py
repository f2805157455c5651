"""Every name a dvopt module lists in ``__all__`` resolves.

The benchmark's tracer wraps each listed function with ``getattr``, so a
name deleted from a module but left in its ``__all__`` breaks every
traced run.
"""

import importlib

import pytest

MODULES = ("linalg", "graphs", "objectives", "algorithms", "metrics", "theory", "cli")


@pytest.mark.parametrize("short", MODULES)
def test_every_listed_name_resolves(short):
    module = importlib.import_module(f"dvopt.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

