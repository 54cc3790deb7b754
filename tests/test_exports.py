"""Every ``__all__`` list names real attributes, each exactly once.

A name left in ``__all__`` after its import is deleted breaks
``from repro import *`` and any lazy export it leans on; a duplicate
hides a second, stale entry.  Neither shows up until someone imports
the name, so these checks walk the lists directly.
"""

import importlib

import pytest

MODULES = ["repro", "repro.analysis", "repro.core.engine"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_no_duplicate_exports(module_name):
    names = importlib.import_module(module_name).__all__
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert duplicates == []
