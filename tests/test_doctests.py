"""Run the examples in every module's docstrings, and in the test oracles."""

import doctest
import importlib
import pkgutil

import pytest

import rscells

MODULES = sorted(m.name for m in pkgutil.iter_modules(rscells.__path__, "rscells."))
MODULES.append("oracles")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
