"""Run the inline usage examples embedded in module docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import heckespin

MODULES = [importlib.import_module(f"heckespin.{m.name}")
           for m in pkgutil.iter_modules(heckespin.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
