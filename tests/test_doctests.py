"""Run the inline usage examples embedded in module docstrings."""

import doctest

import pytest

import heckespin.baxter
import heckespin.koornwinder
import heckespin.matchings
import heckespin.numerics
import heckespin.qkz
import heckespin.spinrep
import heckespin.tensorops
import heckespin.transfer
import heckespin.weyl

MODULES = [
    heckespin.numerics,
    heckespin.weyl,
    heckespin.spinrep,
    heckespin.matchings,
    heckespin.baxter,
    heckespin.koornwinder,
    heckespin.tensorops,
    heckespin.transfer,
    heckespin.qkz,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
