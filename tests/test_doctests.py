"""The ``>>>`` examples in the docstrings of the package and of the tests'
reference modules are run, every one of them."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import igmax

MODULES = (
    ["igmax"]
    + sorted(info.name for info in pkgutil.iter_modules(igmax.__path__, "igmax."))
    # the oracles that moved out of the package keep their examples running
    + sorted(path.stem for path in Path(__file__).parent.glob("*_reference.py"))
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    written = sum(
        line.lstrip().startswith(">>>") for line in Path(module.__file__).read_text().splitlines()
    )
    result = doctest.testmod(module)
    assert result.failed == 0
    # an example doctest does not collect (in a nested function, a cached
    # property or a string that is not a docstring) would otherwise pass
    # unnoticed
    assert result.attempted == written
